// The ready-queue scheduler (SchedulerMode::kReadyQueue) must be execution-
// equivalent to the original full-scan work discovery, which is retained as
// SchedulerMode::kScanReference. Equivalence is checked at the strongest
// level the simulator offers: an FNV-1a digest over EVERY buffer push and
// pop of the whole run (arc id + full tuple contents, in order), plus the
// executor's step/backtrack/ETS counters, delivery counts, latency figures,
// and idle-waiting metrics.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/time.h"
#include "sim/scenario.h"

namespace dsms {
namespace {

void ExpectTraceEquivalent(ScenarioConfig config, const std::string& label) {
  config.record_trace = true;

  ScenarioConfig reference = config;
  reference.scheduler = SchedulerMode::kScanReference;
  ScenarioConfig optimized = config;
  optimized.scheduler = SchedulerMode::kReadyQueue;

  ScenarioResult ref = RunScenario(reference);
  ScenarioResult opt = RunScenario(optimized);

  // Byte-identical tuple movement, in order, across every arc.
  EXPECT_EQ(ref.trace_events, opt.trace_events) << label;
  EXPECT_EQ(ref.trace_hash, opt.trace_hash) << label;

  // Identical executor accounting (steps by kind, backtracks, ETS, scans).
  EXPECT_EQ(ref.report.exec.data_steps, opt.report.exec.data_steps) << label;
  EXPECT_EQ(ref.report.exec.punctuation_steps,
            opt.report.exec.punctuation_steps) << label;
  EXPECT_EQ(ref.report.exec.empty_steps, opt.report.exec.empty_steps) << label;
  EXPECT_EQ(ref.report.exec.backtracks, opt.report.exec.backtracks) << label;
  EXPECT_EQ(ref.report.exec.backtrack_hops,
            opt.report.exec.backtrack_hops) << label;
  EXPECT_EQ(ref.report.exec.ets_generated,
            opt.report.exec.ets_generated) << label;
  EXPECT_EQ(ref.report.exec.idle_returns,
            opt.report.exec.idle_returns) << label;
  EXPECT_EQ(ref.report.exec.work_scans, opt.report.exec.work_scans) << label;
  EXPECT_TRUE(ref.report.exec == opt.report.exec) << label;

  // Identical headline metrics.
  EXPECT_EQ(ref.tuples_delivered, opt.tuples_delivered) << label;
  EXPECT_DOUBLE_EQ(ref.mean_latency_ms, opt.mean_latency_ms) << label;
  EXPECT_DOUBLE_EQ(ref.max_latency_ms, opt.max_latency_ms) << label;
  EXPECT_EQ(ref.report.peak_queue_total, opt.report.peak_queue_total) << label;
  EXPECT_EQ(ref.peak_queue_data, opt.peak_queue_data) << label;
  EXPECT_DOUBLE_EQ(ref.idle_fraction, opt.idle_fraction) << label;
  EXPECT_EQ(ref.blocked_intervals, opt.blocked_intervals) << label;
  EXPECT_EQ(ref.report.ets_generated, opt.report.ets_generated) << label;
  EXPECT_EQ(ref.punctuation_eliminated, opt.punctuation_eliminated) << label;
  EXPECT_EQ(ref.order_violations, opt.order_violations) << label;
  EXPECT_EQ(ref.report.buffer_order_violations,
            opt.report.buffer_order_violations) << label;

  // The run should have actually moved tuples, or the check is vacuous.
  EXPECT_GT(ref.trace_events, 0u) << label;
}

ScenarioConfig ShortConfig(ScenarioKind kind) {
  ScenarioConfig config;
  config.kind = kind;
  config.run.horizon = 120 * kSecond;
  config.run.warmup = 10 * kSecond;
  if (kind == ScenarioKind::kPeriodicEts) config.heartbeat_rate = 10.0;
  return config;
}

// The same (kind x shape) matrix scenario_test.cc sweeps, for each executor.
using SweepParam = std::tuple<int, int, int>;

class TraceEquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  static const char* kKinds[] = {"NoEts", "Periodic", "OnDemand", "Latent"};
  static const char* kExecs[] = {"Dfs", "RoundRobin", "Greedy"};
  static const char* kShapes[] = {"Union", "Join", "Aggregate"};
  return std::string(kKinds[std::get<0>(info.param)]) +
         kExecs[std::get<1>(info.param)] + kShapes[std::get<2>(info.param)];
}

TEST_P(TraceEquivalenceSweep, ReadyQueueMatchesScanReference) {
  auto [kind, executor, shape] = GetParam();
  ScenarioConfig config = ShortConfig(static_cast<ScenarioKind>(kind));
  config.run.executor = static_cast<ExecutorKind>(executor);
  config.shape = static_cast<QueryShape>(shape);
  ExpectTraceEquivalent(
      config, std::string(ScenarioKindToString(config.kind)) + " exec=" +
                  std::to_string(executor) + " shape=" +
                  std::to_string(shape));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TraceEquivalenceSweep,
    ::testing::Combine(::testing::Range(0, 4),  // ScenarioKind A-D
                       ::testing::Range(0, 3),  // Dfs/RoundRobin/Greedy
                       ::testing::Range(0, 3)),  // Union/Join/Aggregate
    SweepName);

TEST(TraceEquivalenceTest, ExternalTimestampsWithSkew) {
  for (int executor = 0; executor < 3; ++executor) {
    ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
    config.run.executor = static_cast<ExecutorKind>(executor);
    config.ts_kind = TimestampKind::kExternal;
    config.skew_bound = 100 * kMillisecond;
    ExpectTraceEquivalent(config,
                          "external exec=" + std::to_string(executor));
  }
}

TEST(TraceEquivalenceTest, BurstyArrivals) {
  for (int executor = 0; executor < 3; ++executor) {
    ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
    config.run.executor = static_cast<ExecutorKind>(executor);
    config.arrivals = ArrivalKind::kBursty;
    ExpectTraceEquivalent(config, "bursty exec=" + std::to_string(executor));
  }
}

TEST(TraceEquivalenceTest, NaryFanInUnion) {
  for (int executor = 0; executor < 3; ++executor) {
    ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
    config.run.executor = static_cast<ExecutorKind>(executor);
    config.num_slow_streams = 3;
    ExpectTraceEquivalent(config, "n-ary exec=" + std::to_string(executor));
  }
}

TEST(TraceEquivalenceTest, StrictUnionWithoutTsmRegisters) {
  for (int executor = 0; executor < 3; ++executor) {
    ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
    config.run.executor = static_cast<ExecutorKind>(executor);
    config.use_tsm_registers = false;
    ExpectTraceEquivalent(config, "strict exec=" + std::to_string(executor));
  }
}

TEST(TraceEquivalenceTest, CoarseGranularityAndSmallQuantum) {
  ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
  config.run.executor = ExecutorKind::kRoundRobin;
  config.run.quantum = 1;
  config.timestamp_granularity = 100 * kMillisecond;
  ExpectTraceEquivalent(config, "coarse rr_quantum=1");
}

/// Columnar batch mode must preserve the scheduler equivalence: with the
/// same batch size on both sides, the ready-queue scheduler still replays
/// the reference scan byte for byte — including the batch counters, the
/// DrainIntoBatch buffer events, and the kBatchDrain cost charges.
/// (Batch-vs-scalar equivalence is a different contract with a different
/// oracle; see tests/batch_exec_test.cc.)
TEST(TraceEquivalenceTest, BatchModeKeepsSchedulerEquivalence) {
  for (size_t batch : {size_t{1}, size_t{7}, size_t{256}}) {
    for (int shape = 0; shape < 3; ++shape) {
      for (int executor = 0; executor < 2; ++executor) {  // Dfs, RoundRobin
        ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
        config.shape = static_cast<QueryShape>(shape);
        config.run.executor = static_cast<ExecutorKind>(executor);
        config.run.batch = batch;
        ExpectTraceEquivalent(config,
                              "batch=" + std::to_string(batch) + " shape=" +
                                  std::to_string(shape) + " exec=" +
                                  std::to_string(executor));
      }
    }
  }
}

// --- Sharded execution -------------------------------------------------------

/// Deterministic sharded execution (ExecConfig::shards > 1 with
/// ShardMode::kDeterministic) must replicate the single-shard DFS schedule
/// byte for byte: same buffer-event digest, same sink digest, identical
/// executor accounting. Only the shard bookkeeping (shards_used, hops,
/// epochs) is allowed to differ from the scalar run.
TEST(TraceEquivalenceTest, DeterministicShardsMatchSingleShardOracle) {
  for (int kind : {0, 2, 3}) {  // NoEts, OnDemand, Latent
    for (int shape = 0; shape < 3; ++shape) {
      ScenarioConfig base = ShortConfig(static_cast<ScenarioKind>(kind));
      base.shape = static_cast<QueryShape>(shape);
      base.record_trace = true;
      ScenarioResult oracle = RunScenario(base);
      ASSERT_GT(oracle.trace_events, 0u);

      for (int shards : {2, 4}) {
        ScenarioConfig config = base;
        config.run.shards = shards;
        ScenarioResult result = RunScenario(config);
        const std::string label = "kind=" + std::to_string(kind) +
                                  " shape=" + std::to_string(shape) +
                                  " shards=" + std::to_string(shards);
        EXPECT_EQ(result.trace_events, oracle.trace_events) << label;
        EXPECT_EQ(result.trace_hash, oracle.trace_hash) << label;
        EXPECT_EQ(result.sink_digest, oracle.sink_digest) << label;
        EXPECT_TRUE(result.report.exec == oracle.report.exec) << label;
        EXPECT_EQ(result.tuples_delivered, oracle.tuples_delivered) << label;
        EXPECT_DOUBLE_EQ(result.mean_latency_ms, oracle.mean_latency_ms)
            << label;
        EXPECT_EQ(result.report.peak_queue_total,
                  oracle.report.peak_queue_total) << label;
        EXPECT_EQ(result.order_violations, 0u) << label;
        EXPECT_EQ(result.report.shards_used,
                  static_cast<uint64_t>(shards)) << label;
        EXPECT_GT(result.report.shard_epochs, 0u) << label;
      }
    }
  }
}

/// The ready-queue/scan-reference equivalence contract extends to sharded
/// execution: per-shard ready trackers combine into the same global
/// first-candidate choice the O(n) scan makes.
TEST(TraceEquivalenceTest, ShardedSchedulerEquivalence) {
  for (int shards : {2, 4}) {
    for (int shape = 0; shape < 3; ++shape) {
      ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
      config.shape = static_cast<QueryShape>(shape);
      config.run.shards = shards;
      ExpectTraceEquivalent(config, "sharded shards=" +
                                        std::to_string(shards) + " shape=" +
                                        std::to_string(shape));
    }
  }
}

/// Sharding composes with the harder single-shard regimes: external
/// timestamps with skew, bursty arrivals, a wide fan-in, and the strict
/// union without TSM registers all stay byte-identical at shards=4.
TEST(TraceEquivalenceTest, ShardedMatchesOracleUnderHardRegimes) {
  for (int variant = 0; variant < 4; ++variant) {
    ScenarioConfig base = ShortConfig(ScenarioKind::kOnDemandEts);
    base.record_trace = true;
    switch (variant) {
      case 0:
        base.ts_kind = TimestampKind::kExternal;
        base.skew_bound = 100 * kMillisecond;
        break;
      case 1:
        base.arrivals = ArrivalKind::kBursty;
        break;
      case 2:
        base.num_slow_streams = 3;
        break;
      case 3:
        base.use_tsm_registers = false;
        break;
    }
    ScenarioResult oracle = RunScenario(base);

    ScenarioConfig config = base;
    config.run.shards = 4;
    ScenarioResult result = RunScenario(config);
    const std::string label = "variant=" + std::to_string(variant);
    EXPECT_EQ(result.trace_hash, oracle.trace_hash) << label;
    EXPECT_EQ(result.trace_events, oracle.trace_events) << label;
    EXPECT_EQ(result.sink_digest, oracle.sink_digest) << label;
    EXPECT_TRUE(result.report.exec == oracle.report.exec) << label;
    EXPECT_EQ(result.tuples_delivered, oracle.tuples_delivered) << label;
  }
}

}  // namespace
}  // namespace dsms
