// Fault-injection matrix: every FaultKind against every executor, with all
// runtime defenses armed. The invariants are the engine's graceful-
// degradation contract: runs terminate, sink output stays timestamp-ordered,
// injected faults are visible in the stats (never silent), and with the
// injectors off the engine is byte-identical to the fault-free build.

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/time.h"
#include "core/stream_buffer.h"
#include "core/tuple.h"
#include "metrics/order_validator.h"
#include "sim/fault_injector.h"
#include "sim/scenario.h"
#include "test_seed.h"

namespace dsms {
namespace {

/// Short union run with every defense armed: lease expiry, bounded
/// buffers with shedding, and quarantine for order violations.
ScenarioConfig ChaosConfig(FaultKind kind, int executor, uint64_t seed) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.run.executor = static_cast<ExecutorKind>(executor);
  config.run.horizon = 90 * kSecond;
  config.run.warmup = 0;
  config.seed = seed;

  config.fault.kind = kind;
  config.fault.start = 30 * kSecond;
  config.fault.duration = 30 * kSecond;
  config.fault.probability = 0.5;
  // Punctuation faults need a source that actually earns punctuation: the
  // slow stream is the one the union keeps demanding ETS from. Everything
  // else targets the fast stream so the fault window sees real traffic.
  const bool punct_fault = kind == FaultKind::kDuplicatePunct ||
                           kind == FaultKind::kRegressingPunct;
  config.fault_target = punct_fault ? 1 : 0;
  if (kind == FaultKind::kSkewViolation) {
    config.ts_kind = TimestampKind::kExternal;
    config.skew_bound = kSecond;
  }

  if (kind == FaultKind::kFlap) {
    // Alternating 10s dead / 10s alive phases on the fast stream: two full
    // die-and-revive cycles inside the window, each revival a frontier
    // violation (the deep quarantine/re-admission walk lives in
    // frontier_test; here the contract is "the run absorbs it").
    config.fault.punct_period = 10 * kSecond;
    config.fault_target = 0;
  }

  config.run.lease = 5 * kSecond;
  config.run.buffer_cap = 256;
  config.run.overload = OverloadPolicy::kShedOldest;
  config.run.violations = ViolationPolicy::kQuarantine;
  return config;
}

class ChaosMatrixTest
    : public ::testing::TestWithParam<std::tuple<int /*kind*/,
                                                 int /*executor*/>> {};

TEST_P(ChaosMatrixTest, TerminatesOrderedAndVisible) {
  auto [kind_index, executor] = GetParam();
  const FaultKind kind = static_cast<FaultKind>(kind_index);
  const uint64_t seed = test::TestSeedOr(42);
  DSMS_TRACE_SEED(seed);

  // Returning at all is the first assertion: no fault may wedge the run.
  ScenarioResult result = RunScenario(ChaosConfig(kind, executor, seed));

  // The sink never sees out-of-order data, whatever was injected upstream.
  EXPECT_EQ(result.order_violations, 0u);
  EXPECT_GT(result.tuples_delivered, 0u);

  if (kind == FaultKind::kNone) {
    EXPECT_EQ(result.report.fault_events, 0u);
    EXPECT_EQ(result.report.quarantined, 0u);
    EXPECT_FALSE(result.report.degraded);
  } else {
    // A configured fault must be visible in the report, never silent.
    EXPECT_GT(result.report.fault_events, 0u);
  }

  // Order-violating faults must land in quarantine, not downstream.
  if (kind == FaultKind::kDisorder || kind == FaultKind::kSkewViolation ||
      kind == FaultKind::kRegressingPunct) {
    EXPECT_GT(result.report.quarantined, 0u);
    EXPECT_EQ(result.report.buffer_order_violations, result.report.quarantined);
  }

  // Bounded buffers: the high-water mark respects the configured cap.
  EXPECT_LE(result.report.max_buffer_hwm, 256u);
}

std::string ChaosName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"None",     "Stall",    "Death",
                                 "Burst",    "Disorder", "Skew",
                                 "DupPunct", "RegressPunct", "Flap"};
  static const char* kExecutors[] = {"Dfs", "RoundRobin", "Greedy"};
  return std::string(kKinds[std::get<0>(info.param)]) +
         kExecutors[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAllExecutors, ChaosMatrixTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(0, 1, 2)),
    ChaosName);

// --- Sharded execution under faults ------------------------------------------

/// The chaos contract at shards > 1: for every fault kind (including flap,
/// whose die-and-revive cycles exercise frontier revival across shard
/// boundaries), a deterministic sharded run must produce a sink byte-stream
/// identical to the single-shard scalar oracle — the injected fault, the
/// quarantine walk, and the shedding all land on the same tuples.
class ChaosShardedTest
    : public ::testing::TestWithParam<std::tuple<int /*kind*/,
                                                 int /*shards*/>> {};

TEST_P(ChaosShardedTest, DeterministicShardsMatchScalarOracle) {
  auto [kind_index, shards] = GetParam();
  const FaultKind kind = static_cast<FaultKind>(kind_index);
  const uint64_t seed = test::TestSeedOr(42);
  DSMS_TRACE_SEED(seed);

  ScenarioConfig config = ChaosConfig(kind, /*executor=*/0, seed);
  config.record_trace = true;
  ScenarioResult oracle = RunScenario(config);

  config.run.shards = shards;
  ScenarioResult sharded = RunScenario(config);

  EXPECT_EQ(sharded.sink_digest, oracle.sink_digest);
  EXPECT_EQ(sharded.trace_hash, oracle.trace_hash);
  EXPECT_EQ(sharded.trace_events, oracle.trace_events);
  EXPECT_EQ(sharded.tuples_delivered, oracle.tuples_delivered);
  EXPECT_EQ(sharded.order_violations, 0u);
  EXPECT_EQ(sharded.report.fault_events, oracle.report.fault_events);
  EXPECT_EQ(sharded.report.quarantined, oracle.report.quarantined);
  EXPECT_EQ(sharded.report.shed_tuples, oracle.report.shed_tuples);
  EXPECT_EQ(sharded.report.exec.lease_expired_ets, oracle.report.exec.lease_expired_ets);
  EXPECT_EQ(sharded.report.degraded, oracle.report.degraded);
  EXPECT_EQ(sharded.report.max_buffer_hwm, oracle.report.max_buffer_hwm);
  EXPECT_EQ(sharded.report.shards_used, static_cast<uint64_t>(shards));
}

std::string ShardedChaosName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"None",     "Stall",    "Death",
                                 "Burst",    "Disorder", "Skew",
                                 "DupPunct", "RegressPunct", "Flap"};
  return std::string(kKinds[std::get<0>(info.param)]) + "Shards" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsSharded, ChaosShardedTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(2, 4)),
    ShardedChaosName);

// --- Lease expiry ------------------------------------------------------------

/// With ETS disabled entirely (scenario A), a stalled slow stream wedges the
/// union until the next data tuple. The lease's fallback ETS is the only
/// unwedging mechanism — it must fire and mark the source degraded.
TEST(ChaosWatchdogTest, UnwedgesStalledStreamWithoutEts) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kNoEts;
  config.run.horizon = 90 * kSecond;
  config.run.warmup = 0;
  config.fault.kind = FaultKind::kStall;
  config.fault.start = 20 * kSecond;
  config.fault.duration = 40 * kSecond;
  config.fault_target = 1;  // the slow stream
  config.run.lease = 5 * kSecond;

  ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.report.exec.lease_expired_ets, 0u);
  EXPECT_TRUE(result.report.degraded);
  EXPECT_GT(result.tuples_delivered, 0u);
  EXPECT_EQ(result.order_violations, 0u);
}

/// Source death is a stall that never ends: lease expiry must keep the rest
/// of the graph draining forever after.
TEST(ChaosWatchdogTest, SourceDeathDoesNotWedgeTheGraph) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kNoEts;
  config.run.horizon = 90 * kSecond;
  config.run.warmup = 0;
  config.fault.kind = FaultKind::kDeath;
  config.fault.start = 10 * kSecond;
  config.fault_target = 1;
  config.run.lease = 5 * kSecond;

  ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.report.exec.lease_expired_ets, 0u);
  EXPECT_TRUE(result.report.degraded);
  // The fast stream keeps flowing: most of its ~50/s tuples reach the sink.
  EXPECT_GT(result.tuples_delivered, 1000u);
  EXPECT_EQ(result.order_violations, 0u);
}

/// EtsPolicy::min_interval throttles the regular on-demand path; the
/// lease must bypass the throttle or a stalled source wedges the union
/// for the whole interval (the exact failure the lease exists for).
TEST(ChaosWatchdogTest, FallbackEtsBypassesMinIntervalThrottle) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.run.horizon = 90 * kSecond;
  config.run.warmup = 0;
  config.run.ets_min_interval = 600 * kSecond;  // throttle for the whole run
  config.fault.kind = FaultKind::kStall;
  config.fault.start = 20 * kSecond;
  config.fault.duration = 40 * kSecond;
  config.fault_target = 1;

  ScenarioConfig with_lease = config;
  with_lease.run.lease = 5 * kSecond;

  ScenarioResult throttled = RunScenario(config);
  ScenarioResult guarded = RunScenario(with_lease);

  EXPECT_EQ(throttled.report.exec.lease_expired_ets, 0u);
  EXPECT_GT(guarded.report.exec.lease_expired_ets, 0u);
  // The lease's fallback bounds release tuples the throttled run holds
  // hostage until the horizon (a fair latency comparison is impossible:
  // the throttled run simply never delivers its stragglers).
  EXPECT_GT(guarded.tuples_delivered, throttled.tuples_delivered);
  EXPECT_EQ(guarded.order_violations, 0u);
}

// --- Bounded buffers ---------------------------------------------------------

/// Scenario A grows the fast arc into the thousands; kShedOldest must hold
/// every arc at the cap and account for everything it dropped.
TEST(ChaosOverloadTest, ShedOldestHoldsHighWaterMarkAtCap) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kNoEts;
  config.run.horizon = 60 * kSecond;
  config.run.warmup = 0;
  config.run.buffer_cap = 64;
  config.run.overload = OverloadPolicy::kShedOldest;

  ScenarioResult result = RunScenario(config);
  EXPECT_LE(result.report.max_buffer_hwm, 64u);
  EXPECT_GT(result.report.shed_tuples, 0u);
  EXPECT_EQ(result.order_violations, 0u);
}

/// kBlockSource applies backpressure instead: arrivals are deferred while
/// the arc is full, so nothing is shed and the cap still holds.
TEST(ChaosOverloadTest, BlockSourceDefersArrivalsInsteadOfShedding) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kNoEts;
  config.run.horizon = 60 * kSecond;
  config.run.warmup = 0;
  config.run.buffer_cap = 64;
  config.run.overload = OverloadPolicy::kBlockSource;

  ScenarioResult result = RunScenario(config);
  EXPECT_LE(result.report.max_buffer_hwm, 64u);
  EXPECT_EQ(result.report.shed_tuples, 0u);
  EXPECT_EQ(result.order_violations, 0u);
  EXPECT_GT(result.tuples_delivered, 0u);
}

// --- Injectors off == seed behaviour ----------------------------------------

/// Arming the robustness plumbing with every knob at its default must not
/// perturb a single buffer event: the trace hash is the proof.
TEST(ChaosTraceTest, InjectorsOffIsByteIdenticalToDefaults) {
  ScenarioConfig plain;
  plain.run.horizon = 60 * kSecond;
  plain.run.warmup = 0;
  plain.record_trace = true;

  ScenarioConfig armed = plain;
  armed.fault.kind = FaultKind::kNone;  // explicit no-op injector
  armed.fault_target = 1;
  armed.run.lease = 0;
  armed.run.buffer_cap = 0;
  armed.run.overload = OverloadPolicy::kGrow;
  armed.run.violations = ViolationPolicy::kCount;

  ScenarioResult a = RunScenario(plain);
  ScenarioResult b = RunScenario(armed);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.tuples_delivered, b.tuples_delivered);
  EXPECT_EQ(b.report.fault_events, 0u);
  EXPECT_EQ(b.report.exec.lease_expired_ets, 0u);
}

// --- Disk faults against the state store -------------------------------------

/// A per-test scratch spill directory, wiped before use.
std::string FreshSpillDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/dsms_chaos_spill_" + tag;
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") {
        std::remove((dir + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
  return dir;
}

/// Join scenario over a state store: `spill` gives a tiny hot budget so
/// most window state lives in block files; otherwise the budget is huge
/// and the store never touches disk.
ScenarioConfig DiskChaosConfig(FaultKind kind, bool spill,
                               const std::string& dir, uint64_t seed) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.shape = QueryShape::kJoin;
  config.run.horizon = 60 * kSecond;
  config.run.warmup = 0;
  config.seed = seed;
  config.join_window = 4 * kSecond;
  config.storage.spill_dir = dir;
  config.storage.mem_budget = spill ? 2048 : (1ull << 30);
  config.run.overload = OverloadPolicy::kShedOldest;
  config.fault.kind = kind;
  config.fault.start = 10 * kSecond;
  config.fault.duration = 30 * kSecond;
  config.fault.probability = 1.0;
  config.fault.magnitude = kMillisecond;
  return config;
}

class ChaosDiskTest
    : public ::testing::TestWithParam<std::tuple<int /*kind*/,
                                                 int /*spill*/>> {};

TEST_P(ChaosDiskTest, TerminatesOrderedAndVisible) {
  auto [kind_index, spill] = GetParam();
  const FaultKind kind = static_cast<FaultKind>(kind_index);
  const uint64_t seed = test::TestSeedOr(42);
  DSMS_TRACE_SEED(seed);

  std::string dir = FreshSpillDir(
      std::to_string(kind_index) + "_" + std::to_string(spill));
  ScenarioResult result =
      RunScenario(DiskChaosConfig(kind, spill != 0, dir, seed));

  EXPECT_EQ(result.order_violations, 0u);
  EXPECT_GT(result.tuples_delivered, 0u);
  if (spill != 0) {
    // The tiny budget forced real disk traffic, so the armed fault fired
    // and is visible in the stats — never silent.
    EXPECT_GT(result.report.storage.spills +
                  result.report.storage.spill_failures,
              0u);
    EXPECT_GT(result.report.fault_events, 0u);
    if (kind == FaultKind::kDiskStall) {
      EXPECT_GT(result.report.storage.stalls, 0u);
      EXPECT_GT(result.report.storage.stall_time, 0);
    } else {
      EXPECT_GT(result.report.storage.spill_failures, 0u);
    }
  } else {
    // All state fits the huge budget: no disk work, nothing to fault.
    EXPECT_EQ(result.report.storage.spills, 0u);
    EXPECT_EQ(result.report.storage.loads, 0u);
    EXPECT_EQ(result.report.fault_events, 0u);
  }
}

std::string DiskChaosName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  std::string kind = std::get<0>(info.param) == 9 ? "DiskStall" : "DiskFail";
  return kind + (std::get<1>(info.param) != 0 ? "Spill" : "InMemory");
}

INSTANTIATE_TEST_SUITE_P(
    DiskFaults, ChaosDiskTest,
    ::testing::Combine(::testing::Values(9, 10),  // kDiskStall, kDiskFail
                       ::testing::Values(0, 1)),
    DiskChaosName);

/// With the injectors off, a spilling run must be byte-identical at the
/// sink to an unlimited-memory one: spilling changes where state lives,
/// never what the query produces.
TEST(ChaosDiskTest, SpillByteIdenticalToInMemoryWithFaultsOff) {
  const uint64_t seed = test::TestSeedOr(42);
  DSMS_TRACE_SEED(seed);

  ScenarioConfig in_memory = DiskChaosConfig(
      FaultKind::kNone, /*spill=*/false, FreshSpillDir("id_mem"), seed);
  ScenarioConfig spilling = DiskChaosConfig(
      FaultKind::kNone, /*spill=*/true, FreshSpillDir("id_spill"), seed);

  ScenarioResult a = RunScenario(in_memory);
  ScenarioResult b = RunScenario(spilling);

  EXPECT_EQ(a.report.storage.spills, 0u);
  EXPECT_GT(b.report.storage.spills, 0u);  // the comparison is real
  EXPECT_EQ(b.sink_digest, a.sink_digest);
  EXPECT_EQ(b.tuples_delivered, a.tuples_delivered);
  EXPECT_EQ(b.order_violations, 0u);
}

/// Deterministic sharded execution with the state store active must still
/// replicate the scalar schedule byte for byte, spilling and all.
TEST(ChaosDiskTest, SpillingShardedRunMatchesScalarOracle) {
  const uint64_t seed = test::TestSeedOr(42);
  DSMS_TRACE_SEED(seed);

  ScenarioConfig config = DiskChaosConfig(
      FaultKind::kNone, /*spill=*/true, FreshSpillDir("sharded"), seed);
  ScenarioResult oracle = RunScenario(config);

  config.storage.spill_dir = FreshSpillDir("sharded4");
  config.run.shards = 4;
  ScenarioResult sharded = RunScenario(config);

  EXPECT_GT(oracle.report.storage.spills, 0u);
  EXPECT_EQ(sharded.sink_digest, oracle.sink_digest);
  EXPECT_EQ(sharded.tuples_delivered, oracle.tuples_delivered);
  EXPECT_EQ(sharded.report.shards_used, 4u);
}

// --- Violation reporting -----------------------------------------------------

/// first_violation() names the arc and the offending tuple so a report is
/// actionable without a debugger.
TEST(ChaosValidatorTest, FirstViolationNamesArcAndTuple) {
  StreamBuffer buffer("filter->union");
  OrderValidator validator;
  validator.set_policy(ViolationPolicy::kQuarantine);
  buffer.AddListener(&validator);

  Tuple on_time = Tuple::MakeData(1000, {});
  on_time.set_source_id(3);
  on_time.set_sequence(7);
  EXPECT_TRUE(buffer.Push(std::move(on_time)));
  Tuple late = Tuple::MakeData(400, {});
  late.set_source_id(3);
  late.set_sequence(8);
  EXPECT_FALSE(buffer.Push(std::move(late)));

  EXPECT_EQ(validator.violations(), 1u);
  EXPECT_EQ(validator.quarantined(), 1u);
  ASSERT_EQ(validator.dead_letter().size(), 1u);
  EXPECT_EQ(validator.dead_letter()[0].sequence(), 8u);
  const std::string& report = validator.first_violation();
  EXPECT_NE(report.find("filter->union"), std::string::npos);
  EXPECT_NE(report.find("source 3"), std::string::npos);
  EXPECT_NE(report.find("seq 8"), std::string::npos);
  EXPECT_EQ(buffer.size(), 1u);  // the late tuple never entered the arc
}

}  // namespace
}  // namespace dsms
