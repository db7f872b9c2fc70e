// Columnar batch execution (ExecConfig::batch_size) is a pure execution-
// strategy optimization: with the virtual cost model zeroed (so tuple
// stamping cannot observe the coarser clock interleaving), a batched run
// must deliver byte-identical sink output, generate the same ETS
// punctuations, and charge the same per-row step accounting as the scalar
// tuple-at-a-time path — across the whole fault-injection chaos matrix and
// for every batch size. Batches must also never span a punctuation: a
// mid-buffer punctuation force-splits the drain so IWP ordering decisions
// see exactly the scalar sequence.

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/clock.h"
#include "common/time.h"
#include "core/column_batch.h"
#include "core/stream_buffer.h"
#include "core/tuple.h"
#include "exec/dfs_executor.h"
#include "graph/graph_builder.h"
#include "operators/filter.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "sim/fault_injector.h"
#include "sim/scenario.h"
#include "test_seed.h"

namespace dsms {
namespace {

const size_t kBatchSizes[] = {1, 7, 256};

/// Zero every virtual cost: batch mode charges data_step per row in one
/// clock advance instead of one advance per row, so the *intermediate*
/// clock values differ. At zero cost the clock is a pure function of the
/// event queue and the two paths become bit-for-bit comparable end to end.
CostModel ZeroCosts() {
  CostModel costs;
  costs.data_step = 0;
  costs.punctuation_step = 0;
  costs.empty_step = 0;
  costs.backtrack_hop = 0;
  costs.ets_generation = 0;
  return costs;
}

/// Mirror of chaos_test.cc's ChaosConfig (every defense armed, fault at
/// 30s/30s) with the cost model zeroed.
ScenarioConfig ChaosConfig(FaultKind kind, int executor, uint64_t seed) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.run.executor = static_cast<ExecutorKind>(executor);
  config.run.horizon = 90 * kSecond;
  config.run.warmup = 0;
  config.seed = seed;
  config.costs = ZeroCosts();

  config.fault.kind = kind;
  config.fault.start = 30 * kSecond;
  config.fault.duration = 30 * kSecond;
  config.fault.probability = 0.5;
  const bool punct_fault = kind == FaultKind::kDuplicatePunct ||
                           kind == FaultKind::kRegressingPunct;
  config.fault_target = punct_fault ? 1 : 0;
  if (kind == FaultKind::kSkewViolation) {
    config.ts_kind = TimestampKind::kExternal;
    config.skew_bound = kSecond;
  }

  config.run.lease = 5 * kSecond;
  config.run.buffer_cap = 256;
  config.run.overload = OverloadPolicy::kShedOldest;
  config.run.violations = ViolationPolicy::kQuarantine;
  return config;
}

void ExpectBatchEquivalent(const ScenarioResult& scalar,
                           const ScenarioResult& batched,
                           const std::string& label) {
  // Byte-identical sink output, in order.
  EXPECT_EQ(scalar.sink_digest, batched.sink_digest) << label;
  EXPECT_EQ(scalar.tuples_delivered, batched.tuples_delivered) << label;
  EXPECT_EQ(scalar.order_violations, batched.order_violations) << label;
  EXPECT_EQ(scalar.report.buffer_order_violations,
            batched.report.buffer_order_violations)
      << label;

  // Identical punctuation machinery: same ETS births, same eliminations.
  EXPECT_EQ(scalar.report.ets_generated, batched.report.ets_generated) << label;
  EXPECT_EQ(scalar.report.exec.lease_expired_ets,
            batched.report.exec.lease_expired_ets) << label;
  EXPECT_EQ(scalar.punctuation_eliminated, batched.punctuation_eliminated)
      << label;

  // Per-row accounting: every batched row is charged as one data step, so
  // the step-kind totals match the scalar run exactly.
  EXPECT_EQ(scalar.report.exec.data_steps,
            batched.report.exec.data_steps) << label;
  EXPECT_EQ(scalar.report.exec.punctuation_steps,
            batched.report.exec.punctuation_steps)
      << label;

  // Same degradation story under faults.
  EXPECT_EQ(scalar.report.degraded, batched.report.degraded) << label;
  EXPECT_EQ(scalar.report.shed_tuples, batched.report.shed_tuples) << label;
  EXPECT_EQ(scalar.report.quarantined, batched.report.quarantined) << label;
}

class BatchChaosMatrixTest
    : public ::testing::TestWithParam<std::tuple<int /*kind*/,
                                                 int /*executor*/>> {};

TEST_P(BatchChaosMatrixTest, SinkBytesAndEtsMatchScalar) {
  auto [kind_index, executor] = GetParam();
  const FaultKind kind = static_cast<FaultKind>(kind_index);
  const uint64_t seed = test::TestSeedOr(42);
  DSMS_TRACE_SEED(seed);

  ScenarioConfig scalar_config = ChaosConfig(kind, executor, seed);
  ScenarioResult scalar = RunScenario(scalar_config);
  EXPECT_GT(scalar.tuples_delivered, 0u);
  EXPECT_EQ(scalar.report.exec.batches, 0u);

  for (size_t batch : kBatchSizes) {
    ScenarioConfig config = ChaosConfig(kind, executor, seed);
    config.run.batch = batch;
    ScenarioResult batched = RunScenario(config);
    const std::string label = "kind=" + std::to_string(kind_index) +
                              " exec=" + std::to_string(executor) +
                              " batch=" + std::to_string(batch);
    ExpectBatchEquivalent(scalar, batched, label);
    if (executor != 2) {
      // DFS and round-robin have the batch fast path; the union shape runs
      // every data row through a RandomDropFilter batch kernel.
      EXPECT_GT(batched.report.exec.batches, 0u) << label;
      EXPECT_GE(batched.report.exec.batch_rows,
                batched.report.exec.batches) << label;
      if (batch == 1) {
        EXPECT_EQ(batched.report.exec.batch_rows,
                  batched.report.exec.batches) << label;
      }
    } else {
      // The greedy-memory executor deliberately stays scalar.
      EXPECT_EQ(batched.report.exec.batches, 0u) << label;
    }
  }
}

std::string ChaosName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"None",     "Stall",    "Death",
                                 "Burst",    "Disorder", "Skew",
                                 "DupPunct", "RegressPunct"};
  static const char* kExecutors[] = {"Dfs", "RoundRobin", "Greedy"};
  return std::string(kKinds[std::get<0>(info.param)]) +
         kExecutors[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAllExecutors, BatchChaosMatrixTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(0, 1, 2)),
    ChaosName);

// Every query shape (union / join / aggregate) on every executor: shapes
// exercise different kernel mixes — the join falls back entirely, the
// aggregate runs the hoisted window-close kernel.
TEST(BatchShapeEquivalenceTest, AllShapesAllExecutorsByteIdentical) {
  for (int shape = 0; shape < 3; ++shape) {
    for (int executor = 0; executor < 3; ++executor) {
      ScenarioConfig base;
      base.kind = ScenarioKind::kOnDemandEts;
      base.shape = static_cast<QueryShape>(shape);
      base.run.executor = static_cast<ExecutorKind>(executor);
      base.run.horizon = 120 * kSecond;
      base.run.warmup = 10 * kSecond;
      base.costs = ZeroCosts();

      ScenarioResult scalar = RunScenario(base);
      EXPECT_GT(scalar.tuples_delivered, 0u);
      for (size_t batch : kBatchSizes) {
        ScenarioConfig config = base;
        config.run.batch = batch;
        ScenarioResult batched = RunScenario(config);
        ExpectBatchEquivalent(scalar, batched,
                              "shape=" + std::to_string(shape) + " exec=" +
                                  std::to_string(executor) + " batch=" +
                                  std::to_string(batch));
      }
    }
  }
}

// --- Punctuation force-split -------------------------------------------------

/// A punctuation parked mid-buffer must cut the batch short: rows before it
/// ride the batch kernel, the punctuation itself takes the scalar step, and
/// rows after it form a fresh batch. Sink output matches the scalar run
/// tuple for tuple.
TEST(BatchPunctuationSplitTest, MidBufferPunctuationForcesSplit) {
  struct RunOutput {
    std::vector<Tuple> delivered;
    ExecStats stats;
  };
  auto run = [](size_t batch_size) {
    GraphBuilder builder;
    Source* source = builder.AddSource("S", TimestampKind::kInternal, 0);
    Filter* filter =
        builder.AddFilter("F", [](const Tuple& t) {
          return t.value(0).AsDouble() >= 0.0;
        });
    filter->set_required_numeric_field(0);
    filter->set_compare_spec(0, FilterCmp::kGe, 0.0);
    Sink* sink = builder.AddSink("OUT");
    builder.Connect(source, filter);
    builder.Connect(filter, sink);
    auto built = builder.Build();
    DSMS_CHECK_OK(built.status());
    auto graph = std::move(built).value();
    sink->set_collect(true);

    VirtualClock clock;
    ExecConfig config;
    config.costs = ZeroCosts();
    config.batch_size = batch_size;
    DfsExecutor executor(graph.get(), &clock, config);

    // 5 data tuples, a punctuation, 5 more — all buffered before any step,
    // so the batched drain meets the punctuation mid-buffer.
    for (int64_t i = 0; i < 5; ++i) {
      clock.AdvanceTo(i * kMillisecond);
      source->Ingest({Value(i)}, clock.now());
    }
    source->InjectPunctuation(clock.now());
    for (int64_t i = 5; i < 10; ++i) {
      clock.AdvanceTo(i * kMillisecond);
      source->Ingest({Value(i)}, clock.now());
    }
    executor.RunUntilIdle();
    return RunOutput{sink->collected(), executor.stats()};
  };

  RunOutput scalar = run(0);
  RunOutput batched = run(256);

  ASSERT_EQ(scalar.delivered.size(), 10u);
  ASSERT_EQ(batched.delivered.size(), 10u);
  for (size_t i = 0; i < scalar.delivered.size(); ++i) {
    EXPECT_EQ(scalar.delivered[i].timestamp(),
              batched.delivered[i].timestamp());
    ASSERT_EQ(scalar.delivered[i].num_values(),
              batched.delivered[i].num_values());
    EXPECT_EQ(scalar.delivered[i].value(0).int64_value(),
              batched.delivered[i].value(0).int64_value());
  }

  // The filter saw two batches: [0..4] stopped by the punctuation, then
  // [5..9]; the punctuation itself was a scalar step.
  EXPECT_EQ(batched.stats.batch_punct_splits, 1u);
  EXPECT_GE(batched.stats.batches, 2u);
  EXPECT_EQ(batched.stats.batch_rows, 10u);
  EXPECT_EQ(batched.stats.data_steps, scalar.stats.data_steps);
  EXPECT_EQ(batched.stats.punctuation_steps, scalar.stats.punctuation_steps);
  EXPECT_EQ(scalar.stats.batches, 0u);
}

// --- DrainIntoBatch contract -------------------------------------------------

Tuple Data(Timestamp ts) { return Tuple::MakeData(ts, {Value(ts)}); }

TEST(DrainIntoBatchTest, StopsAtPunctuationAndFlagsSplit) {
  StreamBuffer buffer("arc");
  ASSERT_TRUE(buffer.Push(Data(1)));
  ASSERT_TRUE(buffer.Push(Data(2)));
  ASSERT_TRUE(buffer.Push(Tuple::MakePunctuation(3)));
  ASSERT_TRUE(buffer.Push(Data(4)));

  ColumnBatch batch;
  bool split = false;
  EXPECT_EQ(buffer.DrainIntoBatch(&batch, 16, &split), 2u);
  EXPECT_TRUE(split);  // rows were taken, then a punctuation stopped us
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.timestamps()[0], 1);
  EXPECT_EQ(batch.timestamps()[1], 2);
  ASSERT_FALSE(buffer.empty());
  EXPECT_TRUE(buffer.Front().is_punctuation());

  // Punctuation at the front: nothing drained, and that is NOT a split —
  // the scalar path handles it without a batch ever existing.
  batch.Clear();
  EXPECT_EQ(buffer.DrainIntoBatch(&batch, 16, &split), 0u);
  EXPECT_FALSE(split);
  EXPECT_EQ(batch.size(), 0u);
}

TEST(DrainIntoBatchTest, HonorsMaxRows) {
  StreamBuffer buffer("arc");
  for (Timestamp ts = 0; ts < 10; ++ts) ASSERT_TRUE(buffer.Push(Data(ts)));

  ColumnBatch batch;
  bool split = true;
  EXPECT_EQ(buffer.DrainIntoBatch(&batch, 4, &split), 4u);
  EXPECT_FALSE(split);  // stopped by max_rows, not punctuation
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(buffer.size(), 6u);
}

TEST(ColumnBatchTest, NumericColumnExtractionAndCacheInvalidation) {
  ColumnBatch batch;
  batch.Append(Tuple::MakeData(10, {Value(int64_t{7}), Value(2.5)}));
  batch.Append(Tuple::MakeData(20, {Value(int64_t{9}), Value(3.5)}));

  const double* col0 = batch.NumericColumn(0);
  ASSERT_NE(col0, nullptr);
  EXPECT_DOUBLE_EQ(col0[0], 7.0);
  EXPECT_DOUBLE_EQ(col0[1], 9.0);
  const double* col1 = batch.NumericColumn(1);
  ASSERT_NE(col1, nullptr);
  EXPECT_DOUBLE_EQ(col1[1], 3.5);
  // Out-of-bounds and repeated requests behave.
  EXPECT_EQ(batch.NumericColumn(5), nullptr);
  EXPECT_EQ(batch.NumericColumn(0), col0);

  batch.Clear();
  EXPECT_EQ(batch.size(), 0u);
  batch.Append(Tuple::MakeData(30, {Value(int64_t{-1})}));
  const double* fresh = batch.NumericColumn(0);
  ASSERT_NE(fresh, nullptr);
  EXPECT_DOUBLE_EQ(fresh[0], -1.0);  // no stale cache from before Clear()

  // String columns refuse vectorization (the kernel falls back row-wise).
  batch.Clear();
  batch.Append(Tuple::MakeData(40, {Value(std::string("s"))}));
  EXPECT_EQ(batch.NumericColumn(0), nullptr);
}

}  // namespace
}  // namespace dsms
