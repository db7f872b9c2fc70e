// Sharded multicore execution engine (exec/sharded_executor.h): the static
// partitioner's homing rules, the deterministic mode's byte-identity to the
// scalar DFS schedule, checkpoint state round-trips, seed reproducibility
// of sharded runs, and the parallel mode's conservation/ordering contract
// (identical delivery, zero order violations — the schedule itself is
// free-running and deliberately not byte-compared).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/clock.h"
#include "common/time.h"
#include "core/tuple.h"
#include "exec/dfs_executor.h"
#include "exec/shard_partitioner.h"
#include "exec/sharded_executor.h"
#include "graph/graph_builder.h"
#include "graph/query_graph.h"
#include "obs/metrics_registry.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/union_op.h"
#include "recovery/state_codec.h"
#include "sim/scenario.h"
#include "test_seed.h"

namespace dsms {
namespace {

// --- ShardPartitioner --------------------------------------------------------

/// The paper's union graph: S1 -> F1 and S2 -> F2 into U -> OUT.
struct UnionRig {
  explicit UnionRig(ExecConfig config) {
    GraphBuilder builder;
    s1 = builder.AddSource("S1", TimestampKind::kInternal);
    s2 = builder.AddSource("S2", TimestampKind::kInternal);
    f1 = builder.AddFilter("F1", [](const Tuple&) { return true; });
    f2 = builder.AddFilter("F2", [](const Tuple&) { return true; });
    u = builder.AddUnion("U");
    sink = builder.AddSink("OUT");
    builder.Connect(s1, f1);
    builder.Connect(s2, f2);
    builder.Connect(f1, u);
    builder.Connect(f2, u);
    builder.Connect(u, sink);
    auto built = builder.Build();
    DSMS_CHECK_OK(built.status());
    graph = std::move(built).value();
    sink->set_collect(true);
    if (config.shards > 1) {
      executor = std::make_unique<ShardedExecutor>(graph.get(), &clock,
                                                   config);
    } else {
      executor = std::make_unique<DfsExecutor>(graph.get(), &clock, config);
    }
  }

  std::unique_ptr<QueryGraph> graph;
  VirtualClock clock;
  Source* s1;
  Source* s2;
  Filter* f1;
  Filter* f2;
  Union* u;
  Sink* sink;
  std::unique_ptr<Executor> executor;
};

ExecConfig ShardedConfig(int shards, ShardMode mode, uint64_t seed = 42) {
  ExecConfig config;
  config.ets.mode = EtsMode::kOnDemand;
  config.shards = shards;
  config.shard_mode = mode;
  config.shard_seed = seed;
  return config;
}

TEST(ShardPartitionerTest, HashStreamIsTheDocumentedFnv1a) {
  // The hash is part of the deterministic-replay contract (checkpoints
  // partition-by-value), so the exact FNV-1a fold is pinned here.
  auto fnv = [](int32_t id) {
    uint32_t hash = 2166136261u;
    uint32_t bytes = static_cast<uint32_t>(id);
    for (int i = 0; i < 4; ++i) {
      hash ^= (bytes >> (8 * i)) & 0xffu;
      hash *= 16777619u;
    }
    return hash;
  };
  for (int32_t id : {0, 1, 2, 3, 7, 100, -1}) {
    EXPECT_EQ(ShardPartitioner::HashStream(id), fnv(id)) << id;
  }
}

TEST(ShardPartitionerTest, SingleShardHomesEverythingOnShardZero) {
  UnionRig rig{ShardedConfig(2, ShardMode::kDeterministic)};
  ShardPlan plan = ShardPartitioner::Partition(*rig.graph, 1);
  EXPECT_EQ(plan.num_shards, 1);
  for (int op = 0; op < rig.graph->num_operators(); ++op) {
    EXPECT_EQ(plan.shard_of(op), 0) << op;
  }
  EXPECT_TRUE(plan.cross_arcs.empty());
  ASSERT_EQ(plan.shard_ops.size(), 1u);
  EXPECT_EQ(plan.shard_ops[0].size(),
            static_cast<size_t>(rig.graph->num_operators()));
}

TEST(ShardPartitionerTest, FirstInputLineageHomesTheUnionWithInputZero) {
  UnionRig rig{ShardedConfig(4, ShardMode::kDeterministic)};
  ShardPlan plan = ShardPartitioner::Partition(*rig.graph, 4);

  // Sources anchor: hash(stream_id) mod N.
  EXPECT_EQ(plan.shard_of(rig.s1->id()),
            static_cast<int>(ShardPartitioner::HashStream(
                                 rig.s1->stream_id()) % 4u));
  EXPECT_EQ(plan.shard_of(rig.s2->id()),
            static_cast<int>(ShardPartitioner::HashStream(
                                 rig.s2->stream_id()) % 4u));

  // Filters ride their only input; the fan-in is homed with input 0 (F1's
  // chain), the sink with the union.
  EXPECT_EQ(plan.shard_of(rig.f1->id()), plan.shard_of(rig.s1->id()));
  EXPECT_EQ(plan.shard_of(rig.f2->id()), plan.shard_of(rig.s2->id()));
  EXPECT_EQ(plan.shard_of(rig.u->id()), plan.shard_of(rig.f1->id()));
  EXPECT_EQ(plan.shard_of(rig.sink->id()), plan.shard_of(rig.u->id()));

  // Exactly the arcs whose endpoints landed on different shards are cross
  // arcs; with S1 and S2 on different shards that is precisely F2 -> U.
  ASSERT_EQ(plan.arc_crosses.size(),
            static_cast<size_t>(rig.graph->num_buffers()));
  for (int arc = 0; arc < rig.graph->num_buffers(); ++arc) {
    const bool crosses = plan.shard_of(rig.graph->producer_of(arc)) !=
                         plan.shard_of(rig.graph->consumer_of(arc));
    EXPECT_EQ(plan.ArcCrossesShards(arc), crosses) << arc;
  }
  if (plan.shard_of(rig.s1->id()) != plan.shard_of(rig.s2->id())) {
    ASSERT_EQ(plan.cross_arcs.size(), 1u);
    EXPECT_EQ(rig.graph->consumer_of(plan.cross_arcs[0]), rig.u->id());
    EXPECT_EQ(rig.graph->producer_of(plan.cross_arcs[0]), rig.f2->id());
  }
}

TEST(ShardPartitionerTest, UpstreamStreamsIsTheCouldResultInClosure) {
  UnionRig rig{ShardedConfig(2, ShardMode::kDeterministic)};
  ShardPlan plan = ShardPartitioner::Partition(*rig.graph, 2);

  using Streams = std::vector<int32_t>;
  const int32_t a = rig.s1->stream_id();
  const int32_t b = rig.s2->stream_id();
  EXPECT_EQ(plan.upstream_streams[rig.s1->id()], Streams({a}));
  EXPECT_EQ(plan.upstream_streams[rig.f1->id()], Streams({a}));
  EXPECT_EQ(plan.upstream_streams[rig.f2->id()], Streams({b}));
  EXPECT_EQ(plan.upstream_streams[rig.u->id()], Streams({a, b}));
  EXPECT_EQ(plan.upstream_streams[rig.sink->id()], Streams({a, b}));
}

TEST(ShardPartitionerTest, ShardOpsAreAscendingAndPartitionTheGraph) {
  UnionRig rig{ShardedConfig(3, ShardMode::kDeterministic)};
  ShardPlan plan = ShardPartitioner::Partition(*rig.graph, 3);
  size_t total = 0;
  for (int shard = 0; shard < plan.num_shards; ++shard) {
    const std::vector<int>& ops = plan.shard_ops[shard];
    total += ops.size();
    for (size_t i = 0; i + 1 < ops.size(); ++i) {
      EXPECT_LT(ops[i], ops[i + 1]);
    }
    for (int op : ops) EXPECT_EQ(plan.shard_of(op), shard);
  }
  EXPECT_EQ(total, static_cast<size_t>(rig.graph->num_operators()));
}

// --- Deterministic mode ------------------------------------------------------

TEST(ShardedExecutorTest, DeterministicDeliveryMatchesScalarDfs) {
  UnionRig scalar{ShardedConfig(1, ShardMode::kDeterministic)};
  UnionRig sharded{ShardedConfig(4, ShardMode::kDeterministic)};

  auto feed = [](UnionRig* rig) {
    for (int i = 0; i < 50; ++i) {
      rig->clock.Advance(20 * kMillisecond);
      rig->s1->Ingest({Value(int64_t{i})}, rig->clock.now());
      if (i % 10 == 0) {
        rig->s2->Ingest({Value(int64_t{1000 + i})}, rig->clock.now());
      }
    }
    rig->executor->RunUntilIdle();
  };
  feed(&scalar);
  feed(&sharded);

  ASSERT_EQ(sharded.sink->collected().size(), scalar.sink->collected().size());
  for (size_t i = 0; i < scalar.sink->collected().size(); ++i) {
    EXPECT_EQ(sharded.sink->collected()[i].timestamp(),
              scalar.sink->collected()[i].timestamp())
        << i;
  }
  EXPECT_TRUE(sharded.executor->stats() == scalar.executor->stats());
  EXPECT_EQ(scalar.clock.now(), sharded.clock.now());

  auto* exec = static_cast<ShardedExecutor*>(sharded.executor.get());
  EXPECT_EQ(exec->num_shards(), 4);
  EXPECT_GT(exec->epochs(), 0u);
  // Work happened on the shards the plan homed the operators on.
  uint64_t steps = 0;
  for (int shard = 0; shard < 4; ++shard) steps += exec->shard_steps(shard);
  EXPECT_GT(steps, 0u);
}

TEST(ShardedExecutorTest, HopsCountOnlyCrossShardTransitions) {
  UnionRig rig{ShardedConfig(4, ShardMode::kDeterministic)};
  auto* exec = static_cast<ShardedExecutor*>(rig.executor.get());
  const ShardPlan& plan = exec->plan();
  for (int i = 0; i < 20; ++i) {
    rig.clock.Advance(20 * kMillisecond);
    rig.s1->Ingest({Value(int64_t{i})}, rig.clock.now());
    rig.s2->Ingest({Value(int64_t{100 + i})}, rig.clock.now());
  }
  rig.executor->RunUntilIdle();
  if (plan.cross_arcs.empty()) {
    EXPECT_EQ(exec->shard_hops(), 0u);
  } else {
    EXPECT_GT(exec->shard_hops(), 0u);
  }
}

// --- Checkpoint state --------------------------------------------------------

TEST(ShardedExecutorTest, StateRoundTripsThroughSaveAndLoad) {
  UnionRig a{ShardedConfig(2, ShardMode::kDeterministic)};
  for (int i = 0; i < 30; ++i) {
    a.clock.Advance(20 * kMillisecond);
    a.s1->Ingest({Value(int64_t{i})}, a.clock.now());
    a.s2->Ingest({Value(int64_t{500 + i})}, a.clock.now());
  }
  a.executor->RunUntilIdle();
  auto* exec_a = static_cast<ShardedExecutor*>(a.executor.get());
  ASSERT_GT(exec_a->epochs(), 0u);

  StateWriter w;
  a.executor->SaveState(w);
  const std::string blob = w.Take();

  UnionRig b{ShardedConfig(2, ShardMode::kDeterministic)};
  StateReader r(blob);
  b.executor->LoadState(r);
  EXPECT_TRUE(r.ok());

  auto* exec_b = static_cast<ShardedExecutor*>(b.executor.get());
  EXPECT_TRUE(exec_b->stats() == exec_a->stats());
  EXPECT_EQ(exec_b->epochs(), exec_a->epochs());
  EXPECT_EQ(exec_b->shard_hops(), exec_a->shard_hops());
  EXPECT_EQ(exec_b->current(), exec_a->current());
  for (int shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(exec_b->shard_steps(shard), exec_a->shard_steps(shard))
        << shard;
  }
}

TEST(ShardedExecutorDeathTest, RestoreRejectsShardCountMismatch) {
  UnionRig a{ShardedConfig(2, ShardMode::kDeterministic)};
  a.s1->Ingest({Value(int64_t{1})}, a.clock.now());
  a.executor->RunUntilIdle();
  StateWriter w;
  a.executor->SaveState(w);
  const std::string blob = w.Take();

  // A shards=2 blob must not restore into a shards=4 engine: the schedule
  // it encodes partitions differently.
  UnionRig b{ShardedConfig(4, ShardMode::kDeterministic)};
  EXPECT_DEATH(
      {
        StateReader r(blob);
        b.executor->LoadState(r);
      },
      "");
}

// --- Seed reproducibility (DSMS_TEST_SEED) -----------------------------------

TEST(ShardedExecutorTest, SameSeedSameShardsReproducesTheTraceExactly) {
  const uint64_t seed = test::TestSeedOr(42);
  DSMS_TRACE_SEED(seed);

  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.run.horizon = 90 * kSecond;
  config.run.warmup = 0;
  config.seed = seed;
  config.run.shards = 4;
  config.record_trace = true;

  ScenarioResult first = RunScenario(config);
  ScenarioResult second = RunScenario(config);
  ASSERT_GT(first.trace_events, 0u);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.trace_events, second.trace_events);
  EXPECT_EQ(first.sink_digest, second.sink_digest);
  EXPECT_EQ(first.report.shard_hops, second.report.shard_hops);
  EXPECT_EQ(first.report.shard_epochs, second.report.shard_epochs);
}

// --- Parallel mode -----------------------------------------------------------

/// The parallel contract is conservation and order, not schedule identity:
/// a free-running run must deliver exactly the tuples the deterministic
/// schedule delivers, in timestamp order at the sink, and terminate.
TEST(ShardedExecutorTest, ParallelDeliversTheSameTuplesInOrder) {
  for (int shape = 0; shape < 2; ++shape) {  // union, join
    ScenarioConfig config;
    config.kind = ScenarioKind::kOnDemandEts;
    config.shape = static_cast<QueryShape>(shape);
    config.run.horizon = 90 * kSecond;
    config.run.warmup = 0;
    config.run.shards = 4;

    ScenarioResult oracle = RunScenario(config);  // deterministic mode

    config.run.shard_mode = ShardMode::kParallel;
    ScenarioResult parallel = RunScenario(config);

    const std::string label = "shape=" + std::to_string(shape);
    EXPECT_EQ(parallel.tuples_delivered, oracle.tuples_delivered) << label;
    EXPECT_EQ(parallel.order_violations, 0u) << label;
    EXPECT_EQ(parallel.report.buffer_order_violations, 0u) << label;
    EXPECT_EQ(parallel.report.shards_used, 4u) << label;
    EXPECT_GT(parallel.report.shard_epochs, 0u) << label;
  }
}

TEST(ShardedExecutorTest, ParallelSurvivesSourceFlap) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.run.horizon = 90 * kSecond;
  config.run.warmup = 0;
  config.run.shards = 4;
  config.run.shard_mode = ShardMode::kParallel;
  config.fault.kind = FaultKind::kFlap;
  config.fault.start = 30 * kSecond;
  config.fault.duration = 30 * kSecond;
  config.fault.punct_period = 10 * kSecond;
  config.fault_target = 0;
  config.run.lease = 5 * kSecond;

  ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.tuples_delivered, 0u);
  EXPECT_EQ(result.order_violations, 0u);
  EXPECT_GT(result.report.fault_events, 0u);
}

TEST(ShardedExecutorTest, ParallelSameSeedDeliversIdenticalSinkDigest) {
  const uint64_t seed = test::TestSeedOr(42);
  DSMS_TRACE_SEED(seed);

  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.run.horizon = 60 * kSecond;
  config.run.warmup = 0;
  config.seed = seed;
  config.run.shards = 2;
  config.run.shard_mode = ShardMode::kParallel;

  // The tuple *content* stream is seed-determined even though the parallel
  // schedule is not: both runs must deliver the same multiset, and the IWP
  // sink discipline makes it the same order — hence the same digest.
  ScenarioResult first = RunScenario(config);
  ScenarioResult second = RunScenario(config);
  EXPECT_EQ(first.tuples_delivered, second.tuples_delivered);
  EXPECT_EQ(first.sink_digest, second.sink_digest);
}

// --- Metrics -----------------------------------------------------------------

TEST(ShardedExecutorTest, ShardMetricsLandInTheRegistry) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.run.horizon = 60 * kSecond;
  config.run.warmup = 0;
  config.run.shards = 2;

  ScenarioResult result = RunScenario(config);
  MetricsRegistry registry;
  result.report.PublishTo(&registry);
  EXPECT_EQ(registry.GetGauge("exec.shard.shards")->value(), 2.0);
  EXPECT_EQ(registry.GetCounter("exec.shard.epochs")->value(),
            result.report.shard_epochs);
  EXPECT_EQ(registry.GetCounter("exec.shard.hops")->value(),
            result.report.shard_hops);
}

}  // namespace
}  // namespace dsms
