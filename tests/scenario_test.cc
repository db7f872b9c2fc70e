#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/time.h"
#include "sim/scenario.h"
#include "test_seed.h"

namespace dsms {
namespace {

ScenarioConfig ShortConfig(ScenarioKind kind) {
  ScenarioConfig config;
  config.kind = kind;
  config.run.horizon = 120 * kSecond;
  config.run.warmup = 10 * kSecond;
  if (kind == ScenarioKind::kPeriodicEts) config.heartbeat_rate = 10.0;
  return config;
}

TEST(ScenarioTest, LatencyOrderingMatchesPaper) {
  // Figure 7: A >> B > C ~ D (log scale).
  ScenarioResult a = RunScenario(ShortConfig(ScenarioKind::kNoEts));
  ScenarioResult b = RunScenario(ShortConfig(ScenarioKind::kPeriodicEts));
  ScenarioResult c = RunScenario(ShortConfig(ScenarioKind::kOnDemandEts));
  ScenarioResult d = RunScenario(ShortConfig(ScenarioKind::kLatent));

  EXPECT_GT(a.mean_latency_ms, 1000.0);            // seconds
  EXPECT_GT(a.mean_latency_ms, 10 * b.mean_latency_ms);
  EXPECT_GT(b.mean_latency_ms, 10 * c.mean_latency_ms);
  EXPECT_GE(c.mean_latency_ms, d.mean_latency_ms);
  EXPECT_LT(c.mean_latency_ms, 1.0);               // sub-millisecond
  // Figure 7(b): C − D is a fraction of a millisecond.
  EXPECT_LT(c.mean_latency_ms - d.mean_latency_ms, 0.5);
}

TEST(ScenarioTest, MemoryOrderingMatchesPaper) {
  // Figure 8: A in the thousands; C orders of magnitude lower.
  ScenarioResult a = RunScenario(ShortConfig(ScenarioKind::kNoEts));
  ScenarioResult c = RunScenario(ShortConfig(ScenarioKind::kOnDemandEts));
  EXPECT_GT(a.report.peak_queue_total, 500);
  EXPECT_LT(c.report.peak_queue_total, 20);
  EXPECT_GT(a.report.peak_queue_total, 50 * c.report.peak_queue_total);
}

TEST(ScenarioTest, IdleWaitingMatchesPaperText) {
  // Section 6: A ~99% idle, C < ~1%.
  ScenarioResult a = RunScenario(ShortConfig(ScenarioKind::kNoEts));
  ScenarioResult c = RunScenario(ShortConfig(ScenarioKind::kOnDemandEts));
  ScenarioResult d = RunScenario(ShortConfig(ScenarioKind::kLatent));
  EXPECT_GT(a.idle_fraction, 0.9);
  EXPECT_LT(c.idle_fraction, 0.01);
  EXPECT_DOUBLE_EQ(d.idle_fraction, 0.0);
}

TEST(ScenarioTest, EtsCountsConsistent) {
  ScenarioResult c = RunScenario(ShortConfig(ScenarioKind::kOnDemandEts));
  EXPECT_GT(c.report.ets_generated, 100u);
  EXPECT_GE(c.report.exec.punctuation_steps,
            c.report.ets_generated);  // each ETS is processed
  ScenarioResult a = RunScenario(ShortConfig(ScenarioKind::kNoEts));
  EXPECT_EQ(a.report.ets_generated, 0u);
  EXPECT_EQ(a.report.exec.punctuation_steps, 0u);
}

TEST(ScenarioTest, DeterministicPerSeed) {
  ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
  ScenarioResult r1 = RunScenario(config);
  ScenarioResult r2 = RunScenario(config);
  EXPECT_DOUBLE_EQ(r1.mean_latency_ms, r2.mean_latency_ms);
  EXPECT_EQ(r1.tuples_delivered, r2.tuples_delivered);
  EXPECT_EQ(r1.report.ets_generated, r2.report.ets_generated);
  config.seed = 43;
  ScenarioResult r3 = RunScenario(config);
  EXPECT_NE(r1.tuples_delivered, r3.tuples_delivered);
}

TEST(ScenarioTest, HigherHeartbeatRateLowersLatency) {
  ScenarioConfig slow_hb = ShortConfig(ScenarioKind::kPeriodicEts);
  slow_hb.heartbeat_rate = 0.5;
  ScenarioConfig fast_hb = ShortConfig(ScenarioKind::kPeriodicEts);
  fast_hb.heartbeat_rate = 50.0;
  ScenarioResult slow = RunScenario(slow_hb);
  ScenarioResult fast = RunScenario(fast_hb);
  EXPECT_GT(slow.mean_latency_ms, fast.mean_latency_ms * 5);
}

TEST(ScenarioTest, JoinShapeRunsAndBenefitsFromEts) {
  ScenarioConfig no_ets = ShortConfig(ScenarioKind::kNoEts);
  no_ets.shape = QueryShape::kJoin;
  ScenarioConfig on_demand = ShortConfig(ScenarioKind::kOnDemandEts);
  on_demand.shape = QueryShape::kJoin;
  ScenarioResult a = RunScenario(no_ets);
  ScenarioResult c = RunScenario(on_demand);
  EXPECT_GT(a.idle_fraction, 0.5);
  EXPECT_LT(c.idle_fraction, 0.05);
  EXPECT_GT(a.report.peak_queue_total, 10 * c.report.peak_queue_total);
}

TEST(ScenarioTest, AggregateShapeEmissionDelayDropsWithEts) {
  ScenarioConfig no_ets = ShortConfig(ScenarioKind::kNoEts);
  no_ets.shape = QueryShape::kAggregate;
  no_ets.slow_rate = 0.05;
  ScenarioConfig on_demand = ShortConfig(ScenarioKind::kOnDemandEts);
  on_demand.shape = QueryShape::kAggregate;
  on_demand.slow_rate = 0.05;
  ScenarioResult a = RunScenario(no_ets);
  ScenarioResult c = RunScenario(on_demand);
  // Without punctuation a window's result waits for the next (rare) tuple;
  // on-demand ETS closes windows promptly.
  EXPECT_GT(a.mean_latency_ms, 100.0);
  EXPECT_LT(c.mean_latency_ms, a.mean_latency_ms / 10);
  EXPECT_GE(c.tuples_delivered, a.tuples_delivered);
}

TEST(ScenarioTest, ExternalTimestampsWork) {
  ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
  config.ts_kind = TimestampKind::kExternal;
  config.skew_bound = 50 * kMillisecond;
  ScenarioResult c = RunScenario(config);
  EXPECT_GT(c.tuples_delivered, 1000u);
  EXPECT_GT(c.report.ets_generated, 0u);
  // Latency bounded by roughly the skew bound plus processing.
  EXPECT_LT(c.mean_latency_ms, 200.0);
}

TEST(ScenarioTest, RoundRobinExecutorRuns) {
  ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
  config.run.executor = ExecutorKind::kRoundRobin;
  ScenarioResult rr = RunScenario(config);
  EXPECT_GT(rr.tuples_delivered, 1000u);
  EXPECT_LT(rr.mean_latency_ms, 10.0);
}

TEST(ScenarioTest, NaryUnionFanIn) {
  ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
  config.num_slow_streams = 4;
  ScenarioResult c = RunScenario(config);
  EXPECT_GT(c.tuples_delivered, 1000u);
  EXPECT_LT(c.mean_latency_ms, 5.0);
}

TEST(ScenarioTest, BurstyArrivalsStillFast) {
  ScenarioConfig config = ShortConfig(ScenarioKind::kOnDemandEts);
  config.arrivals = ArrivalKind::kBursty;
  ScenarioResult c = RunScenario(config);
  EXPECT_GT(c.tuples_delivered, 100u);
  EXPECT_LT(c.mean_latency_ms, 10.0);
}

TEST(ScenarioTest, ToStringMentionsKeyFields) {
  ScenarioResult r = RunScenario(ShortConfig(ScenarioKind::kLatent));
  std::string s = r.ToString();
  EXPECT_NE(s.find("latency"), std::string::npos);
  EXPECT_NE(s.find("peak_queue"), std::string::npos);
}

class ScenarioInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ScenarioInvariantTest, NoOrderViolationsAnywhere) {
  auto [kind_index, shape_index] = GetParam();
  ScenarioConfig config;
  config.kind = static_cast<ScenarioKind>(kind_index);
  config.shape = static_cast<QueryShape>(shape_index);
  config.run.horizon = 60 * kSecond;
  config.run.warmup = 5 * kSecond;
  if (config.kind == ScenarioKind::kPeriodicEts) config.heartbeat_rate = 5.0;
  ScenarioResult r = RunScenario(config);
  EXPECT_EQ(r.order_violations, 0u)
      << ScenarioKindToString(config.kind) << " shape " << shape_index;
  EXPECT_EQ(r.report.buffer_order_violations, 0u)
      << ScenarioKindToString(config.kind) << " shape " << shape_index;
}

INSTANTIATE_TEST_SUITE_P(AllKindsAllShapes, ScenarioInvariantTest,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1, 2)));

// --- Golden pins -------------------------------------------------------------

/// One row of the golden matrix: a variation of the short C:on-demand (or
/// other kind) union run, and the digests it produced when pinned. The
/// digests are the behavioural contract of RunScenario: sink bytes, every
/// buffer push/pop in order, and the delivered count.
struct GoldenCase {
  const char* name;
  ScenarioKind kind;
  std::function<void(ScenarioConfig*)> vary;
  uint64_t sink_digest;
  uint64_t trace_hash;
  uint64_t trace_events;
  uint64_t tuples_delivered;
};

constexpr uint64_t kGoldenSeed = 42;

std::string GoldenSpillDir() {
  return ::testing::TempDir() + "/dsms_scenario_golden_spill";
}

std::vector<GoldenCase> GoldenCases() {
  const ScenarioKind a = ScenarioKind::kNoEts;
  const ScenarioKind b = ScenarioKind::kPeriodicEts;
  const ScenarioKind c = ScenarioKind::kOnDemandEts;
  const ScenarioKind d = ScenarioKind::kLatent;
  auto same = [](ScenarioConfig*) {};
  // Columns: name, kind, variation, sink_digest, trace_hash, trace_events,
  // tuples_delivered.
  return {
      {"UnionA", a, same,
       0x639fd8d165741b11ULL, 0x3bc997f788c59ee2ULL, 34093u, 5291u},
      {"UnionB", b, same,
       0x7b9834d52a9c704dULL, 0xd041d0222a13c205ULL, 40217u, 5275u},
      {"UnionC", c, same,
       0x61c58607b0aa01c0ULL, 0xe61c4cc0453bf98aULL, 58586u, 5276u},
      {"UnionD", d, same,
       0x6e87cfa8605df18dULL, 0x4845d6e27a83c3e6ULL, 35434u, 5276u},
      {"JoinC", c, [](ScenarioConfig* x) { x->shape = QueryShape::kJoin; },
       0x89a7e5fbac127794ULL, 0x57158f47e603542aULL, 59914u, 1132u},
      {"AggregateC", c,
       [](ScenarioConfig* x) { x->shape = QueryShape::kAggregate; },
       0xcc28ef1f606cc15cULL, 0x59704342d7e5518aULL, 13234u, 110u},
      {"RoundRobinC", c,
       [](ScenarioConfig* x) { x->run.executor = ExecutorKind::kRoundRobin; },
       0x54d1f7dd0680296cULL, 0x7bab1d4f1b6db361ULL, 58596u, 5276u},
      {"GreedyC", c,
       [](ScenarioConfig* x) {
         x->run.executor = ExecutorKind::kGreedyMemory;
       },
       0xe674be431bad4b00ULL, 0xf7590a30916cfc92ULL, 58586u, 5276u},
      {"Batch7C", c, [](ScenarioConfig* x) { x->run.batch = 7; },
       0x61c58607b0aa01c0ULL, 0xe61c4cc0453bf98aULL, 58586u, 5276u},
      {"Shards4C", c, [](ScenarioConfig* x) {
         x->run.shards = 4;
         x->run.shard_mode = ShardMode::kDeterministic;
       },
       0x61c58607b0aa01c0ULL, 0xe61c4cc0453bf98aULL, 58586u, 5276u},
      {"JoinSpillC", c, [](ScenarioConfig* x) {
         x->shape = QueryShape::kJoin;
         x->storage.spill_dir = GoldenSpillDir();
         x->storage.mem_budget = 1;
       },
       0x89a7e5fbac127794ULL, 0x57158f47e603542aULL, 59914u, 1132u},
      {"DeathLeaseA", a, [](ScenarioConfig* x) {
         x->fault.kind = FaultKind::kDeath;
         x->fault.start = 30 * kSecond;
         x->fault_target = 1;
         x->run.lease = 5 * kSecond;
       },
       0xbc50a1d615159101ULL, 0x4d736e349a2e40eeULL, 35041u, 5323u},
  };
}

class ScenarioGoldenTest : public ::testing::TestWithParam<size_t> {};

/// At the default seed every row must reproduce its pinned digests exactly;
/// a replay seed (DSMS_TEST_SEED) has no pins, so the run must instead be
/// deterministic and order-clean.
TEST_P(ScenarioGoldenTest, DigestsMatchPins) {
  const GoldenCase golden = GoldenCases()[GetParam()];
  const uint64_t seed = test::TestSeedOr(kGoldenSeed);
  DSMS_TRACE_SEED(seed);
  ScenarioConfig config = ShortConfig(golden.kind);
  config.record_trace = true;
  config.seed = seed;
  golden.vary(&config);

  ScenarioResult result = RunScenario(config);
  EXPECT_EQ(result.order_violations, 0u);
  if (seed == kGoldenSeed) {
    EXPECT_EQ(result.sink_digest, golden.sink_digest);
    EXPECT_EQ(result.trace_hash, golden.trace_hash);
    EXPECT_EQ(result.trace_events, golden.trace_events);
    EXPECT_EQ(result.tuples_delivered, golden.tuples_delivered);
  } else {
    ScenarioResult again = RunScenario(config);
    EXPECT_EQ(result.sink_digest, again.sink_digest);
    EXPECT_EQ(result.trace_hash, again.trace_hash);
    EXPECT_EQ(result.trace_events, again.trace_events);
    EXPECT_EQ(result.tuples_delivered, again.tuples_delivered);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ScenarioGoldenTest, ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(GoldenCases()[info.param].name);
    });

TEST(ScenarioKindTest, Names) {
  EXPECT_STREQ(ScenarioKindToString(ScenarioKind::kNoEts), "A:no-ets");
  EXPECT_STREQ(ScenarioKindToString(ScenarioKind::kLatent), "D:latent");
}

}  // namespace
}  // namespace dsms
