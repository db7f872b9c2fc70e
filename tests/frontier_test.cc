// FrontierTracker: the lease/lifecycle unit contract, golden pins of the
// lease path across the chaos matrix (captured from the retired
// per-executor silence check, which the tracker matched bit for bit), and
// the headline chaos scenarios of the frontier coordination service — a
// flapping source absorbed by quarantine and re-admission, and a run with
// three simultaneously misbehaving sources that still completes with the
// frontier advancing.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/time.h"
#include "core/stream_buffer.h"
#include "frontier/frontier_tracker.h"
#include "operators/source.h"
#include "recovery/state_codec.h"
#include "sim/fault_injector.h"
#include "sim/scenario.h"
#include "test_seed.h"

namespace dsms {
namespace {

// --- Lifecycle unit contract -------------------------------------------------

class TrackerLifecycleTest : public ::testing::Test {
 protected:
  TrackerLifecycleTest() : source_("S", /*stream_id=*/7,
                                   TimestampKind::kInternal) {
    tracker_.set_clock(&clock_);
    tracker_.Register(&source_);
  }

  VirtualClock clock_;
  FrontierTracker tracker_;
  Source source_;
};

TEST_F(TrackerLifecycleTest, ViolationsWalkHealthySuspectQuarantined) {
  EXPECT_EQ(tracker_.health(7), SourceHealth::kHealthy);

  // Default hysteresis: 1 strike to suspect, 3 more to quarantine.
  tracker_.ReportViolation(7, FrontierViolation::kPunctuationRegression);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kSuspect);
  tracker_.ReportViolation(7, FrontierViolation::kSkewViolation);
  tracker_.ReportViolation(7, FrontierViolation::kTimestampDisorder);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kSuspect);
  tracker_.ReportViolation(7, FrontierViolation::kFlappingRevival);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kQuarantined);

  EXPECT_EQ(tracker_.violations(), 4u);
  EXPECT_EQ(tracker_.quarantines(), 1u);
  EXPECT_EQ(tracker_.CountInState(SourceHealth::kQuarantined), 1u);
}

TEST_F(TrackerLifecycleTest, CleanWindowsReadmitThenHealWithProbation) {
  LeasePolicy policy;
  policy.readmit_after = 10 * kSecond;
  policy.probation = 10 * kSecond;
  tracker_.set_policy(policy);

  for (int i = 0; i < 4; ++i) {
    tracker_.ReportViolation(7, FrontierViolation::kFlappingRevival);
  }
  ASSERT_EQ(tracker_.health(7), SourceHealth::kQuarantined);

  // One microsecond short of the clean window: still quarantined.
  tracker_.Poll(10 * kSecond - 1);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kQuarantined);
  tracker_.Poll(10 * kSecond);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kReadmitted);
  tracker_.Poll(20 * kSecond - 1);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kReadmitted);
  tracker_.Poll(20 * kSecond);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kHealthy);

  // Hysteresis the other way: a single strike on probation re-quarantines.
  for (int i = 0; i < 4; ++i) {
    tracker_.ReportViolation(7, FrontierViolation::kFlappingRevival);
  }
  ASSERT_EQ(tracker_.health(7), SourceHealth::kQuarantined);
  clock_.AdvanceTo(40 * kSecond);
  tracker_.Poll(clock_.now());
  ASSERT_EQ(tracker_.health(7), SourceHealth::kReadmitted);
  tracker_.ReportViolation(7, FrontierViolation::kPunctuationRegression);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kQuarantined);
  EXPECT_EQ(tracker_.quarantines(), 3u);
}

TEST_F(TrackerLifecycleTest, BenignReportsNeverStrike) {
  for (int i = 0; i < 100; ++i) tracker_.ReportBenign(7);
  EXPECT_EQ(tracker_.health(7), SourceHealth::kHealthy);
  EXPECT_EQ(tracker_.benign_reports(), 100u);
  EXPECT_EQ(tracker_.violations(), 0u);
  EXPECT_EQ(tracker_.transitions(), 0u);
}

TEST_F(TrackerLifecycleTest, RevokeExcludesAndActivityReinstates) {
  ASSERT_NE(tracker_.participant(7), nullptr);
  EXPECT_FALSE(tracker_.participant(7)->revoked);
  tracker_.Revoke(7);
  EXPECT_TRUE(tracker_.participant(7)->revoked);
  tracker_.Revoke(7);  // idempotent
  EXPECT_EQ(tracker_.revocations(), 1u);
  tracker_.NoteConnectionActivity(7);
  EXPECT_FALSE(tracker_.participant(7)->revoked);
}

TEST(TrackerFrontierTest, CheckpointFrontierExcludesUntrustedPromises) {
  VirtualClock clock;
  FrontierTracker tracker;
  tracker.set_clock(&clock);

  Source liar("LIAR", 1, TimestampKind::kInternal);
  Source honest("HONEST", 2, TimestampKind::kInternal);
  StreamBuffer liar_out("liar->x");
  StreamBuffer honest_out("honest->x");
  liar.AddOutput(&liar_out);
  honest.AddOutput(&honest_out);
  tracker.Register(&liar);
  tracker.Register(&honest);

  liar.InjectPunctuation(5 * kSecond);
  honest.InjectPunctuation(9 * kSecond);
  EXPECT_EQ(tracker.CheckpointFrontier(), 5 * kSecond);
  EXPECT_EQ(tracker.GlobalFrontier(), 5 * kSecond);

  // Quarantining the laggard releases the checkpoint frontier to the
  // slowest *trusted* promise...
  for (int i = 0; i < 4; ++i) {
    tracker.ReportViolation(1, FrontierViolation::kPunctuationRegression);
  }
  ASSERT_EQ(tracker.health(1), SourceHealth::kQuarantined);
  EXPECT_EQ(tracker.CheckpointFrontier(), 9 * kSecond);
  // ...while the metrics-facing global frontier still reports the truth.
  EXPECT_EQ(tracker.GlobalFrontier(), 5 * kSecond);

  // With no trusted participant left, fall back to min-over-all rather
  // than inventing a bound from nothing.
  for (int i = 0; i < 4; ++i) {
    tracker.ReportViolation(2, FrontierViolation::kPunctuationRegression);
  }
  EXPECT_EQ(tracker.CheckpointFrontier(), 5 * kSecond);
}

TEST(TrackerStateTest, SaveLoadRoundTripRestoresLifecycle) {
  VirtualClock clock;
  clock.AdvanceTo(42 * kSecond);
  Source source("S", 3, TimestampKind::kInternal);

  FrontierTracker a;
  a.set_clock(&clock);
  a.Register(&source);
  for (int i = 0; i < 4; ++i) {
    a.ReportViolation(3, FrontierViolation::kFlappingRevival);
  }
  a.Revoke(3);
  ASSERT_EQ(a.health(3), SourceHealth::kQuarantined);

  StateWriter w;
  a.SaveState(w);
  std::string blob = w.Take();

  FrontierTracker b;
  b.set_clock(&clock);
  b.Register(&source);
  StateReader r(blob);
  b.LoadState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);

  // A restart must not re-trust a known liar: the quarantine decision, its
  // timing, and every counter survive the round trip.
  EXPECT_EQ(b.health(3), SourceHealth::kQuarantined);
  ASSERT_NE(b.participant(3), nullptr);
  EXPECT_TRUE(b.participant(3)->revoked);
  EXPECT_EQ(b.participant(3)->violations, 4u);
  EXPECT_EQ(b.participant(3)->last_violation, 42 * kSecond);
  EXPECT_EQ(b.violations(), 4u);
  EXPECT_EQ(b.quarantines(), 1u);
  EXPECT_EQ(b.revocations(), 1u);
  // The restored participant is merged onto the registered source, not a
  // detached shadow entry.
  EXPECT_EQ(b.participant(3)->source, &source);
}

// --- Frontier golden pins ---------------------------------------------------

/// The chaos matrix configuration (tests/chaos_test.cc) with tracing on:
/// every defense armed, one fault injected.
ScenarioConfig OracleConfig(ScenarioKind scenario, FaultKind kind,
                            int executor, uint64_t seed) {
  ScenarioConfig config;
  config.kind = scenario;
  config.run.executor = static_cast<ExecutorKind>(executor);
  config.run.horizon = 90 * kSecond;
  config.run.warmup = 0;
  config.seed = seed;
  config.record_trace = true;

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
  if (kind == FaultKind::kFlap) config.fault.punct_period = 10 * kSecond;

  config.run.lease = 5 * kSecond;
  config.run.buffer_cap = 256;
  config.run.overload = OverloadPolicy::kShedOldest;
  config.run.violations = ViolationPolicy::kQuarantine;
  return config;
}

/// What the retired per-executor silence check produced for one oracle run
/// (seed 42). The tracker's lease path reproduced every one of these bit
/// for bit before the old check was deleted; the pins keep that contract.
struct FrontierPin {
  uint64_t trace_hash;
  uint64_t sink_digest;
  uint64_t trace_events;
  uint64_t lease_expired_ets;
  uint64_t data_steps;
  uint64_t backtracks;
};

constexpr uint64_t kPinnedSeed = 42;

/// [fault kind][executor]{on-demand ETS, ETS off}.
constexpr FrontierPin kFrontierPins[9][3][2] = {
    {  // None
      {{0x82cf2267b108aeb5ULL, 0x2a4c4c8fe0711440ULL,
        44660u, 0u, 13506u, 13502u},
       {0xa844b608f90ff775ULL, 0xb37e68fe2a38ee78ULL,
        26642u, 16u, 13182u, 8936u}},  // Dfs
      {{0x3caf118515bbcc9aULL, 0x1c776b62788a0b80ULL,
        44666u, 0u, 13506u, 4412u},
       {0xb42cf1fe58cf628aULL, 0xb3273e79157d9f10ULL,
        26648u, 16u, 13182u, 0u}},  // RoundRobin
      {{0x1c10912737ab895dULL, 0x76b5c2d878ab8d28ULL,
        44660u, 0u, 13506u, 4412u},
       {0x8b4c8407fcdb59a2ULL, 0xb3273e79157d9f10ULL,
        26648u, 16u, 13182u, 0u}},  // Greedy
    },
    {  // Stall
      {{0xbb080faa470dd5caULL, 0x39c7c3effad434fdULL,
        29870u, 0u, 9037u, 9033u},
       {0x5bc9c11e9a28a2b2ULL, 0xae44e20e52f3a245ULL,
        17426u, 15u, 8545u, 5851u}},  // Dfs
      {{0x37f476549bb5cbe2ULL, 0x6795ab508d77382dULL,
        29874u, 0u, 9037u, 2949u},
       {0x6bfa582702b4686eULL, 0xf784987def31555dULL,
        17430u, 15u, 8545u, 0u}},  // RoundRobin
      {{0xe8bbac57d8dea0eaULL, 0xc580c641e7a3be39ULL,
        29870u, 0u, 9037u, 2949u},
       {0x955e5255fc56c65eULL, 0xf784987def31555dULL,
        17430u, 15u, 8545u, 0u}},  // Greedy
    },
    {  // Death
      {{0xf5648dbb46c82a2aULL, 0x49686aad3b1e7cf0ULL,
        15010u, 0u, 4541u, 4541u},
       {0x1005ea4c8bab557dULL, 0x6f5e906ba19d1069ULL,
        9088u, 9u, 4511u, 3049u}},  // Dfs
      {{0x5998c826b8b0e73dULL, 0x02e4678a281dd274ULL,
        15012u, 0u, 4541u, 1482u},
       {0x5594f122e85e071dULL, 0x26550899f055863dULL,
        9088u, 9u, 4511u, 0u}},  // RoundRobin
      {{0x83204c585c7f257aULL, 0x5cd5ba9b097d9a54ULL,
        15010u, 0u, 4541u, 1482u},
       {0x6ab8da0a5f79b335ULL, 0x26550899f055863dULL,
        9088u, 9u, 4511u, 0u}},  // Greedy
    },
    {  // Burst
      {{0x86edc825128bbb1aULL, 0x841ef15290076e99ULL,
        71826u, 0u, 26917u, 18077u},
       {0x5eb9ffd23d38ec55ULL, 0xb5ce270cb17ee961ULL,
        45693u, 16u, 18825u, 14071u}},  // Dfs
      {{0xdbf7341d9b563c85ULL, 0xca72fd4682b79249ULL,
        71816u, 0u, 26917u, 4493u},
       {0x930a581f027162d5ULL, 0xec53acb25028fb19ULL,
        45701u, 16u, 18825u, 0u}},  // RoundRobin
      {{0x93fd79ac1d4473aaULL, 0x0f32430b16e4de39ULL,
        71806u, 0u, 26917u, 4493u},
       {0x9de88949b8e4d065ULL, 0xec53acb25028fb19ULL,
        45701u, 16u, 18825u, 0u}},  // Greedy
    },
    {  // Disorder
      {{0x747b09e535bf1402ULL, 0x6ea84c50d6c0fcd9ULL,
        37094u, 0u, 11217u, 11213u},
       {0x9dcc489876405b96ULL, 0x223990e37ee56cb5ULL,
        22080u, 16u, 10909u, 7402u}},  // Dfs
      {{0xab7b407f19f0ae19ULL, 0x46bea685ed055711ULL,
        37100u, 0u, 11217u, 3665u},
       {0xb41f156ff0ae6b52ULL, 0x6906ab8d4eda7855ULL,
        22084u, 16u, 10909u, 0u}},  // RoundRobin
      {{0xf62caf7e981cc44aULL, 0xa2ad887188217e31ULL,
        37094u, 0u, 11217u, 3665u},
       {0xbf690c74fd81fcdeULL, 0x6906ab8d4eda7855ULL,
        22084u, 16u, 10909u, 0u}},  // Greedy
    },
    {  // Skew
      {{0xa252772ef8d87ddaULL, 0x92a44645176cd6dbULL,
        26040u, 0u, 11149u, 12885u},
       {0x6160a123c7ff079cULL, 0xfcf213b4a6694ad1ULL,
        21396u, 16u, 10247u, 7072u}},  // Dfs
      {{0x1a971d1c31ed5635ULL, 0xe6860d7bf641690bULL,
        26040u, 0u, 11149u, 5283u},
       {0x946eb956ddb770ebULL, 0x8a7bb7f324118643ULL,
        21396u, 16u, 10247u, 0u}},  // RoundRobin
      {{0x0df80a100d9088efULL, 0x52f42577b25a9ed0ULL,
        26040u, 0u, 11149u, 5283u},
       {0x438180cfc3408df4ULL, 0x68f35b457de4b96bULL,
        21396u, 16u, 10247u, 0u}},  // Greedy
    },
    {  // DupPunct
      {{0xbb2460aea48f918dULL, 0x2a4c4c8fe0711440ULL,
        44780u, 0u, 13506u, 13532u},
       {0x04bd3452fb14e462ULL, 0xb37e68fe2a38ee78ULL,
        26772u, 16u, 13182u, 8966u}},  // Dfs
      {{0x8e05d38d54536d7aULL, 0x1c776b62788a0b80ULL,
        44786u, 0u, 13506u, 4412u},
       {0x3143ef1c083511e5ULL, 0xb3273e79157d9f10ULL,
        26774u, 16u, 13182u, 0u}},  // RoundRobin
      {{0x55e604a5b702773dULL, 0x76b5c2d878ab8d28ULL,
        44780u, 0u, 13506u, 4412u},
       {0xb93651e7e21a7d4dULL, 0xb3273e79157d9f10ULL,
        26774u, 16u, 13182u, 0u}},  // Greedy
    },
    {  // RegressPunct
      {{0x82cf2267b108aeb5ULL, 0x2a4c4c8fe0711440ULL,
        44660u, 0u, 13506u, 13502u},
       {0xa844b608f90ff775ULL, 0xb37e68fe2a38ee78ULL,
        26642u, 16u, 13182u, 8936u}},  // Dfs
      {{0x3caf118515bbcc9aULL, 0x1c776b62788a0b80ULL,
        44666u, 0u, 13506u, 4412u},
       {0xb42cf1fe58cf628aULL, 0xb3273e79157d9f10ULL,
        26648u, 16u, 13182u, 0u}},  // RoundRobin
      {{0x1c10912737ab895dULL, 0x76b5c2d878ab8d28ULL,
        44660u, 0u, 13506u, 4412u},
       {0x8b4c8407fcdb59a2ULL, 0xb3273e79157d9f10ULL,
        26648u, 16u, 13182u, 0u}},  // Greedy
    },
    {  // Flap
      {{0x929813e9d74e564dULL, 0xa2abbf560d63a719ULL,
        34784u, 0u, 10518u, 10514u},
       {0x8ced5f16a5efb525ULL, 0xdf41c2bac60b7e61ULL,
        20342u, 16u, 9990u, 6825u}},  // Dfs
      {{0x5e1e66ef960263ceULL, 0x5fa3407006422d79ULL,
        34790u, 0u, 10518u, 3437u},
       {0x95f7ee8e8b5cbc62ULL, 0xed7d7b67a1f372f5ULL,
        20348u, 16u, 9990u, 0u}},  // RoundRobin
      {{0xae861cf77ca760a5ULL, 0xd6515a5820be3fd1ULL,
        34784u, 0u, 10518u, 3437u},
       {0xca2b15f7593bb122ULL, 0xed7d7b67a1f372f5ULL,
        20348u, 16u, 9990u, 0u}},  // Greedy
    },
};

class FrontierOracleTest
    : public ::testing::TestWithParam<std::tuple<int /*kind*/,
                                                 int /*executor*/>> {};

/// The tracker's lease path must reproduce the pinned tuple movement bit
/// for bit — on the healthy path AND under every fault kind. Under
/// on-demand ETS the lease never fires in this matrix; without ETS it is
/// the only thing that unwedges the union, so that axis is where lease
/// firings are pinned. A replay seed (DSMS_TEST_SEED) has no pins; the run
/// must then be deterministic and, without ETS, still fire its lease.
TEST_P(FrontierOracleTest, TrackerIsTraceIdenticalToLegacyWatchdog) {
  auto [kind_index, executor] = GetParam();
  const FaultKind kind = static_cast<FaultKind>(kind_index);
  const uint64_t seed = test::TestSeedOr(kPinnedSeed);
  DSMS_TRACE_SEED(seed);

  const ScenarioKind scenarios[] = {ScenarioKind::kOnDemandEts,
                                    ScenarioKind::kNoEts};
  for (int axis = 0; axis < 2; ++axis) {
    const ScenarioKind scenario = scenarios[axis];
    SCOPED_TRACE(ScenarioKindToString(scenario));
    const ScenarioConfig config = OracleConfig(scenario, kind, executor, seed);
    ScenarioResult tracker = RunScenario(config);
    if (scenario == ScenarioKind::kNoEts) {
      EXPECT_GT(tracker.report.exec.lease_expired_ets, 0u);
    }

    if (seed != kPinnedSeed) {
      ScenarioResult again = RunScenario(config);
      EXPECT_EQ(tracker.trace_hash, again.trace_hash);
      EXPECT_EQ(tracker.sink_digest, again.sink_digest);
      EXPECT_EQ(tracker.report.exec.lease_expired_ets,
                again.report.exec.lease_expired_ets);
      continue;
    }
    const FrontierPin& pin = kFrontierPins[kind_index][executor][axis];
    EXPECT_EQ(tracker.trace_hash, pin.trace_hash);
    EXPECT_EQ(tracker.sink_digest, pin.sink_digest);
    EXPECT_EQ(tracker.trace_events, pin.trace_events);
    EXPECT_EQ(tracker.report.exec.lease_expired_ets, pin.lease_expired_ets);
    EXPECT_EQ(tracker.report.exec.data_steps, pin.data_steps);
    EXPECT_EQ(tracker.report.exec.backtracks, pin.backtracks);
  }
}

std::string OracleName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"None",     "Stall",    "Death",
                                 "Burst",    "Disorder", "Skew",
                                 "DupPunct", "RegressPunct", "Flap"};
  static const char* kExecutors[] = {"Dfs", "RoundRobin", "Greedy"};
  return std::string(kKinds[std::get<0>(info.param)]) +
         kExecutors[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAllExecutors, FrontierOracleTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(0, 1, 2)),
    OracleName);

// --- Frontier scenarios ------------------------------------------------------

/// Lease expiry ages a stalled source out, unwedges the graph, and surfaces
/// the degradation in the frontier counters.
TEST(FrontierScenarioTest, LeaseExpiryReplacesWatchdog) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kNoEts;
  config.arrivals = ArrivalKind::kConstant;  // deterministic gaps
  config.fast_rate = 50.0;
  config.slow_rate = 1.0;  // 1s gaps: always inside the 5s lease
  config.run.horizon = 90 * kSecond;
  config.run.warmup = 0;
  config.fault.kind = FaultKind::kStall;
  config.fault.start = 20 * kSecond;
  config.fault.duration = 40 * kSecond;
  config.fault_target = 1;
  config.run.lease = 5 * kSecond;

  ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.report.exec.lease_expired_ets, 0u);
  EXPECT_GT(result.report.frontier_lease_expiries, 0u);
  EXPECT_TRUE(result.report.degraded);
  EXPECT_GT(result.tuples_delivered, 0u);
  EXPECT_EQ(result.order_violations, 0u);
  // The stalled stream revived once at the end of its window: absorbed as
  // a single suspect strike, never quarantined.
  EXPECT_GE(result.report.frontier_revivals, 1u);
  EXPECT_EQ(result.report.frontier_quarantines, 0u);
}

/// The tentpole flap scenario: a producer that repeatedly dies past its
/// lease and revives walks into quarantine (flap damping), is re-admitted
/// after a clean window, and the whole episode never regresses the sink's
/// timestamp order.
TEST(FrontierScenarioTest, FlappingSourceQuarantinedThenReadmitted) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.arrivals = ArrivalKind::kConstant;  // deterministic gaps
  config.fast_rate = 50.0;
  config.slow_rate = 1.0;  // 1s gaps: always inside the 2s lease
  config.run.horizon = 200 * kSecond;
  config.run.warmup = 0;
  // Throttle the on-demand ETS path for the whole run: a silent stream
  // must be unwedged by its lease, not papered over by demand-driven
  // punctuation (same trick as the chaos lease throttle test).
  config.run.ets_min_interval = 600 * kSecond;
  config.run.lease = 2 * kSecond;

  // Dead/alive phases of 5s across [30s, 70s): four die-and-revive cycles,
  // each one a lease expiry followed by a revival violation.
  config.fault.kind = FaultKind::kFlap;
  config.fault.start = 30 * kSecond;
  config.fault.duration = 40 * kSecond;
  config.fault.punct_period = 5 * kSecond;
  config.fault_target = 0;  // the fast stream is the flapper

  ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.tuples_delivered, 0u);
  EXPECT_EQ(result.order_violations, 0u);  // flapping never regresses ETS

  // Four revivals: 1 → suspect, 3 more strikes → quarantined.
  EXPECT_GE(result.report.frontier_revivals, 4u);
  EXPECT_GE(result.report.frontier_quarantines, 1u);
  EXPECT_GE(result.report.frontier_lease_expiries, 4u);
  EXPECT_GT(result.report.exec.lease_expired_ets, 0u);

  // 130 clean virtual seconds after the last flap: re-admitted, probation
  // served, fully healthy again — the hysteresis absorbed the episode.
  EXPECT_EQ(result.report.frontier_quarantined_now, 0u);
  EXPECT_EQ(result.report.frontier_degraded_now, 0u);
}

/// Acceptance scenario: one stalled source, one punctuation-regressing
/// source, and one flapping source at the same time. The run completes, the
/// frontier advances, and the misbehaving sources are visible in the
/// frontier counters instead of wedging the graph.
TEST(FrontierScenarioTest, ThreeMisbehavingSourcesDoNotWedgeTheRun) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.arrivals = ArrivalKind::kConstant;
  config.fast_rate = 50.0;
  config.slow_rate = 1.0;
  config.num_slow_streams = 3;  // sources: 0 fast, 1..3 slow
  config.run.horizon = 200 * kSecond;
  config.run.warmup = 0;
  config.run.ets_min_interval = 600 * kSecond;  // the lease does the unwedging
  config.run.lease = 2 * kSecond;
  config.run.violations = ViolationPolicy::kQuarantine;

  // Source 1 stalls for 30s.
  config.fault.kind = FaultKind::kStall;
  config.fault.start = 30 * kSecond;
  config.fault.duration = 30 * kSecond;
  config.fault_target = 1;
  // Source 2's heartbeat logic regresses its punctuation every 2s.
  FaultSpec regress;
  regress.kind = FaultKind::kRegressingPunct;
  regress.source = 2;
  regress.start = 30 * kSecond;
  regress.duration = 30 * kSecond;
  regress.punct_period = 2 * kSecond;
  regress.magnitude = 2 * kSecond;
  config.extra_faults.push_back(regress);
  // Source 3 flaps: 5s dead / 5s alive across [30s, 70s).
  FaultSpec flap;
  flap.kind = FaultKind::kFlap;
  flap.source = 3;
  flap.start = 30 * kSecond;
  flap.duration = 40 * kSecond;
  flap.punct_period = 5 * kSecond;
  config.extra_faults.push_back(flap);

  ScenarioResult result = RunScenario(config);

  // Completion under triple fault: data keeps flowing, order holds.
  EXPECT_GT(result.tuples_delivered, 0u);
  EXPECT_EQ(result.order_violations, 0u);
  EXPECT_GT(result.report.fault_events, 0u);

  // The stalled source was aged out by its lease (degraded, not wedged).
  EXPECT_GT(result.report.exec.lease_expired_ets, 0u);
  EXPECT_TRUE(result.report.degraded);

  // Both liars walked into quarantine; the honest stall did not.
  EXPECT_GE(result.report.frontier_quarantines, 2u);
  EXPECT_GE(result.report.frontier_violations, 5u);
  EXPECT_GE(result.report.frontier_revivals, 4u);

  // The frontier kept advancing: by the horizon every stream has promised
  // far past the fault windows.
  EXPECT_GT(result.report.frontier_bound, 100 * kSecond);
}

}  // namespace
}  // namespace dsms
