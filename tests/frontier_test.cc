// FrontierTracker: the lease/lifecycle unit contract, the tracker-vs-legacy
// byte-identity oracle (the frontier analogue of the scheduler's
// kScanReference oracle), and the headline chaos scenarios of the frontier
// coordination service — a flapping source absorbed by quarantine and
// re-admission, and a run with three simultaneously misbehaving sources that
// still completes with the frontier advancing.

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

// --- Tracker vs legacy oracle: the byte-identity oracle ----------------------

/// The chaos matrix configuration (tests/chaos_test.cc) with tracing on:
/// every defense armed, one fault injected.
ScenarioConfig OracleConfig(ScenarioKind scenario, FaultKind kind,
                            int executor, uint64_t seed) {
  ScenarioConfig config;
  config.kind = scenario;
  config.executor = static_cast<ExecutorKind>(executor);
  config.horizon = 90 * kSecond;
  config.warmup = 0;
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

  config.lease.duration = 5 * kSecond;
  config.buffer_capacity = 256;
  config.overload = OverloadPolicy::kShedOldest;
  config.violations = ViolationPolicy::kQuarantine;
  return config;
}

class FrontierOracleTest
    : public ::testing::TestWithParam<std::tuple<int /*kind*/,
                                                 int /*executor*/>> {};

/// The tracker's lease path must reproduce the legacy oracle's tuple
/// movement bit for bit — on the healthy path AND under every fault kind.
/// Lifecycle bookkeeping (suspect/quarantine, revivals) may differ between
/// the modes; which tuples move, when, may not. Under on-demand ETS the
/// lease never fires in this matrix; without ETS it is the only thing that
/// unwedges the union, so that axis is where lease firings get compared.
TEST_P(FrontierOracleTest, TrackerIsTraceIdenticalToLegacyWatchdog) {
  auto [kind_index, executor] = GetParam();
  const FaultKind kind = static_cast<FaultKind>(kind_index);
  const uint64_t seed = test::TestSeedOr(42);
  DSMS_TRACE_SEED(seed);

  for (ScenarioKind scenario :
       {ScenarioKind::kOnDemandEts, ScenarioKind::kNoEts}) {
    SCOPED_TRACE(ScenarioKindToString(scenario));
    ScenarioConfig tracker_config =
        OracleConfig(scenario, kind, executor, seed);
    tracker_config.frontier_mode = FrontierMode::kTracker;
    ScenarioConfig legacy_config =
        OracleConfig(scenario, kind, executor, seed);
    legacy_config.frontier_mode = FrontierMode::kLegacyWatchdog;

    ScenarioResult tracker = RunScenario(tracker_config);
    ScenarioResult legacy = RunScenario(legacy_config);
    if (scenario == ScenarioKind::kNoEts) {
      EXPECT_GT(tracker.lease_expired_ets, 0u);
    }

    EXPECT_EQ(tracker.trace_events, legacy.trace_events);
    EXPECT_EQ(tracker.trace_hash, legacy.trace_hash);
    EXPECT_EQ(tracker.sink_digest, legacy.sink_digest);
    EXPECT_EQ(tracker.tuples_delivered, legacy.tuples_delivered);
    EXPECT_EQ(tracker.lease_expired_ets, legacy.lease_expired_ets);
    EXPECT_EQ(tracker.degraded, legacy.degraded);
    EXPECT_EQ(tracker.exec.data_steps, legacy.exec.data_steps);
    EXPECT_EQ(tracker.exec.punctuation_steps, legacy.exec.punctuation_steps);
    EXPECT_EQ(tracker.exec.ets_generated, legacy.exec.ets_generated);
    EXPECT_EQ(tracker.exec.backtracks, legacy.exec.backtracks);
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
  config.horizon = 90 * kSecond;
  config.warmup = 0;
  config.fault.kind = FaultKind::kStall;
  config.fault.start = 20 * kSecond;
  config.fault.duration = 40 * kSecond;
  config.fault_target = 1;
  config.lease.duration = 5 * kSecond;

  ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.lease_expired_ets, 0u);
  EXPECT_GT(result.frontier_lease_expiries, 0u);
  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.tuples_delivered, 0u);
  EXPECT_EQ(result.order_violations, 0u);
  // The stalled stream revived once at the end of its window: absorbed as
  // a single suspect strike, never quarantined.
  EXPECT_GE(result.frontier_revivals, 1u);
  EXPECT_EQ(result.frontier_quarantines, 0u);
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
  config.horizon = 200 * kSecond;
  config.warmup = 0;
  // Throttle the on-demand ETS path for the whole run: a silent stream
  // must be unwedged by its lease, not papered over by demand-driven
  // punctuation (same trick as the chaos lease throttle test).
  config.ets_min_interval = 600 * kSecond;
  config.lease.duration = 2 * kSecond;

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
  EXPECT_GE(result.frontier_revivals, 4u);
  EXPECT_GE(result.frontier_quarantines, 1u);
  EXPECT_GE(result.frontier_lease_expiries, 4u);
  EXPECT_GT(result.lease_expired_ets, 0u);

  // 130 clean virtual seconds after the last flap: re-admitted, probation
  // served, fully healthy again — the hysteresis absorbed the episode.
  EXPECT_EQ(result.frontier_quarantined_now, 0u);
  EXPECT_EQ(result.frontier_degraded_now, 0u);
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
  config.horizon = 200 * kSecond;
  config.warmup = 0;
  config.ets_min_interval = 600 * kSecond;  // the lease does the unwedging
  config.lease.duration = 2 * kSecond;
  config.violations = ViolationPolicy::kQuarantine;

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
  EXPECT_GT(result.fault_events, 0u);

  // The stalled source was aged out by its lease (degraded, not wedged).
  EXPECT_GT(result.lease_expired_ets, 0u);
  EXPECT_TRUE(result.degraded);

  // Both liars walked into quarantine; the honest stall did not.
  EXPECT_GE(result.frontier_quarantines, 2u);
  EXPECT_GE(result.frontier_violations, 5u);
  EXPECT_GE(result.frontier_revivals, 4u);

  // The frontier kept advancing: by the horizon every stream has promised
  // far past the fault windows.
  EXPECT_GT(result.frontier_bound, 100 * kSecond);
}

}  // namespace
}  // namespace dsms
