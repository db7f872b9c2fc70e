#ifndef DSMS_SIM_FAULT_INJECTOR_H_
#define DSMS_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "common/time.h"

namespace dsms {

/// Faults the simulation can inject at a source's input wrapper. Each models
/// a concrete production failure of a stream producer or its network path;
/// DESIGN.md ("Failure model") maps every kind to the runtime defense that
/// is expected to absorb it.
enum class FaultKind {
  kNone = 0,
  /// Producer stops sending for a window, then resumes (network partition,
  /// GC pause upstream). Arrivals inside the window are suppressed.
  kStall = 1,
  /// Producer stops forever at `start` (process death).
  kDeath = 2,
  /// Producer floods: every arrival in the window is delivered
  /// `burst_factor` times (replay storm, catch-up after a partition).
  kBurst = 3,
  /// Timestamp disorder: with probability `probability`, an arrival in the
  /// window carries an application timestamp `magnitude` in the past,
  /// violating the stream's monotonicity contract.
  kDisorder = 4,
  /// Skew violation: with probability `probability`, an external arrival's
  /// app timestamp lags the wall clock by more than the declared δ
  /// (by `magnitude`), breaking the bound the ETS formula relies on.
  kSkewViolation = 5,
  /// Broken heartbeat logic restating old bounds: a punctuation equal to
  /// the stream's current promise is injected every `punct_period` in the
  /// window (harmless but wasteful — the engine must not amplify it).
  kDuplicatePunct = 6,
  /// Broken heartbeat logic moving backwards: a punctuation `magnitude`
  /// BELOW the stream's current promise every `punct_period` in the window
  /// (an order violation downstream must catch or tolerate).
  kRegressingPunct = 7,
  /// Flapping producer: inside the window the source alternates dead and
  /// alive phases of `punct_period` each (dead first), repeatedly dying and
  /// reviving — the pattern that must be absorbed by the frontier tracker's
  /// quarantine/re-admission lifecycle without ETS regression.
  kFlap = 8,
  /// Degraded disk under the state store (storage/): every spilled-block
  /// write and load inside the window costs an extra `magnitude` of
  /// virtual time, charged to the step that triggered the I/O. Routed to
  /// StateStore::ArmFault, not to a source wrapper.
  kDiskStall = 9,
  /// Failing disk under the state store: spill writes inside the window
  /// fail with probability `probability`; the store sheds the victim
  /// block's rows (OverloadPolicy::kShedOldest) or keeps it hot over
  /// budget (any other policy). Loads stay fail-stop (CRC-guarded).
  kDiskFail = 10,
};

const char* FaultKindToString(FaultKind kind);

/// Parses the spelling used by experiment plans:
/// none|stall|death|burst|disorder|skew|dup-punct|regress-punct|flap|
/// disk-stall|disk-fail (underscore aliases accepted for the disk kinds).
Result<FaultKind> ParseFaultKind(const std::string& text);

/// True for kinds that target the storage tier instead of a source's input
/// wrapper (Simulation routes these to the graph's StateStore).
inline bool IsDiskFault(FaultKind kind) {
  return kind == FaultKind::kDiskStall || kind == FaultKind::kDiskFail;
}

/// One fault, aimed at one source of the scenario graph. All fields have
/// usable defaults so plan text only names what it changes. Deterministic:
/// the injector derives its RNG from (seed, scenario seed) only.
struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  /// Index of the target source in the scenario's source list.
  int source = 1;
  /// Fault window [start, start + duration) in virtual time. kDeath ignores
  /// duration (dead is dead).
  Timestamp start = 60 * kSecond;
  Duration duration = 60 * kSecond;
  /// kBurst: copies delivered per arrival inside the window.
  int burst_factor = 4;
  /// kDisorder/kSkewViolation: per-arrival perturbation probability.
  double probability = 0.25;
  /// kDisorder/kSkewViolation/kRegressingPunct: how far (in virtual time)
  /// the timestamp is pushed into the past.
  Duration magnitude = 2 * kSecond;
  /// kDuplicatePunct/kRegressingPunct: injection period inside the window.
  /// kFlap: length of each dead/alive phase.
  Duration punct_period = kSecond;
  /// Mixed with the scenario seed; two runs with equal seeds inject
  /// identically.
  uint64_t seed = 1;

  bool enabled() const { return kind != FaultKind::kNone; }
};

/// What a FaultInjector actually did during a run (surfaced in
/// ExperimentReport and StatsReport so a fault is visible, not silent).
struct FaultStats {
  uint64_t suppressed_arrivals = 0;   // kStall / kDeath
  uint64_t duplicated_arrivals = 0;   // kBurst (extra copies)
  uint64_t perturbed_timestamps = 0;  // kDisorder / kSkewViolation
  uint64_t bogus_punctuations = 0;    // kDuplicatePunct / kRegressingPunct

  uint64_t total() const {
    return suppressed_arrivals + duplicated_arrivals + perturbed_timestamps +
           bogus_punctuations;
  }
};

/// Deterministic per-source fault driver. The Simulation consults it at
/// every arrival delivery (and from a periodic event for the punctuation
/// faults); the injector decides suppress/duplicate/perturb and keeps its
/// own stats. Composable: each injector owns one FaultSpec, one per source.
class FaultInjector {
 public:
  FaultInjector(const FaultSpec& spec, uint64_t run_seed);

  const FaultSpec& spec() const { return spec_; }
  const FaultStats& stats() const { return stats_; }

  /// True while `now` lies inside the fault window (kDeath: forever past
  /// start).
  bool InWindow(Timestamp now) const;

  /// How many copies of the arrival at `now` to deliver: 0 suppresses
  /// (stall/death), burst_factor floods, 1 is a normal delivery. Updates
  /// stats.
  int ArrivalMultiplicity(Timestamp now);

  /// Possibly perturbs the application timestamp of an arrival at `now`.
  /// Returns the timestamp to use and sets `*faulty` when it must bypass
  /// the source's monotonicity checks (IngestFaulty). `app_ts` is the
  /// honest timestamp the wrapper would have used; `skew_bound` the
  /// stream's declared δ.
  Timestamp PerturbTimestamp(Timestamp app_ts, Timestamp now,
                             Duration skew_bound, bool* faulty);

  /// True when this fault injects bogus punctuation on a period (the
  /// Simulation schedules the periodic event).
  bool InjectsPunctuation() const {
    return spec_.kind == FaultKind::kDuplicatePunct ||
           spec_.kind == FaultKind::kRegressingPunct;
  }

  void CountBogusPunctuation() { ++stats_.bogus_punctuations; }

 private:
  FaultSpec spec_;
  Pcg32 rng_;
  FaultStats stats_;
};

}  // namespace dsms

#endif  // DSMS_SIM_FAULT_INJECTOR_H_
