#ifndef DSMS_EXEC_ETS_POLICY_H_
#define DSMS_EXEC_ETS_POLICY_H_

#include <cstdint>
#include <map>

#include "common/time.h"
#include "operators/source.h"

namespace dsms {

class FrontierTracker;
class StateReader;
class StateWriter;
class Tracer;

/// Whether the executor generates Enabling Time-Stamps on demand.
enum class EtsMode {
  /// Never generate ETS at sources (scenarios A and B; in B, punctuation is
  /// injected periodically from outside, see sim/HeartbeatInjector).
  kNone = 0,
  /// Generate an ETS when backtracking reaches an empty source while an IWP
  /// operator downstream is idle-waiting (scenario C, the paper's
  /// contribution).
  kOnDemand = 1,
};

const char* EtsModeToString(EtsMode mode);

/// Configuration of on-demand ETS generation.
struct EtsPolicy {
  EtsMode mode = EtsMode::kNone;

  /// Optional throttle: minimum virtual time between two ETS generated at
  /// the same source. 0 = unthrottled (the paper's behaviour); larger values
  /// trade reactivation latency for fewer punctuation tuples.
  Duration min_interval = 0;
};

/// Stateful gate applying an EtsPolicy. The executor consults it every time
/// a backtrack reaches an empty source; generation additionally requires
/// that the walk actually passed an idle-waiting operator (the "on-demand"
/// guard — without it an empty graph would livelock producing ETS forever)
/// and that the source can produce a strictly advancing bound
/// (Source::ComputeEts).
class EtsGate {
 public:
  explicit EtsGate(EtsPolicy policy) : policy_(policy) {}

  /// Attempts ETS generation at `source` at virtual time `now`;
  /// `downstream_idle_waiting` reports whether the backtrack walk passed an
  /// operator holding back results, and `release_bound` is the smallest
  /// bound that would actually release them (the ETS is suppressed if the
  /// source cannot promise that much yet — generating a weaker bound could
  /// not unblock anything and would busy-spin the backtrack loop). Returns
  /// true if a punctuation was pushed into the source's output buffer.
  bool MaybeGenerate(Source* source, Timestamp now,
                     bool downstream_idle_waiting, Timestamp release_bound);

  /// Lease-expiry path: emits a fallback ETS at a source whose frontier
  /// lease expired. Deliberately bypasses both the mode check (the lease
  /// is a safety net, not scenario policy — it must work even under
  /// EtsMode::kNone) and the min_interval throttle (a throttle tuned for
  /// steady-state punctuation volume must not suppress the only mechanism
  /// that drains a stalled stream). Returns true if a punctuation was
  /// pushed; records the generation time so the regular path stays
  /// throttled relative to it.
  bool GenerateFallback(Source* source, Timestamp now);

  uint64_t generated() const { return generated_; }
  uint64_t fallback_generated() const { return fallback_generated_; }
  const EtsPolicy& policy() const { return policy_; }

  /// Execution tracer recording kEtsGenerated events (both origins flow
  /// through this gate, so one hook covers every executor); null = off.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Frontier coordination service: when attached, the candidate ETS bound
  /// is served by a frontier query (FrontierTracker::ProposeEts) instead of
  /// being read off the source directly. The answer is identical by
  /// construction — the tracker and the source share one promise state —
  /// so attaching the tracker never changes execution; it centralizes where
  /// bounds are asked for. Null = query the source (legacy layering).
  void set_frontier(FrontierTracker* frontier) { frontier_ = frontier; }

  /// Checkpoint support (recovery/): counters and per-source throttle
  /// state, so a restarted gate keeps the min_interval promise.
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 private:
  EtsPolicy policy_;
  Tracer* tracer_ = nullptr;
  FrontierTracker* frontier_ = nullptr;
  uint64_t generated_ = 0;
  uint64_t fallback_generated_ = 0;
  std::map<int32_t, Timestamp> last_generation_;  // keyed by stream id
};

}  // namespace dsms

#endif  // DSMS_EXEC_ETS_POLICY_H_
