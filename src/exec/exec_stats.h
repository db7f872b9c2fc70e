#ifndef DSMS_EXEC_EXEC_STATS_H_
#define DSMS_EXEC_EXEC_STATS_H_

#include <cstdint>
#include <iterator>
#include <string>

namespace dsms {

class MetricsRegistry;

/// Counters maintained by executors; one instance per executor run.
struct ExecStats {
  /// Operator steps that consumed a data tuple.
  uint64_t data_steps = 0;
  /// Operator steps that consumed a punctuation tuple.
  uint64_t punctuation_steps = 0;
  /// Operator steps that consumed nothing (blocked probes).
  uint64_t empty_steps = 0;
  /// Backtrack walks initiated (Backtrack NOS rule firings).
  uint64_t backtracks = 0;
  /// Individual hops taken during backtrack walks.
  uint64_t backtrack_hops = 0;
  /// On-demand ETS punctuations generated at sources.
  uint64_t ets_generated = 0;
  /// Fallback ETS punctuations emitted when a silent source's frontier lease
  /// expired (degraded mode: the source was drained via the skew contract).
  uint64_t lease_expired_ets = 0;
  /// Times control returned to the scheduler with nothing runnable.
  uint64_t idle_returns = 0;
  /// Scans over the operator table looking for runnable work.
  uint64_t work_scans = 0;
  /// Columnar batches drained and processed (batch mode only).
  uint64_t batches = 0;
  /// Data rows carried by those batches (batch_rows / batches = mean batch
  /// occupancy; every such row is also counted in data_steps).
  uint64_t batch_rows = 0;
  /// Batch drains stopped early by a punctuation mid-buffer (the ordering
  /// cut a batch is never allowed to span).
  uint64_t batch_punct_splits = 0;
  /// Steps that fell back to the scalar path while batch mode was on
  /// (operator without a kernel, punctuation at the front, fan-in).
  uint64_t batch_fallback_steps = 0;

  uint64_t total_steps() const {
    return data_steps + punctuation_steps + empty_steps;
  }

  friend bool operator==(const ExecStats&, const ExecStats&) = default;

  std::string ToString() const;

  /// Registers every counter as a live view under `prefix` (e.g.
  /// "exec.data_steps"): the registry reads this struct at snapshot time,
  /// so this object must outlive the registry's snapshots. The struct's
  /// fields remain the accessors; the registry is the reporting path.
  void BindTo(MetricsRegistry* registry, const std::string& prefix) const;

  /// Copies every counter into the registry under `prefix` (a point-in-time
  /// snapshot; safe after this struct dies).
  void PublishTo(MetricsRegistry* registry, const std::string& prefix) const;
};

/// One ExecStats counter: its metric name under the registry prefix and its
/// field.
struct ExecStatsCounter {
  const char* name;
  uint64_t ExecStats::*field;
};

/// The one field table: every counter, in checkpoint order. The registry
/// plumbing (BindTo/PublishTo) and Executor::SaveState/LoadState walk it.
inline constexpr ExecStatsCounter kExecStatsCounters[] = {
    {"data_steps", &ExecStats::data_steps},
    {"punctuation_steps", &ExecStats::punctuation_steps},
    {"empty_steps", &ExecStats::empty_steps},
    {"backtracks", &ExecStats::backtracks},
    {"backtrack_hops", &ExecStats::backtrack_hops},
    {"ets_generated", &ExecStats::ets_generated},
    {"frontier.lease_expired_ets", &ExecStats::lease_expired_ets},
    {"idle_returns", &ExecStats::idle_returns},
    {"work_scans", &ExecStats::work_scans},
    {"batch.batches", &ExecStats::batches},
    {"batch.rows", &ExecStats::batch_rows},
    {"batch.punct_splits", &ExecStats::batch_punct_splits},
    {"batch.fallback_steps", &ExecStats::batch_fallback_steps},
};
static_assert(sizeof(ExecStats) ==
                  sizeof(uint64_t) * std::size(kExecStatsCounters),
              "every ExecStats counter needs a kExecStatsCounters row");

}  // namespace dsms

#endif  // DSMS_EXEC_EXEC_STATS_H_
