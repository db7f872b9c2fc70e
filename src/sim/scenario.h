#ifndef DSMS_SIM_SCENARIO_H_
#define DSMS_SIM_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/tuple.h"
#include "exec/executor.h"
#include "sim/experiment_spec.h"
#include "sim/fault_injector.h"

namespace dsms {

/// The four timestamp-management strategies compared in Section 6.
enum class ScenarioKind {
  kNoEts = 0,       // A: internally timestamped, no punctuation at all
  kPeriodicEts = 1, // B: internal timestamps + periodic heartbeats [9]
  kOnDemandEts = 2, // C: internal timestamps + on-demand ETS (this paper)
  kLatent = 3,      // D: latent timestamps (optimal baseline)
};

const char* ScenarioKindToString(ScenarioKind kind);

/// Query graph shapes used by the experiments and ablations.
enum class QueryShape {
  /// The paper's graph: N streams -> selection each -> union -> sink.
  kUnion = 0,
  /// Two streams -> selection each -> symmetric window join -> sink.
  kJoin = 1,
  /// One stream -> selection -> tumbling/sliding window aggregate -> sink.
  kAggregate = 2,
};

enum class ArrivalKind {
  kPoisson = 0,
  kConstant = 1,
  kBursty = 2,  // fast stream bursty (MMPP); slow streams stay Poisson
};

/// Full parameterization of one paper-shape run: the graph shape, its
/// arrival processes, heartbeats and faults. Engine settings live in `run`,
/// `storage` and `trace`, the same specs an experiment file fills, and go
/// through the same BuildExecutor. Defaults reproduce the paper's setup:
/// Poisson 50 / 0.05 tuples/s, 95% selectivity filters, binary union,
/// internal timestamps, DFS execution, 600 s horizon after a 30 s warmup.
struct ScenarioConfig {
  ScenarioKind kind = ScenarioKind::kOnDemandEts;
  QueryShape shape = QueryShape::kUnion;
  ArrivalKind arrivals = ArrivalKind::kPoisson;

  double fast_rate = 50.0;   // tuples/s on stream 1
  double slow_rate = 0.05;   // tuples/s on each further stream
  int num_slow_streams = 1;  // union fan-in = 1 + num_slow_streams
  double selectivity = 0.95;

  /// B only: heartbeat punctuations per second injected into each slow
  /// stream (the sparse side, as in the paper).
  double heartbeat_rate = 0.0;
  /// B only: also inject heartbeats into the fast stream.
  bool heartbeat_fast = false;

  /// kInternal (paper's main experiments) or kExternal (δ ablation).
  /// Ignored when kind == kLatent.
  TimestampKind ts_kind = TimestampKind::kInternal;
  Duration skew_bound = 0;  // δ for external timestamps

  /// Internal-timestamp granularity (Section 4.1 ablation): coarse values
  /// produce simultaneous tuples.
  Duration timestamp_granularity = 1;

  /// false selects the basic Figure-1 union (no TSM registers), the
  /// baseline for bench/abl_simultaneous.
  bool use_tsm_registers = true;

  Duration join_window = 2 * kSecond;   // per side, kJoin
  Duration agg_window = kSecond;        // kAggregate
  Duration agg_slide = kSecond;

  // MMPP parameters for ArrivalKind::kBursty (applied to the fast stream).
  double burst_rate = 500.0;
  double idle_rate = 1.0;
  Duration mean_burst_length = 200 * kMillisecond;
  Duration mean_idle_length = 5 * kSecond;

  /// Execution settings (horizon, warmup, executor, quantum, ETS throttle,
  /// lease, buffer bound and overload policy, violation policy, batch size,
  /// shards and shard mode). `run.ets` is derived from `kind` (on-demand
  /// for C, none otherwise); whatever it holds is overwritten.
  RunSpec run{.warmup = 30 * kSecond};
  /// Spillable state store (storage/state_store.h): with a spill dir or a
  /// budget the graph gets a StateStore, and window/join state beyond
  /// `storage.mem_budget` hot bytes spills to block files in
  /// `storage.spill_dir` (budget 0 = attached but never spills).
  /// `storage.enabled` is derived from those two, like `run.ets`. Neither
  /// set (the default) keeps all state in memory, unbudgeted. Disk-fault
  /// injection (kDiskStall/kDiskFail) requires the store.
  StorageSpec storage;
  /// When `trace.path` is non-empty the run records an execution trace and
  /// writes it there as Chrome trace-event JSON (Perfetto). Off by default;
  /// a traced run is byte-identical to an untraced one.
  TraceSpec trace;

  CostModel costs;
  /// Work discovery strategy (kReadyQueue is the optimized default;
  /// kScanReference reproduces the original O(n) scans and serves as the
  /// oracle for trace-equivalence tests).
  SchedulerMode scheduler = SchedulerMode::kReadyQueue;

  /// When true, every buffer push/pop in the run is folded into
  /// ScenarioResult::trace_hash (FNV-1a over the full tuple contents and
  /// arc id). Two runs with equal hashes executed byte-identical tuple
  /// movements in the same order.
  bool record_trace = false;

  /// Fault armed against sources[fault_target] (kNone = no injection).
  FaultSpec fault;
  /// Index into the scenario's source list (clamped); default 1 targets the
  /// first slow stream — the one whose silence wedges the IWP operator.
  int fault_target = 1;
  /// Additional faults, each aimed at its own FaultSpec::source index in
  /// the scenario's source list (clamped). Composes with `fault` for
  /// multi-bad-source chaos runs: at most one fault per source.
  std::vector<FaultSpec> extra_faults;

  /// Seeds every arrival process, filter, fault and the shard streams
  /// (ExecConfig::shard_seed), so DSMS_TEST_SEED reproduces a run.
  uint64_t seed = 42;
};

/// Headline measurements of one run; see bench/ for how these map onto the
/// paper's figures.
struct ScenarioResult {
  /// The engine-wide report every run path assembles (AssembleReport):
  /// queues, ETS and lease counts, fault and overload activity, frontier,
  /// shards, storage and executor stats.
  ExperimentReport report;

  // Output latency at the primary sink OUT (Figure 7).
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  uint64_t tuples_delivered = 0;

  // Peak data-tuple occupancy across all arcs (Figure 8; the total is
  // report.peak_queue_total).
  int64_t peak_queue_data = 0;

  // Idle-waiting of the graph's IWP operator (Section 6 text).
  double idle_fraction = 0.0;
  uint64_t blocked_intervals = 0;

  // Punctuations that reached the primary sink.
  uint64_t punctuation_eliminated = 0;

  // Self-check (must be 0 for timestamped scenarios): delivered tuples whose
  // timestamp was below a previously delivered one.
  uint64_t order_violations = 0;
  uint64_t late_absorbed = 0;  // late data consumed by the IWP operator

  /// Populated when config.record_trace: FNV-1a digest and event count of
  /// every buffer push/pop in the run (see ScenarioConfig::record_trace).
  uint64_t trace_hash = 0;
  uint64_t trace_events = 0;

  /// Always populated: order-sensitive FNV-1a digest of every data tuple
  /// delivered at the primary sink (kind, timestamps, payload — not the
  /// virtual delivery time). Equal digests mean byte-identical sink output;
  /// the oracle of tests/batch_exec_test.cc.
  uint64_t sink_digest = 0;

  std::string ToString() const;
};

/// Builds the configured graph, hands it to BuildExecutor, wires feeds,
/// heartbeats and faults, runs the simulation for config.run.horizon, and
/// collects results (AssembleReport plus the paper's primary-sink and
/// idle-wait measures). Deterministic per config (all randomness is seeded
/// from config.seed).
ScenarioResult RunScenario(const ScenarioConfig& config);

}  // namespace dsms

#endif  // DSMS_SIM_SCENARIO_H_
