#include "sim/scenario.h"

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/strings.h"
#include "graph/graph_builder.h"
#include "obs/tracer.h"
#include "operators/iwp_operator.h"
#include "sim/arrival_process.h"
#include "sim/simulation.h"

namespace dsms {
namespace {

TimestampKind EffectiveTsKind(const ScenarioConfig& config) {
  return config.kind == ScenarioKind::kLatent ? TimestampKind::kLatent
                                              : config.ts_kind;
}

std::unique_ptr<ArrivalProcess> MakeFastProcess(const ScenarioConfig& config) {
  switch (config.arrivals) {
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonProcess>(config.fast_rate,
                                              config.seed * 31 + 1);
    case ArrivalKind::kConstant:
      return std::make_unique<ConstantRateProcess>(config.fast_rate);
    case ArrivalKind::kBursty:
      return std::make_unique<BurstyProcess>(
          config.burst_rate, config.idle_rate, config.mean_burst_length,
          config.mean_idle_length, config.seed * 31 + 1);
  }
  return nullptr;
}

std::unique_ptr<ArrivalProcess> MakeSlowProcess(const ScenarioConfig& config,
                                                int index) {
  uint64_t seed = config.seed * 31 + 100 + static_cast<uint64_t>(index);
  if (config.arrivals == ArrivalKind::kConstant) {
    return std::make_unique<ConstantRateProcess>(config.slow_rate);
  }
  return std::make_unique<PoissonProcess>(config.slow_rate, seed);
}

/// Order-sensitive FNV-1a digest over tuple contents; shared by the arc
/// TraceRecorder and the sink-output digest.
class FnvDigest {
 public:
  uint64_t hash() const { return hash_; }

  void Mix(uint64_t word) {
    // FNV-1a, one byte at a time.
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (i * 8)) & 0xFFu;
      hash_ *= 1099511628211ULL;
    }
  }

  void MixTuple(const Tuple& tuple) {
    Mix(static_cast<uint64_t>(tuple.kind()));
    Mix(static_cast<uint64_t>(tuple.timestamp_kind()));
    Mix(tuple.has_timestamp() ? 1u : 0u);
    if (tuple.has_timestamp()) Mix(static_cast<uint64_t>(tuple.timestamp()));
    Mix(static_cast<uint64_t>(tuple.arrival_time()));
    Mix(static_cast<uint64_t>(static_cast<int64_t>(tuple.source_id())));
    Mix(tuple.sequence());
    Mix(static_cast<uint64_t>(tuple.num_values()));
    for (const Value& v : tuple.values()) MixValue(v);
  }

  void MixValue(const Value& v) {
    Mix(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case ValueType::kInt64:
        Mix(static_cast<uint64_t>(v.int64_value()));
        break;
      case ValueType::kDouble: {
        double d = v.double_value();
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
        std::memcpy(&bits, &d, sizeof(bits));
        Mix(bits);
        break;
      }
      case ValueType::kBool:
        Mix(v.bool_value() ? 1u : 0u);
        break;
      case ValueType::kString: {
        const std::string& s = v.string_value();
        Mix(s.size());
        for (char c : s) Mix(static_cast<uint64_t>(static_cast<uint8_t>(c)));
        break;
      }
    }
  }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

/// Buffer listener folding every push/pop (arc id + full tuple contents)
/// into an FNV-1a digest. Equal digests mean two runs moved byte-identical
/// tuples through the same arcs in the same order.
class TraceRecorder : public BufferListener {
 public:
  uint64_t hash() const { return digest_.hash(); }
  uint64_t events() const { return events_; }

  void OnPush(const StreamBuffer& buffer, const Tuple& tuple) override {
    Record(0x50u, buffer, tuple);
  }
  void OnPop(const StreamBuffer& buffer, const Tuple& tuple) override {
    Record(0x0Fu, buffer, tuple);
  }

 private:
  void Record(uint64_t tag, const StreamBuffer& buffer, const Tuple& tuple) {
    ++events_;
    digest_.Mix(tag);
    digest_.Mix(static_cast<uint64_t>(buffer.id()));
    digest_.MixTuple(tuple);
  }

  FnvDigest digest_;
  uint64_t events_ = 0;
};

}  // namespace

const char* ScenarioKindToString(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kNoEts:
      return "A:no-ets";
    case ScenarioKind::kPeriodicEts:
      return "B:periodic";
    case ScenarioKind::kOnDemandEts:
      return "C:on-demand";
    case ScenarioKind::kLatent:
      return "D:latent";
  }
  return "unknown";
}

std::string ScenarioResult::ToString() const {
  std::string text = StrFormat(
      "latency(ms) mean=%.4f p50=%.4f p99=%.4f max=%.4f | out=%llu | "
      "peak_queue=%lld (data %lld) | idle=%.4f%% (%llu intervals) | "
      "ets=%llu punct_steps=%llu punct_sink=%llu",
      mean_latency_ms, p50_latency_ms, p99_latency_ms, max_latency_ms,
      static_cast<unsigned long long>(tuples_delivered),
      static_cast<long long>(report.peak_queue_total),
      static_cast<long long>(peak_queue_data), idle_fraction * 100.0,
      static_cast<unsigned long long>(blocked_intervals),
      static_cast<unsigned long long>(report.ets_generated),
      static_cast<unsigned long long>(report.exec.punctuation_steps),
      static_cast<unsigned long long>(punctuation_eliminated));
  if (report.fault_events > 0 || report.exec.lease_expired_ets > 0 ||
      report.shed_tuples > 0 || report.quarantined > 0 ||
      report.dropped_late > 0 || late_absorbed > 0) {
    text += StrFormat(
        " | faults=%llu lease_expired_ets=%llu%s shed=%llu quarantined=%llu "
        "dropped=%llu late_absorbed=%llu hwm=%llu",
        static_cast<unsigned long long>(report.fault_events),
        static_cast<unsigned long long>(report.exec.lease_expired_ets),
        report.degraded ? " (degraded)" : "",
        static_cast<unsigned long long>(report.shed_tuples),
        static_cast<unsigned long long>(report.quarantined),
        static_cast<unsigned long long>(report.dropped_late),
        static_cast<unsigned long long>(late_absorbed),
        static_cast<unsigned long long>(report.max_buffer_hwm));
  }
  if (report.frontier_violations > 0 || report.frontier_lease_expiries > 0 ||
      report.frontier_transitions > 0) {
    text += StrFormat(
        " | frontier: violations=%llu lease_expiries=%llu revivals=%llu "
        "quarantines=%llu quarantined_now=%llu degraded_now=%llu",
        static_cast<unsigned long long>(report.frontier_violations),
        static_cast<unsigned long long>(report.frontier_lease_expiries),
        static_cast<unsigned long long>(report.frontier_revivals),
        static_cast<unsigned long long>(report.frontier_quarantines),
        static_cast<unsigned long long>(report.frontier_quarantined_now),
        static_cast<unsigned long long>(report.frontier_degraded_now));
  }
  return text;
}

ScenarioResult RunScenario(const ScenarioConfig& config) {
  TimestampKind ts_kind = EffectiveTsKind(config);
  bool ordered = ts_kind != TimestampKind::kLatent;

  GraphBuilder builder;
  std::vector<Source*> sources;
  Operator* measured = nullptr;  // The IWP / window operator under study.
  Sink* sink = nullptr;

  if (config.shape == QueryShape::kUnion) {
    DSMS_CHECK_GE(config.num_slow_streams, 1);
    Source* fast =
        builder.AddSource("S1", ts_kind, config.skew_bound);
    sources.push_back(fast);
    auto* f1 = builder.AddRandomDropFilter("F1", config.selectivity,
                                           config.seed * 7 + 11);
    builder.Connect(fast, f1);
    Union* u = builder.AddUnion("U", ordered, config.use_tsm_registers);
    builder.Connect(f1, u);
    for (int i = 0; i < config.num_slow_streams; ++i) {
      Source* slow = builder.AddSource(StrFormat("S%d", i + 2), ts_kind,
                                       config.skew_bound);
      sources.push_back(slow);
      auto* f = builder.AddRandomDropFilter(StrFormat("F%d", i + 2),
                                            config.selectivity,
                                            config.seed * 7 + 13 +
                                                static_cast<uint64_t>(i));
      builder.Connect(slow, f);
      builder.Connect(f, u);
    }
    sink = builder.AddSink("OUT");
    builder.Connect(u, sink);
    measured = u;
  } else if (config.shape == QueryShape::kJoin) {
    Source* fast = builder.AddSource("S1", ts_kind, config.skew_bound);
    Source* slow = builder.AddSource("S2", ts_kind, config.skew_bound);
    sources.push_back(fast);
    sources.push_back(slow);
    auto* f1 = builder.AddRandomDropFilter("F1", config.selectivity,
                                           config.seed * 7 + 11);
    auto* f2 = builder.AddRandomDropFilter("F2", config.selectivity,
                                           config.seed * 7 + 13);
    builder.Connect(fast, f1);
    builder.Connect(slow, f2);
    WindowJoin* join = builder.AddWindowJoin(
        "J", config.join_window, config.join_window,
        /*predicate=*/nullptr, ordered);
    builder.Connect(f1, join);
    builder.Connect(f2, join);
    sink = builder.AddSink("OUT");
    builder.Connect(join, sink);
    measured = join;
  } else {  // kAggregate
    // A busy side component shares the scheduler: every one of its
    // activations gives the executor a chance to resume the aggregate's
    // pending backtrack and close due windows (on-demand ETS is driven by
    // execution, so an otherwise-idle DSMS cannot close windows by itself —
    // see DESIGN.md).
    Source* side = builder.AddSource("SIDE", ts_kind, config.skew_bound);
    Sink* side_sink = builder.AddSink("SIDE_OUT");
    builder.Connect(side, side_sink);
    sources.push_back(side);

    Source* slow = builder.AddSource("S1", ts_kind, config.skew_bound);
    sources.push_back(slow);
    auto* f1 = builder.AddRandomDropFilter("F1", config.selectivity,
                                           config.seed * 7 + 11);
    builder.Connect(slow, f1);
    WindowAggregate* agg = builder.AddWindowAggregate(
        "AGG", AggKind::kCount, /*field=*/0, config.agg_window,
        config.agg_slide);
    builder.Connect(f1, agg);
    sink = builder.AddSink("OUT");
    builder.Connect(agg, sink);
    measured = agg;
  }

  for (Source* source : sources) {
    source->set_timestamp_granularity(config.timestamp_granularity);
  }

  Result<std::unique_ptr<QueryGraph>> graph_or = builder.Build();
  DSMS_CHECK_OK(graph_or.status());
  Experiment experiment;
  experiment.plan.graph = std::move(graph_or).value();
  QueryGraph* graph = experiment.plan.graph.get();
  experiment.run = config.run;
  experiment.run.ets = config.kind == ScenarioKind::kOnDemandEts
                           ? EtsMode::kOnDemand
                           : EtsMode::kNone;
  experiment.storage = config.storage;
  experiment.storage.enabled =
      !config.storage.spill_dir.empty() || config.storage.mem_budget > 0;

  // The engine settings no run statement carries; BuildExecutor writes the
  // run's settings over them.
  VirtualClock clock;
  ExecConfig base;
  base.costs = config.costs;
  base.scheduler = config.scheduler;
  base.shard_seed = config.seed;
  std::unique_ptr<Tracer> tracer;
  if (!config.trace.path.empty()) {
    tracer = std::make_unique<Tracer>(&clock, config.trace.capacity);
    base.tracer = tracer.get();
  }
  Result<std::unique_ptr<Executor>> built =
      BuildExecutor(&experiment, &clock, base);
  DSMS_CHECK_OK(built.status());
  std::unique_ptr<Executor> executor = std::move(built).value();

  // Self-check every delivery for timestamp-order violations; the paper's
  // operators are order-preserving by construction, so any violation is an
  // implementation bug worth failing loudly in tests. The same callback
  // folds every delivered tuple into the sink-output digest — the oracle
  // the batch-equivalence suite compares against the scalar path.
  uint64_t order_violations = 0;
  auto sink_digest = std::make_shared<FnvDigest>();
  auto last_ts = std::make_shared<Timestamp>(kMinTimestamp);
  sink->set_callback([last_ts, &order_violations, sink_digest,
                      ordered](const Tuple& t, Timestamp) {
    if (ordered && t.has_timestamp()) {
      if (t.timestamp() < *last_ts) ++order_violations;
      *last_ts = t.timestamp();
    }
    sink_digest->MixTuple(t);
  });

  TraceRecorder trace;
  Simulation sim(graph, executor.get(), &clock);
  sim.set_violation_policy(config.run.violations);
  if (tracer != nullptr) sim.AttachTracer(tracer.get());
  // The Simulation constructor owns listener replacement; the recorder must
  // compose with (not clobber) its metrics listeners, so attach afterwards.
  if (config.record_trace) graph->AddBufferListener(&trace);
  for (size_t i = 0; i < sources.size(); ++i) {
    // sources[0] is the fast stream in every shape (the side component for
    // kAggregate); all others are slow streams.
    std::unique_ptr<ArrivalProcess> process =
        i == 0 ? MakeFastProcess(config)
               : MakeSlowProcess(config, static_cast<int>(i));
    sim.AddFeed(sources[i], std::move(process), Simulation::SequencePayload(),
                /*jitter_seed=*/config.seed * 131 + i);
  }
  auto clamp_target = [&sources](int target) {
    if (target < 0) target = 0;
    if (target >= static_cast<int>(sources.size())) {
      target = static_cast<int>(sources.size()) - 1;
    }
    return static_cast<size_t>(target);
  };
  if (config.fault.enabled()) {
    sim.InjectFault(sources[clamp_target(config.fault_target)], config.fault,
                    /*run_seed=*/config.seed);
  }
  for (const FaultSpec& extra : config.extra_faults) {
    if (!extra.enabled()) continue;
    // Each extra fault aims at its own FaultSpec::source index; at most one
    // fault per source (a later injection replaces an earlier one).
    sim.InjectFault(sources[clamp_target(extra.source)], extra,
                    /*run_seed=*/config.seed);
  }
  if (config.kind == ScenarioKind::kPeriodicEts &&
      config.heartbeat_rate > 0.0) {
    Duration period = SecondsToDuration(1.0 / config.heartbeat_rate);
    if (period < 1) period = 1;
    for (size_t i = 0; i < sources.size(); ++i) {
      bool is_fast = i == 0;
      if (is_fast && !config.heartbeat_fast) continue;
      // Stagger phases so heartbeats on different streams do not collide.
      sim.AddHeartbeat(sources[i], period,
                       static_cast<Duration>(i) * (period / 7 + 1));
    }
  }

  sim.Run(config.run.horizon, config.run.warmup);

  ScenarioResult result;
  result.report = AssembleReport(*graph, *executor, clock.now(),
                                 sim.queue_tracker(), sim.order_validator());
  result.report.fault_events = sim.fault_events();
  const LatencyRecorder& latency = sink->latency();
  result.mean_latency_ms = latency.mean_us() / 1000.0;
  result.p50_latency_ms = latency.histogram().Quantile(0.5) / 1000.0;
  result.p99_latency_ms = latency.p99_us() / 1000.0;
  result.max_latency_ms = static_cast<double>(latency.max_us()) / 1000.0;
  result.tuples_delivered = latency.count();
  result.peak_queue_data = sim.queue_tracker().peak_data();
  if (const IdleWaitTracker* tracker =
          executor->idle_tracker(measured->id())) {
    result.idle_fraction = tracker->IdleFraction(0, clock.now());
    result.blocked_intervals =
        static_cast<uint64_t>(tracker->blocked_intervals());
  }
  result.punctuation_eliminated = sink->punctuation_eliminated();
  result.order_violations = order_violations;
  if (auto* iwp = dynamic_cast<IwpOperator*>(measured)) {
    result.late_absorbed = iwp->late_data_absorbed();
  }
  result.trace_hash = trace.hash();
  result.trace_events = trace.events();
  result.sink_digest = sink_digest->hash();
  if (tracer != nullptr) WriteTrace(*tracer, config.trace);
  return result;
}

}  // namespace dsms
