#include "stack.h"

#include <map>

#include "exec/dfs_executor.h"
#include "exec/sharded_executor.h"
#include "net/wire_format.h"
#include "operators/iwp_operator.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "sim/simulation.h"
#include "storage/state_store.h"

namespace perfbench {

using namespace dsms;

namespace {

/// Every stack runs under this cost model: no virtual time is charged for
/// steps, so virtual time never runs ahead of wall time and a horizon can
/// never cut a run short. (Under the default 25 us per data step, a 5 s
/// serve run stopped at its horizon with most input still buffered.)
ExecConfig ZeroCostConfig(const RunSpec& run) {
  ExecConfig config;
  config.costs = CostModel{0, 0, 0, 0, 0};
  config.ets.mode = run.ets;
  config.ets.min_interval = run.ets_min_interval;
  config.batch_size = run.batch;
  config.shards = run.shards;
  config.shard_mode = run.shard_mode;
  return config;
}

std::unique_ptr<Executor> MakeExecutor(QueryGraph* graph, VirtualClock* clock,
                                       const ExecConfig& config) {
  if (config.shards > 1) {
    return std::make_unique<ShardedExecutor>(graph, clock, config);
  }
  return std::make_unique<DfsExecutor>(graph, clock, config);
}

std::map<int32_t, Source*> SourcesByStream(QueryGraph* graph) {
  std::map<int32_t, Source*> sources;
  for (Source* source : graph->sources()) {
    sources[source->stream_id()] = source;
  }
  return sources;
}

/// Delivers one decoded frame into its source the way IngestServer does
/// for honest producers: internal streams are stamped at `now`, external
/// ones keep the carried timestamp.
void Deliver(Source* source, WireFrame frame, Timestamp now) {
  if (frame.type == WireFrame::Type::kPunctuation) {
    source->InjectPunctuation(*frame.timestamp);
  } else if (source->timestamp_kind() == TimestampKind::kExternal) {
    source->IngestExternal(*frame.timestamp, std::move(frame.values), now);
  } else {
    source->Ingest(std::move(frame.values), now);
  }
}

}  // namespace

Result<std::unique_ptr<Stack>> Stack::Build(const StackConfig& config,
                                            SpanLog* spans) {
  const int64_t start = WallNs();
  std::unique_ptr<Stack> stack(new Stack());
  Result<Experiment> parsed =
      ParseExperiment(config.text, /*require_feeds=*/false);
  if (!parsed.ok()) return parsed.status();
  stack->experiment_ = std::move(*parsed);
  Experiment& experiment = stack->experiment_;
  QueryGraph* graph = experiment.plan.graph.get();

  if (experiment.storage.enabled) {
    StorageConfig storage;
    storage.mem_budget = experiment.storage.mem_budget;
    storage.spill_dir = experiment.storage.spill_dir;
    storage.granularity = experiment.storage.granularity;
    storage.overload = experiment.run.overload;
    DSMS_RETURN_IF_ERROR(graph->ConfigureStateStore(storage));
  }
  if (experiment.recovery.wal) {
    RecoveryOptions options;
    options.dir = experiment.recovery.dir;
    options.wal = true;
    options.sync = experiment.recovery.sync;
    options.sync_interval_bytes = experiment.recovery.sync_interval_bytes;
    options.segment_bytes = experiment.recovery.segment_bytes;
    stack->recovery_ = std::make_unique<RecoveryManager>(options);
    ScopedSpan span(spans, "recovery.open");
    DSMS_RETURN_IF_ERROR(stack->recovery_->Open());
    stack->recovery_->RestoreGraph(graph, &stack->clock_);
  }
  stack->executor_ = MakeExecutor(graph, &stack->clock_,
                                  ZeroCostConfig(experiment.run));
  if (stack->recovery_ != nullptr) {
    stack->recovery_->RestoreExecutor(stack->executor_.get());
  }

  IngestServerOptions options;
  options.clock_mode = config.clock;
  options.horizon = config.clock == IngestClock::Mode::kWallClock
                        ? config.horizon
                        : 365LL * 24 * 3600 * kSecond;
  // A hang guard only: a healthy run ends long before it.
  options.wall_limit = 150 * kSecond;
  // The feeder disconnects once, at the end; nothing reconnects.
  options.reconnect_grace = 0;
  stack->server_ = std::make_unique<IngestServer>(
      graph, stack->executor_.get(), &stack->clock_, options);
  stack->server_->set_violation_policy(experiment.run.violations);
  if (stack->recovery_ != nullptr) {
    stack->server_->AttachRecovery(stack->recovery_.get());
  }
  if (config.listen) DSMS_RETURN_IF_ERROR(stack->server_->Start());
  stack->setup_s_ = SecondsSince(start);
  return stack;
}

Status Stack::ReplayWal() {
  DSMS_RETURN_IF_ERROR(server_->ReplayRecoveredWal());
  executor_->RunUntilIdle();
  return OkStatus();
}

uint64_t Stack::BufferedData() const {
  uint64_t buffered = 0;
  const QueryGraph* graph = experiment_.plan.graph.get();
  for (int i = 0; i < graph->num_buffers(); ++i) {
    buffered += graph->buffer(i)->data_size();
  }
  return buffered;
}

SimResult Simulate(const std::string& text,
                   const std::vector<ScheduledFrame>& frames, int shards,
                   ShardMode mode, const AttachSinks& attach) {
  SimResult result;
  const int64_t setup_start = WallNs();
  Result<Experiment> parsed = ParseExperiment(text, /*require_feeds=*/false);
  DSMS_CHECK_OK(parsed.status());
  QueryGraph* graph = parsed->plan.graph.get();
  VirtualClock clock;
  ExecConfig config = ZeroCostConfig(parsed->run);
  config.shards = shards;
  config.shard_mode = mode;
  std::unique_ptr<Executor> executor = MakeExecutor(graph, &clock, config);
  const std::map<int32_t, Source*> sources = SourcesByStream(graph);
  {
    Simulation sim(graph, executor.get(), &clock);
    // After the Simulation: its constructor replaces every arc's listeners.
    attach(graph);
    // One pending event at a time: each delivery schedules the next frame,
    // so the event queue stays O(1) however long the input.
    size_t next = 0;
    std::function<void(Timestamp)> deliver = [&](Timestamp now) {
      const WireFrame& frame = frames[next].frame;
      Deliver(sources.at(frame.stream_id), frame, now);
      if (++next < frames.size()) {
        sim.events().Schedule(frames[next].time, deliver);
      }
    };
    if (!frames.empty()) sim.events().Schedule(frames[0].time, deliver);
    result.setup_s = SecondsSince(setup_start);
    const int64_t start = WallNs();
    sim.Run(kMaxTimestamp / 4);
    result.run_s = SecondsSince(start);
  }
  for (int i = 0; i < graph->num_buffers(); ++i) {
    result.buffered += graph->buffer(i)->data_size();
  }
  result.stats = executor->stats();
  return result;
}

double DecodeNsPerFrame(const std::string& bytes) {
  constexpr size_t kReadBytes = 64 * 1024;
  FrameDecoder decoder;
  WireFrame frame;
  uint64_t frames = 0;
  const int64_t start = WallNs();
  for (size_t offset = 0; offset < bytes.size(); offset += kReadBytes) {
    decoder.Feed(bytes.data() + offset,
                 std::min(kReadBytes, bytes.size() - offset));
    while (true) {
      Result<bool> next = decoder.Next(&frame);
      DSMS_CHECK_OK(next.status());
      if (!*next) break;
      ++frames;
    }
  }
  return static_cast<double>(WallNs() - start) /
         static_cast<double>(std::max<uint64_t>(frames, 1));
}

void ArcWaits::Attach(QueryGraph* graph) {
  for (int i = 0; i < graph->num_buffers(); ++i) {
    Arc arc;
    Operator* producer = graph->op(graph->producer_of(i));
    Operator* consumer = graph->op(graph->consumer_of(i));
    arc.source_out = dynamic_cast<Source*>(producer) != nullptr;
    arc.iwp_in = dynamic_cast<IwpOperator*>(consumer) != nullptr;
    arc.sink_in = dynamic_cast<Sink*>(consumer) != nullptr;
    if (!arc.source_out && !arc.iwp_in && !arc.sink_in) continue;
    arc.listener = std::make_unique<WallWaitListener>();
    graph->buffer(i)->AddListener(arc.listener.get());
    arcs_.push_back(std::move(arc));
  }
}

void ArcWaits::Publish(Report* report) const {
  std::vector<double> source_out, iwp_in, sink_in;
  for (const Arc& arc : arcs_) {
    const std::vector<double>& waits = arc.listener->waits_us();
    if (arc.source_out) {
      source_out.insert(source_out.end(), waits.begin(), waits.end());
    }
    if (arc.iwp_in) iwp_in.insert(iwp_in.end(), waits.begin(), waits.end());
    if (arc.sink_in) sink_in.insert(sink_in.end(), waits.begin(), waits.end());
  }
  const std::pair<const char*, const std::vector<double>*> classes[] = {
      {"source_out", &source_out}, {"iwp_in", &iwp_in}, {"sink_in", &sink_in}};
  for (const auto& [name, waits] : classes) {
    const std::string prefix = std::string("buffer.") + name + ".wait_";
    report->Set(prefix + "p50_us", Quantile(*waits, 0.50));
    report->Set(prefix + "p99_us", Quantile(*waits, 0.99));
  }
}

std::string EncodeAll(const std::vector<ScheduledFrame>& frames,
                      int64_t* encode_ns) {
  std::string bytes;
  bytes.reserve(frames.size() * 48);
  const int64_t start = WallNs();
  for (const ScheduledFrame& entry : frames) {
    DSMS_CHECK_OK(EncodeFrame(entry.frame, &bytes));
  }
  *encode_ns = WallNs() - start;
  return bytes;
}

double DriveInProcess(Stack* stack, const std::string& bytes, SpanLog* spans,
                      uint64_t* frames) {
  constexpr size_t kReadBytes = 64 * 1024;
  QueryGraph* graph = stack->graph();
  Executor* executor = stack->executor();
  VirtualClock* clock = stack->clock();
  RecoveryManager* recovery = stack->recovery();
  const std::map<int32_t, Source*> sources = SourcesByStream(graph);
  FrameDecoder decoder;
  WireFrame frame;
  std::string encoded;
  uint64_t driven = 0;
  const int64_t start = WallNs();
  for (size_t offset = 0; offset < bytes.size(); offset += kReadBytes) {
    const size_t n = std::min(kReadBytes, bytes.size() - offset);
    {
      ScopedSpan span(spans, "net.feed");
      decoder.Feed(bytes.data() + offset, n);
    }
    while (true) {
      bool got = false;
      {
        ScopedSpan span(spans, "net.decode");
        Result<bool> next = decoder.Next(&frame);
        DSMS_CHECK_OK(next.status());
        got = *next;
      }
      if (!got) break;
      const int64_t record = frame.type == WireFrame::Type::kData
                                 ? frame.values[0].int64_value()
                                 : -1;
      ScopedSpan frame_span(spans, "frame", record);
      // The server delivers a frame once the engine is idle and the clock
      // has reached its arrival hint.
      if (frame.arrival_hint.has_value() &&
          *frame.arrival_hint > clock->now()) {
        clock->AdvanceTo(*frame.arrival_hint);
      }
      const Timestamp now = clock->now();
      if (recovery != nullptr) {
        ScopedSpan span(spans, "wal.append", record);
        encoded.clear();
        DSMS_CHECK_OK(EncodeFrame(frame, &encoded));
        DSMS_CHECK_OK(
            recovery->AppendFrame(now, 1, frame.stream_id, encoded));
      }
      {
        ScopedSpan span(spans, "source.ingest", record);
        Deliver(sources.at(frame.stream_id), std::move(frame), now);
      }
      {
        ScopedSpan span(spans, "exec.run", record);
        while (executor->RunStep()) {
        }
      }
      ++driven;
    }
  }
  *frames = driven;
  return SecondsSince(start);
}

}  // namespace perfbench
