// The three network workloads. Each round builds a fresh server stack,
// serves it on its own thread, and feeds it over loopback TCP from this
// thread through FeedClient; the program only ever sees the frames the
// benchmark generated from the seed.
#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "common/random.h"
#include "net/feed_client.h"
#include "stack.h"
#include "storage/state_store.h"
#include "workloads.h"

namespace perfbench {

using namespace dsms;

namespace {

/// Rounds a run repeats at least, whatever --seconds says, so every
/// reported median has samples from more than one stack.
constexpr int kMinRounds = 2;

/// End-to-end samples a run collects, round by round.
struct Samples {
  /// Adds one round's per-record latencies as that round's p50 and p90.
  void AddLatencies(const std::vector<double>& latency_us) {
    latency_p50_us.push_back(Quantile(latency_us, 0.50));
    latency_p90_us.push_back(Quantile(latency_us, 0.90));
  }

  std::vector<double> throughput;
  /// Per round: a stall that hits one round moves one sample only.
  std::vector<double> latency_p50_us;
  std::vector<double> latency_p90_us;
  std::vector<double> recover_s;
  std::vector<double> setup_s;
  /// Peak RSS once the first round is done: later rounds only add
  /// allocator noise.
  double peak_rss_mb = 0;
};

/// The end-to-end metrics: medians over rounds of throughput, latency
/// percentiles, recovery and set-up time, the peak RSS, and the share of
/// records delivered correctly. Rounds are short and many because each
/// one lands its threads on other cores: on a shared VM a round's speed
/// varies by a quarter either way, and only a median over many repeats.
void PublishEndToEnd(const Samples& samples, Report* report) {
  report->Set("throughput_rps", Median(samples.throughput));
  report->Set("latency_p50_us", Median(samples.latency_p50_us));
  report->Set("latency_p90_us", Median(samples.latency_p90_us));
  report->Set("recover_s", Median(samples.recover_s));
  report->Set("setup_s", Median(samples.setup_s));
  report->Set("peak_rss_mb", samples.peak_rss_mb);
  report->Set("delivered_ratio",
              1.0 - static_cast<double>(report->failed()) /
                        static_cast<double>(std::max<uint64_t>(
                            report->attempted(), 1)));
}

/// Microseconds from `start_ns[id]` to the emission of every emitted
/// record.
std::vector<double> RecordLatencies(const Outputs& outputs,
                                    const std::vector<int64_t>& start_ns) {
  std::vector<double> latency;
  latency.reserve(start_ns.size());
  for (size_t id = 0; id < start_ns.size(); ++id) {
    if (outputs.count[id] == 0) continue;
    latency.push_back(
        static_cast<double>(outputs.emit_ns[id] - start_ns[id]) / 1000.0);
  }
  return latency;
}

/// exec.* ratios per input frame.
void PublishExecStats(const ExecStats& stats, uint64_t frames,
                      Report* report) {
  const double n = static_cast<double>(std::max<uint64_t>(frames, 1));
  const double steps =
      static_cast<double>(std::max<uint64_t>(stats.total_steps(), 1));
  report->Set("exec.steps_per_frame",
              static_cast<double>(stats.total_steps()) / n);
  report->Set("exec.empty_step_ratio",
              static_cast<double>(stats.empty_steps) / steps);
  report->Set("exec.ets_per_frame",
              static_cast<double>(stats.ets_generated) / n);
  report->Set("exec.backtrack_hops_per_frame",
              static_cast<double>(stats.backtrack_hops) / n);
  report->Set("exec.idle_returns_per_frame",
              static_cast<double>(stats.idle_returns) / n);
}

/// Removes `dir` and everything below it (a WAL or spill directory left by
/// the previous round).
void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Self-test hook: the record a kDropRecord injection withholds from the
/// program (the first record the reference delivers).
int64_t DroppedRecord(const Options& options,
                      const std::vector<int64_t>& expected) {
  if (options.inject != Inject::kDropRecord) return -1;
  for (size_t id = 0; id < expected.size(); ++id) {
    if (expected[id] >= 0) return static_cast<int64_t>(id);
  }
  return -1;
}

// --- union: the paper's query ---------------------------------------------

/// The filters keep records whose value 1 is below this (out of 100), so
/// every record's fate is known from the input alone.
constexpr int kKeepBelow = 95;

/// S1 is the dense stream and S2 the sparse one: stream ids 0 and 1, in
/// declaration order.
const char kUnionPlan[] =
    "stream S1 ts=internal\n"
    "stream S2 ts=internal\n"
    "filter F1 in=S1 field=1 op=lt value=95\n"
    "filter F2 in=S2 field=1 op=lt value=95\n"
    "union U in=F1,F2\n"
    "sink OUT in=U\n"
    "run ets=on-demand\n";

/// About one sparse record per 10^4 dense ones: the union idle-waits on S2
/// nearly all the time, so nearly every dense record needs an on-demand ETS.
constexpr double kSparseShare = 1e-4;

struct UnionInput {
  std::vector<ScheduledFrame> frames;
  /// Reference output per record: its arrival instant when the filter
  /// keeps it (internal streams are stamped on arrival), -1 otherwise.
  std::vector<int64_t> expected;
};

/// Poisson arrivals at `rate` records per second of virtual time, each
/// with a distinct microsecond arrival hint.
UnionInput MakeUnionInput(uint64_t seed, size_t records, double rate) {
  UnionInput input;
  input.frames.reserve(records);
  input.expected.reserve(records);
  Pcg32 rng(seed, 11);
  Timestamp t = 0;
  for (size_t id = 0; id < records; ++id) {
    t += rng.NextExponentialGap(rate);
    ScheduledFrame entry;
    entry.time = t;
    entry.frame.stream_id = rng.NextBernoulli(kSparseShare) ? 1 : 0;
    entry.frame.arrival_hint = t;
    const int64_t u = rng.NextBelow(100);
    entry.frame.values = {Value(static_cast<int64_t>(id)), Value(u)};
    input.frames.push_back(std::move(entry));
    input.expected.push_back(u < kKeepBelow ? t : -1);
  }
  return input;
}

// --- join: two external streams ------------------------------------------

/// L and R (stream ids 0 and 1) join on value 1, a key in [0, kJoinKeys).
/// The state store's budget holds a fraction of the window state, so most
/// blocks live as spilled block files and probes load them back.
constexpr int kJoinKeys = 64;
constexpr Duration kJoinSkew = 5 * kMillisecond;

std::string JoinPlan(const std::string& state_line) {
  return "stream L ts=external skew=5ms\n"
         "stream R ts=external skew=5ms\n"
         "join J in=L,R window=2s left_field=1 right_field=1\n"
         "sink OUT in=J\n"
         "run ets=on-demand\n" +
         state_line;
}
constexpr Duration kJoinWindow = 2 * kSecond;
constexpr uint64_t kJoinBudget = 32 * 1024;
constexpr Duration kJoinGranularity = 100 * kMillisecond;

std::string JoinStateLine(const std::string& spill_dir) {
  return "state mem_budget=32k spill_dir=" + spill_dir +
         " granularity=100ms\n";
}

/// Poisson arrivals at `rate` per second over both sides; each record's
/// external timestamp lags its arrival by less than the declared skew and
/// never regresses on its stream.
std::vector<ScheduledFrame> MakeJoinInput(uint64_t seed, size_t records,
                                          double rate) {
  std::vector<ScheduledFrame> frames;
  frames.reserve(records);
  Pcg32 rng(seed, 13);
  Timestamp t = kSecond;
  Timestamp last_ts[2] = {0, 0};
  for (size_t id = 0; id < records; ++id) {
    t += rng.NextExponentialGap(rate);
    const int side = static_cast<int>(rng.NextBelow(2));
    const Timestamp ts = std::max<Timestamp>(
        t - rng.NextBelow(static_cast<uint32_t>(kJoinSkew)), last_ts[side]);
    last_ts[side] = ts;
    ScheduledFrame entry;
    entry.time = t;
    entry.frame.stream_id = side;
    entry.frame.timestamp = ts;
    entry.frame.arrival_hint = t;
    const int64_t key = rng.NextBelow(kJoinKeys);
    entry.frame.values = {Value(static_cast<int64_t>(id)), Value(key)};
    frames.push_back(std::move(entry));
  }
  // End of input: each producer closes its stream with a punctuation past
  // every window, so the join can release and expire everything it holds.
  for (int side = 0; side < 2; ++side) {
    ScheduledFrame entry;
    entry.time = t + 1 + side;
    entry.frame.type = WireFrame::Type::kPunctuation;
    entry.frame.stream_id = side;
    entry.frame.timestamp = t + kJoinWindow + kSecond;
    entry.frame.arrival_hint = entry.time;
    frames.push_back(std::move(entry));
  }
  return frames;
}

/// Sink key of one output: the record id (union) or both ids (join).
using OutputKey = uint64_t (*)(const Tuple&);

uint64_t UnionKey(const Tuple& tuple) {
  return static_cast<uint64_t>(RecordId(tuple));
}

uint64_t JoinKey(const Tuple& tuple) {
  return (static_cast<uint64_t>(RecordId(tuple, 0)) << 32) |
         static_cast<uint64_t>(RecordId(tuple, 2));
}

/// One join output: (left id, right id) packed, and its timestamp.
using JoinRow = std::pair<uint64_t, int64_t>;

struct JoinOutputs {
  std::vector<JoinRow> rows;
  std::vector<int64_t> emit_ns;
  SeqDigest digest;
};

void RecordJoinSink(Sink* sink, JoinOutputs* out) {
  sink->set_callback([out](const Tuple& tuple, Timestamp) {
    const uint64_t key = JoinKey(tuple);
    out->rows.emplace_back(key, tuple.timestamp());
    out->emit_ns.push_back(WallNs());
    out->digest.Add(key, static_cast<uint64_t>(tuple.timestamp()));
  });
}

/// Input records taking part in an output row present on one side only.
uint64_t FailedJoinRecords(std::vector<JoinRow> got,
                           std::vector<JoinRow> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  std::vector<JoinRow> diff;
  std::set_symmetric_difference(got.begin(), got.end(), want.begin(),
                                want.end(), std::back_inserter(diff));
  std::set<uint64_t> records;
  for (const JoinRow& row : diff) {
    records.insert(row.first >> 32);
    records.insert(row.first & 0xffffffffu);
  }
  return records.size();
}

// --- shared round machinery ------------------------------------------------

/// Stamps the wall time each record enters its source arc, where a blast
/// record's engine latency starts. Only the server thread pushes source
/// arcs.
class PushStamp : public BufferListener {
 public:
  explicit PushStamp(std::vector<int64_t>* push_ns) : push_ns_(push_ns) {}
  void OnPush(const StreamBuffer& buffer, const Tuple& tuple) override {
    (void)buffer;
    if (tuple.is_data()) {
      (*push_ns_)[static_cast<size_t>(RecordId(tuple))] = WallNs();
    }
  }
  void OnPop(const StreamBuffer& buffer, const Tuple& tuple) override {
    (void)buffer;
    (void)tuple;
  }

 private:
  std::vector<int64_t>* push_ns_;
};

/// The frames the feeder sends: all of them, or all but the self-test's
/// dropped record.
std::vector<ScheduledFrame> WithoutRecord(
    const std::vector<ScheduledFrame>& frames, int64_t dropped) {
  std::vector<ScheduledFrame> sent = frames;
  if (dropped >= 0) sent.erase(sent.begin() + dropped);
  return sent;
}

/// One frame-driven blast: the stack (kept for its accessors), the wall
/// time of the first send, and each record's push into its source arc.
struct Blast {
  explicit Blast(size_t records)
      : push_ns(records, 0), stamp(std::make_unique<PushStamp>(&push_ns)) {}
  std::vector<int64_t> push_ns;
  /// Declared before the stack so it outlives the graph it listens on.
  std::unique_ptr<PushStamp> stamp;
  std::unique_ptr<Stack> stack;
  Status status;
  int64_t start_ns = 0;
  double send_s = 0;
};

/// Builds a stack, serves it on a second thread, and sends `frames` over
/// one connection as fast as TCP accepts them. Returns after the server has
/// drained every frame (frame-driven mode ends when the peer is gone).
Blast RunBlast(const std::string& text,
               const std::vector<ScheduledFrame>& frames, size_t records,
               const AttachSinks& attach) {
  Blast blast(records);
  StackConfig config;
  config.text = text;
  Result<std::unique_ptr<Stack>> built = Stack::Build(config);
  if (!built.ok()) {
    blast.status = built.status();
    return blast;
  }
  blast.stack = std::move(*built);
  attach(blast.stack->graph());
  for (Source* source : blast.stack->graph()->sources()) {
    source->output()->AddListener(blast.stamp.get());
  }
  IngestServer* server = blast.stack->server();
  Status served;
  std::thread serve([&] { served = server->Run(); });

  FeedClientOptions feed;
  feed.port = server->port();
  FeedClient client(feed);
  Status fed = client.Connect();
  blast.start_ns = WallNs();
  if (fed.ok()) {
    Result<uint64_t> sent = client.Send(frames);
    if (!sent.ok()) fed = sent.status();
  }
  blast.send_s = SecondsSince(blast.start_ns);
  client.Close();
  // A feeder that failed never disconnected cleanly; stop the server
  // instead of letting it wait out its wall limit.
  if (!fed.ok()) server->Stop();
  serve.join();
  blast.status = fed.ok() ? served : fed;
  return blast;
}

void CheckStatus(const Status& status, const char* what, Report* report) {
  report->Check(status.ok(), std::string(what) + ": " + status.ToString());
}

/// Common checks of one live round against its reference.
void CheckRound(const char* what, Stack* stack, const SinkStream& stream,
                const SeqDigest& reference, const Options& options,
                Report* report) {
  report->Check(stack->BufferedData() == 0,
                std::string(what) + ": records left in arcs after the run");
  SeqDigest digest = stream.seq;
  if (options.inject == Inject::kCorruptDigest) digest.hash ^= 1;
  report->Check(digest == reference,
                std::string(what) + ": sink digest differs from the reference");
  report->Check(stream.unknown == 0,
                std::string(what) + ": sink emitted unknown record ids");
}

/// Per-layer numbers of the traced single-thread drive, from its spans.
void PublishSpans(const SpanLog& spans, uint64_t frames, Report* report) {
  const std::map<std::string, SpanLog::Totals> totals = spans.Summarize();
  auto self_ns = [&](const char* name) -> double {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const double n = static_cast<double>(std::max<uint64_t>(frames, 1));
  report->Set("net.decode_ns_per_frame",
              (self_ns("net.feed") + self_ns("net.decode")) / n);
  if (totals.count("wal.append") > 0) {
    report->Set("wal.append_ns_per_frame", self_ns("wal.append") / n);
  }
  report->Set("source.ingest_ns_per_frame", self_ns("source.ingest") / n);
  report->Set("exec.run_ns_per_frame", self_ns("exec.run") / n);
  report->Set("sink.emit_ns_per_frame", self_ns("sink.emit") / n);
  report->Set("trace.spans", static_cast<double>(spans.size()));
}

/// Server-side accessors after a live blast.
void PublishServer(const Blast& blast, uint64_t frames, Report* report) {
  IngestServer* server = blast.stack->server();
  report->Set("net.send_s", blast.send_s);
  report->Set("net.frames_ingested",
              static_cast<double>(server->frames_ingested()));
  report->Set("net.bytes_per_frame",
              static_cast<double>(server->bytes_received()) /
                  static_cast<double>(std::max<uint64_t>(
                      server->frames_ingested(), 1)));
  report->Set("net.decode_errors",
              static_cast<double>(server->decode_errors()));
  report->Set("buffer.peak_total",
              static_cast<double>(server->queue_tracker().peak_total()));
  PublishExecStats(blast.stack->executor()->stats(), frames, report);
}

double IdleWaitFraction(Stack* stack, const char* op) {
  const IdleWaitTracker* tracker =
      stack->executor()->idle_tracker(stack->Find(op)->id());
  return tracker == nullptr ? 0.0
                            : tracker->IdleFraction(0, stack->clock()->now());
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// Runs `round` until the run's seconds are used up (and at least
/// kMinRounds times). A traced run needs exactly kMinRounds: one untraced
/// round to compare against, one traced.
template <typename Round>
void RepeatRounds(const Options& options, Samples* samples, Round round) {
  const int64_t start = WallNs();
  for (int i = 0; i < kMinRounds ||
                  (!options.trace && SecondsSince(start) < options.seconds);
       ++i) {
    round(i);
    if (i == 0) samples->peak_rss_mb = PeakRssMb();
  }
}

/// The traced run of a frame-driven workload: the server's calls in one
/// thread (DriveInProcess) over the bytes the feeder sends, on fresh
/// stacks of `text`, once untraced and once with spans and buffer
/// listeners. Both must reproduce the live sink digest `live`; publishes
/// span self times, buffer waits and the tracing overhead (traced over
/// untraced wall time).
void TracedDrives(const Options& options, const std::string& text,
                  const std::string& bytes, const std::string& state_dir,
                  OutputKey key, const SeqDigest& live, Report* report) {
  double drive_s[2] = {0, 0};
  for (int traced = 0; traced < 2; ++traced) {
    RemoveDir(state_dir);
    SpanLog spans;
    SpanLog* log = traced ? &spans : nullptr;
    ArcWaits arc_waits;
    SeqDigest digest;
    StackConfig config;
    config.text = text;
    config.listen = false;
    Result<std::unique_ptr<Stack>> built = Stack::Build(config);
    CheckStatus(built.status(), "traced stack", report);
    if (!built.ok()) return;
    Stack* stack = built->get();
    if (traced) arc_waits.Attach(stack->graph());
    stack->graph()->sinks()[0]->set_callback(
        [&digest, log, key](const Tuple& tuple, Timestamp) {
          ScopedSpan span(log, "sink.emit", RecordId(tuple));
          digest.Add(key(tuple), static_cast<uint64_t>(tuple.timestamp()));
        });
    uint64_t frames = 0;
    drive_s[traced] = DriveInProcess(stack, bytes, log, &frames);
    report->Check(digest == live,
                  "traced run sink digest differs from the live run");
    report->Check(stack->BufferedData() == 0,
                  "traced run left records in arcs");
    if (!traced) continue;
    if (stack->recovery() != nullptr) {
      const int64_t flush_start = WallNs();
      CheckStatus(stack->recovery()->FlushWal(), "WAL flush", report);
      report->Set("wal.flush_ms", SecondsSince(flush_start) * 1e3);
    }
    PublishSpans(spans, frames, report);
    arc_waits.Publish(report);
    spans.WriteJson(options.work_dir + "/spans-" + options.workload +
                    ".json");
  }
  report->Set("trace.overhead_ratio", drive_s[1] / drive_s[0]);
}

/// Set-up is a fraction of a millisecond, so one sample per round is
/// noise: add `kSetupSamples` builds of `config` (bound and listening,
/// each on an emptied WAL or spill directory) to the run's setup_s
/// samples.
constexpr int kSetupSamples = 15;

void SampleSetup(const StackConfig& config, const std::string& state_dir,
                 std::vector<double>* setup_s) {
  for (int i = 0; i < kSetupSamples; ++i) {
    if (!state_dir.empty()) RemoveDir(state_dir);
    Result<std::unique_ptr<Stack>> built = Stack::Build(config);
    if (built.ok()) setup_s->push_back((*built)->setup_s());
  }
}

/// Recovery of a workload without a WAL: the producer replays its input
/// into a fresh stack of `text`, driven in process like the traced run.
/// Timed from Build until the engine is drained.
double ReplayFromUpstream(const std::string& text, const std::string& bytes,
                          const AttachSinks& attach, Report* report) {
  const int64_t start = WallNs();
  StackConfig config;
  config.text = text;
  config.listen = false;
  Result<std::unique_ptr<Stack>> built = Stack::Build(config);
  CheckStatus(built.status(), "replay stack", report);
  if (!built.ok()) return 0;
  attach((*built)->graph());
  uint64_t frames = 0;
  DriveInProcess(built->get(), bytes, nullptr, &frames);
  const double seconds = SecondsSince(start);
  report->Check((*built)->BufferedData() == 0,
                "replayed stack left records in arcs");
  return seconds;
}

}  // namespace

// --- union_wal_blast --------------------------------------------------------

void RunUnionWalBlast(const Options& options, Report* report) {
  const size_t records = options.tiny ? 4000 : 50000;
  const UnionInput input = MakeUnionInput(options.seed, records, 100000.0);
  const std::string wal_dir = options.work_dir + "/wal";
  const std::string text = std::string(kUnionPlan) + "wal dir=" + wal_dir +
                           " sync=interval sync_interval_bytes=1048576\n";

  // Oracle: the same frames through an in-process Simulation.
  Outputs reference(records);
  SinkStream reference_stream;
  const SimResult simulated =
      Simulate(kUnionPlan, input.frames, 1, ShardMode::kDeterministic,
               [&](QueryGraph* graph) {
                 RecordSink(graph->sinks()[0], &reference, &reference_stream);
               });
  report->Check(simulated.buffered == 0 &&
                    FailedRecords(reference, input.expected, true) == 0,
                "oracle simulation does not deliver the filtered input");

  const int64_t dropped = DroppedRecord(options, input.expected);
  const std::vector<ScheduledFrame> sent =
      WithoutRecord(input.frames, dropped);
  Samples samples;
  SpanLog spans;
  SeqDigest live_digest;
  RepeatRounds(options, &samples, [&](int round) {
    RemoveDir(wal_dir);
    Outputs out(records);
    SinkStream stream;
    Blast blast = RunBlast(text, sent, records, [&](QueryGraph* graph) {
      RecordSink(graph->sinks()[0], &out, &stream);
    });
    CheckStatus(blast.status, "union_wal_blast serve", report);
    if (blast.stack == nullptr) return;
    CheckRound("union_wal_blast", blast.stack.get(), stream,
               reference_stream.seq, options, report);
    report->AddRecords(records, FailedRecords(out, reference.ts, true));
    samples.setup_s.push_back(blast.stack->setup_s());
    samples.throughput.push_back(
        static_cast<double>(records) * 1e9 /
        static_cast<double>(stream.last_emit_ns - blast.start_ns));
    samples.AddLatencies(RecordLatencies(out, blast.push_ns));
    if (round == 0) live_digest = stream.seq;
    if (options.trace && round == 0) {
      PublishServer(blast, records, report);
      report->Set("wal.bytes_per_frame",
                  static_cast<double>(DirBytes(wal_dir)) /
                      static_cast<double>(records));
      report->Set("union.idle_wait_frac",
                  IdleWaitFraction(blast.stack.get(), "U"));
    }
    blast.stack.reset();

    // Recovery: a fresh stack opens the run's WAL (checkpoints off) and
    // replays it; the recovered sink must equal the live one. Replay only
    // reads the log, so each round recovers twice for twice the samples.
    for (int attempt = 0; attempt < 2; ++attempt) {
      SinkStream recovered;
      SpanLog* recovery_spans =
          options.trace && round == 0 && attempt == 0 ? &spans : nullptr;
      const int64_t start = WallNs();
      StackConfig config;
      config.text = text;
      Result<std::unique_ptr<Stack>> rebuilt =
          Stack::Build(config, recovery_spans);
      CheckStatus(rebuilt.status(), "union_wal_blast recovery", report);
      if (!rebuilt.ok()) return;
      Outputs outputs(records);
      RecordSink((*rebuilt)->graph()->sinks()[0], &outputs, &recovered);
      {
        ScopedSpan span(recovery_spans, "recovery.replay");
        CheckStatus((*rebuilt)->ReplayWal(), "union_wal_blast replay", report);
      }
      samples.recover_s.push_back(SecondsSince(start));
      report->Check(recovered.seq == stream.seq,
                    "recovered sink digest differs from the live run");
    }
  });

  if (!options.trace) {
    StackConfig config;
    config.text = text;
    SampleSetup(config, wal_dir, &samples.setup_s);
    PublishEndToEnd(samples, report);
    return;
  }
  std::map<std::string, SpanLog::Totals> recovery = spans.Summarize();
  report->Set("recovery.open_s",
              static_cast<double>(recovery["recovery.open"].total_ns) * 1e-9);
  report->Set("recovery.replay_s",
              static_cast<double>(recovery["recovery.replay"].total_ns) * 1e-9);

  int64_t encode_ns = 0;
  const std::string bytes = EncodeAll(input.frames, &encode_ns);
  report->Set("net.encode_ns_per_frame",
              static_cast<double>(encode_ns) / static_cast<double>(records));
  TracedDrives(options, text, bytes, wal_dir, UnionKey, live_digest, report);
  MeasureShardedJob(options, report);
}

// --- union_paced ------------------------------------------------------------

namespace {

/// Open-loop rate of union_paced, records per second: well under the
/// server's capacity (it backs up near 100k/s on 4 cores), so latency
/// measures release, not backlog.
constexpr double kPacedRate = 20000.0;

/// Waits for `due_ns` on the wall clock: sleeps while it is far away,
/// spins the last stretch so sends leave on time.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 200 * 1000;
  int64_t now = WallNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (WallNs() < due_ns) {
  }
}

struct PacedRound {
  std::unique_ptr<Stack> stack;
  Status status;
  /// Wall instant of schedule time 0.
  int64_t start_ns = 0;
  /// Actual send minus due time, one per record sent.
  std::vector<double> late_us;
};

/// Serves one wall-clock stack and sends every frame at its due time
/// (start + arrival hint), whether or not the server keeps up.
PacedRound RunPacedRound(const std::vector<ScheduledFrame>& frames,
                         int64_t dropped, const AttachSinks& attach,
                         SpanLog* spans) {
  PacedRound round;
  StackConfig config;
  config.text = kUnionPlan;
  config.clock = IngestClock::Mode::kWallClock;
  // Serve past the last due time long enough to drain every record, even
  // when a stall of the shared machine made the generator late.
  config.horizon = frames.back().time + 250 * kMillisecond;
  Result<std::unique_ptr<Stack>> built = Stack::Build(config);
  if (!built.ok()) {
    round.status = built.status();
    return round;
  }
  round.stack = std::move(*built);
  attach(round.stack->graph());
  IngestServer* server = round.stack->server();
  Status served;
  std::thread serve([&] { served = server->Run(); });

  FeedClientOptions feed;
  feed.port = server->port();
  FeedClient client(feed);
  Status fed = client.Connect();
  round.late_us.reserve(frames.size());
  round.start_ns = WallNs() + 1000 * 1000;
  for (size_t i = 0; i < frames.size() && fed.ok(); ++i) {
    if (static_cast<int64_t>(i) == dropped) continue;
    const int64_t due = round.start_ns + frames[i].time * 1000;
    WaitUntil(due);
    round.late_us.push_back(static_cast<double>(WallNs() - due) / 1000.0);
    ScopedSpan span(spans, "gen.send", static_cast<int64_t>(i));
    fed = client.SendFrame(frames[i].frame);
  }
  client.Close();
  serve.join();
  round.status = fed.ok() ? served : fed;
  return round;
}

}  // namespace

void RunUnionPaced(const Options& options, Report* report) {
  // Sleeps shorter than the default 50 us timer slack would overshoot.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double round_s = options.tiny ? 0.2 : 1.0;
  const size_t records = static_cast<size_t>(kPacedRate * round_s);
  const UnionInput input = MakeUnionInput(options.seed, records, kPacedRate);
  const int64_t dropped = DroppedRecord(options, input.expected);
  int64_t encode_ns = 0;
  const std::string bytes = EncodeAll(input.frames, &encode_ns);
  SetDigest kept;
  for (size_t id = 0; id < records; ++id) {
    if (input.expected[id] >= 0) kept.Add(id, 0);
  }

  Samples samples;
  std::vector<double> late_us;
  RepeatRounds(options, &samples, [&](int round_index) {
    const bool traced = options.trace && round_index == 1;
    Outputs out(records);
    SinkStream stream;
    ArcWaits arc_waits;
    // Spans per thread: the generator's sends, the server's sink emits.
    SpanLog gen_spans, sink_spans;
    PacedRound round = RunPacedRound(
        input.frames, dropped,
        [&](QueryGraph* graph) {
          RecordSink(graph->sinks()[0], &out, &stream,
                     traced ? &sink_spans : nullptr);
          if (traced) arc_waits.Attach(graph);
        },
        traced ? &gen_spans : nullptr);
    CheckStatus(round.status, "union_paced serve", report);
    if (round.stack == nullptr) return;
    Stack* stack = round.stack.get();
    // Wall-clock stamps differ run to run, so the oracle is the filter:
    // exactly the kept records, in nondecreasing timestamp order, with no
    // order violations on any arc.
    report->AddRecords(records, FailedRecords(out, input.expected, false));
    SetDigest delivered;
    for (size_t id = 0; id < records; ++id) {
      for (uint32_t k = 0; k < out.count[id]; ++k) delivered.Add(id, 0);
    }
    if (options.inject == Inject::kCorruptDigest) delivered.sum ^= 1;
    report->Check(delivered == kept,
                  "union_paced: delivered records differ from the filter's");
    report->Check(stack->BufferedData() == 0,
                  "union_paced: records left in arcs after the run");
    report->Check(!stream.regressed,
                  "union_paced: output timestamps decreased");
    report->Check(stack->server()->order_validator().violations() == 0,
                  "union_paced: order violations on arcs");
    report->Check(stream.unknown == 0,
                  "union_paced: sink emitted unknown record ids");
    std::vector<int64_t> due_ns(records);
    for (size_t id = 0; id < records; ++id) {
      due_ns[id] = round.start_ns + input.frames[id].time * 1000;
    }
    const std::vector<double> latency = RecordLatencies(out, due_ns);
    if (traced) {
      report->Set("trace.overhead_ratio", Quantile(latency, 0.5) /
                                              Median(samples.latency_p50_us));
      arc_waits.Publish(report);
      PublishExecStats(stack->executor()->stats(), records, report);
      report->Set("net.frames_ingested",
                  static_cast<double>(stack->server()->frames_ingested()));
      report->Set("net.decode_errors",
                  static_cast<double>(stack->server()->decode_errors()));
      report->Set("net.bytes_per_frame",
                  static_cast<double>(stack->server()->bytes_received()) /
                      static_cast<double>(records));
      report->Set("buffer.peak_total",
                  static_cast<double>(
                      stack->server()->queue_tracker().peak_total()));
      report->Set("union.idle_wait_frac", IdleWaitFraction(stack, "U"));
      report->Set("net.send_s",
                  static_cast<double>(
                      gen_spans.Summarize()["gen.send"].total_ns) *
                      1e-9);
      report->Set("sink.emit_ns_per_frame",
                  static_cast<double>(
                      sink_spans.Summarize()["sink.emit"].self_ns) /
                      static_cast<double>(records));
      report->Set("trace.spans",
                  static_cast<double>(gen_spans.size() + sink_spans.size()));
      return;
    }
    samples.AddLatencies(latency);
    late_us.insert(late_us.end(), round.late_us.begin(), round.late_us.end());
    samples.setup_s.push_back(stack->setup_s());
    samples.throughput.push_back(
        static_cast<double>(records) * 1e9 /
        static_cast<double>(stream.last_emit_ns - round.start_ns));
    round.stack.reset();

    // No WAL: a restarted stack recovers by the producer replaying its
    // input. Frame-driven, so stamps follow the due times, not the wall:
    // the replay must deliver the same records, not the same stamps. A
    // replay takes a few tens of milliseconds, so each round takes several
    // samples.
    for (int attempt = 0; attempt < 5; ++attempt) {
      Outputs replayed(records);
      SinkStream replayed_stream;
      samples.recover_s.push_back(ReplayFromUpstream(
          kUnionPlan, bytes,
          [&](QueryGraph* graph) {
            RecordSink(graph->sinks()[0], &replayed, &replayed_stream);
          },
          report));
      report->Check(replayed.count == out.count,
                    "union_paced: replayed stack delivered other records");
    }
  });
  if (options.trace) {
    report->Set("gen.late_p50_us", Quantile(late_us, 0.50));
    report->Set("gen.late_p99_us", Quantile(late_us, 0.99));
    report->Set("net.encode_ns_per_frame", static_cast<double>(encode_ns) /
                                               static_cast<double>(records));
    report->Set("net.decode_ns_per_frame", DecodeNsPerFrame(bytes));
    return;
  }
  StackConfig config;
  config.text = kUnionPlan;
  config.clock = IngestClock::Mode::kWallClock;
  config.horizon = kSecond;
  SampleSetup(config, "", &samples.setup_s);
  PublishEndToEnd(samples, report);
}

// --- join_spill -------------------------------------------------------------

namespace {

/// Replays the join's state traffic directly against a StateTable pair in
/// a StateStore with the workload's budget, exactly as WindowJoin drives
/// it: expire the other side, probe it by key, append to the own side.
void ReplayStorage(const std::vector<ScheduledFrame>& frames,
                   const std::string& spill_dir, Report* report) {
  RemoveDir(spill_dir);
  StorageConfig config;
  config.mem_budget = kJoinBudget;
  config.spill_dir = spill_dir;
  config.granularity = kJoinGranularity;
  StateStore store(config);
  CheckStatus(store.Init(), "storage replay", report);
  StateTable tables[2];
  for (StateTable& table : tables) {
    table.set_key_field(1);
    table.Bind(&store, nullptr);
  }
  int64_t append_ns = 0, probe_ns = 0, expire_ns = 0;
  uint64_t matches = 0;
  uint64_t rows = 0;
  for (const ScheduledFrame& entry : frames) {
    if (entry.frame.type != WireFrame::Type::kData) continue;
    ++rows;
    const int side = entry.frame.stream_id;
    StateTable& own = tables[side];
    StateTable& other = tables[1 - side];
    const Timestamp ts = *entry.frame.timestamp;
    own.BeginStep(entry.time);
    other.BeginStep(entry.time);
    Tuple tuple = Tuple::MakeData(ts, InlinedValues(entry.frame.values),
                                  TimestampKind::kExternal);
    int64_t t0 = WallNs();
    other.Expire(ts - kJoinWindow);
    int64_t t1 = WallNs();
    other.Probe(ts - kJoinWindow, ts + kJoinWindow, &tuple.value(1),
                [&](const Tuple&) { ++matches; });
    int64_t t2 = WallNs();
    own.Append(std::move(tuple));
    own.MaybeEvict();
    int64_t t3 = WallNs();
    expire_ns += t1 - t0;
    probe_ns += t2 - t1;
    append_ns += t3 - t2;
  }
  const double n = static_cast<double>(rows);
  // The live run ends with every window expired; this replay stops at the
  // end of input, with the window state still spilled.
  report->Set("storage.spilled_bytes",
              static_cast<double>(store.stats().spilled_bytes));
  report->Set("storage.append_ns", static_cast<double>(append_ns) / n);
  report->Set("storage.probe_ns", static_cast<double>(probe_ns) / n);
  report->Set("storage.expire_ns", static_cast<double>(expire_ns) / n);
  report->Check(matches > 0, "storage replay found no join matches");
}

}  // namespace

void RunJoinSpill(const Options& options, Report* report) {
  const size_t records = options.tiny ? 600 : 2000;
  const std::vector<ScheduledFrame> frames =
      MakeJoinInput(options.seed, records, 2000.0);
  const std::string spill_dir = options.work_dir + "/spill";
  const std::string text = JoinPlan(JoinStateLine(spill_dir));

  // Oracle: the same frames, unlimited memory, in-process Simulation.
  JoinOutputs reference;
  const SimResult simulated =
      Simulate(JoinPlan(""), frames, 1, ShardMode::kDeterministic,
               [&](QueryGraph* graph) {
                 RecordJoinSink(graph->sinks()[0], &reference);
               });
  report->Check(simulated.buffered == 0 && !reference.rows.empty(),
                "oracle simulation of the join produced nothing");

  // Every join record takes part in the reference output; drop the first.
  const int64_t dropped = options.inject == Inject::kDropRecord ? 0 : -1;
  const std::vector<ScheduledFrame> sent = WithoutRecord(frames, dropped);
  int64_t encode_ns = 0;
  const std::string bytes = EncodeAll(frames, &encode_ns);
  Samples samples;
  SeqDigest live_digest;
  RepeatRounds(options, &samples, [&](int round) {
    RemoveDir(spill_dir);
    JoinOutputs out;
    Blast blast = RunBlast(text, sent, records, [&](QueryGraph* graph) {
      RecordJoinSink(graph->sinks()[0], &out);
    });
    CheckStatus(blast.status, "join_spill serve", report);
    if (blast.stack == nullptr) return;
    Stack* stack = blast.stack.get();
    report->Check(stack->BufferedData() == 0,
                  "join_spill: records left in arcs after the run");
    SeqDigest digest = out.digest;
    if (options.inject == Inject::kCorruptDigest) digest.hash ^= 1;
    report->Check(digest == reference.digest,
                  "join_spill: sink digest differs from the unlimited run");
    report->AddRecords(records, FailedJoinRecords(out.rows, reference.rows));
    const StorageStats storage = stack->graph()->state_store()->stats();
    report->Check(storage.spills > 0, "join_spill: the store never spilled");
    if (out.rows.empty()) return;
    samples.setup_s.push_back(stack->setup_s());
    samples.throughput.push_back(
        static_cast<double>(records) * 1e9 /
        static_cast<double>(out.emit_ns.back() - blast.start_ns));
    // A join result's latency starts when the later of its two inputs
    // entered the engine.
    std::vector<double> latency;
    latency.reserve(out.rows.size());
    for (size_t i = 0; i < out.rows.size(); ++i) {
      const uint64_t later =
          std::max(out.rows[i].first >> 32, out.rows[i].first & 0xffffffffu);
      latency.push_back(
          static_cast<double>(out.emit_ns[i] - blast.push_ns[later]) / 1000.0);
    }
    samples.AddLatencies(latency);
    if (options.trace && round == 0) {
      PublishServer(blast, records, report);
      report->Set("storage.spills", static_cast<double>(storage.spills));
      report->Set("storage.loads", static_cast<double>(storage.loads));
      report->Set("storage.evictions",
                  static_cast<double>(storage.evictions));
      report->Set("storage.loads_per_probe",
                  static_cast<double>(storage.loads) /
                      static_cast<double>(
                          std::max<uint64_t>(storage.index_probes, 1)));
      const OperatorStats& join = stack->Find("J")->stats();
      report->Set("join.out_per_in",
                  static_cast<double>(join.data_out) /
                      static_cast<double>(std::max<uint64_t>(join.data_in, 1)));
    }
    if (round == 0) live_digest = out.digest;
    blast.stack.reset();

    // No WAL: recovery is the producer replaying its input into a fresh
    // stack; it must reach the live run's sink state.
    RemoveDir(spill_dir);
    JoinOutputs replayed;
    samples.recover_s.push_back(ReplayFromUpstream(
        text, bytes,
        [&](QueryGraph* graph) {
          RecordJoinSink(graph->sinks()[0], &replayed);
        },
        report));
    report->Check(replayed.digest == out.digest,
                  "join_spill: replayed digest differs from the live run");
  });
  if (options.trace) {
    report->Set("net.encode_ns_per_frame",
                static_cast<double>(encode_ns) / static_cast<double>(records));
    TracedDrives(options, text, bytes, spill_dir, JoinKey, live_digest,
                 report);
    ReplayStorage(frames, spill_dir, report);
    return;
  }
  StackConfig config;
  config.text = text;
  SampleSetup(config, spill_dir, &samples.setup_s);
  PublishEndToEnd(samples, report);
}

// --- shared with shards.cc --------------------------------------------------

void RecordSink(Sink* sink, Outputs* outputs, SinkStream* stream,
                SpanLog* spans) {
  sink->set_callback([outputs, stream, spans](const Tuple& tuple, Timestamp) {
    ScopedSpan span(spans, "sink.emit", RecordId(tuple));
    const int64_t now = WallNs();
    const int64_t id = RecordId(tuple);
    const int64_t ts = tuple.timestamp();
    stream->seq.Add(static_cast<uint64_t>(id), static_cast<uint64_t>(ts));
    stream->set.Add(static_cast<uint64_t>(id), static_cast<uint64_t>(ts));
    stream->last_emit_ns = now;
    if (ts < stream->last_ts) stream->regressed = true;
    stream->last_ts = ts;
    if (id < 0 || static_cast<size_t>(id) >= outputs->ts.size()) {
      ++stream->unknown;
      return;
    }
    outputs->ts[static_cast<size_t>(id)] = ts;
    ++outputs->count[static_cast<size_t>(id)];
    outputs->emit_ns[static_cast<size_t>(id)] = now;
  });
}

uint64_t FailedRecords(const Outputs& outputs,
                       const std::vector<int64_t>& expected, bool compare_ts) {
  uint64_t failed = 0;
  for (size_t id = 0; id < expected.size(); ++id) {
    const uint32_t want = expected[id] >= 0 ? 1 : 0;
    if (outputs.count[id] != want ||
        (compare_ts && want == 1 && outputs.ts[id] != expected[id])) {
      ++failed;
    }
  }
  return failed;
}

}  // namespace perfbench
