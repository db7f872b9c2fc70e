// Loopback chaos tests: every wire-fault kind the NetFaultInjector can
// produce is driven against a real IngestServer on 127.0.0.1, and the
// headline assertion is always the same — the server stays up, connections
// that behave keep flowing, and for semantics-preserving faults the output
// is byte-identical to a fault-free run. Kinds that kill the connection
// (rst, reconnect-storm, dup-hello, garbage) run against a WAL-backed
// server and assert exactly-once replay through the HELLO/RESUME handshake.
//
// The second half exercises the ingest-plane hardening directly: admission
// control (kReject with a reason), the global memory budget, outbox/decode
// fail-stop caps, the handshake deadline, the slow-peer degradation ladder
// (shed -> frontier quarantine -> close), short-write regression paths, the
// whole-frame write timeout, and multi-address failover.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "common/check.h"
#include "common/clock.h"
#include "core/tuple.h"
#include "frontier/frontier_tracker.h"
#include "graph/query_graph.h"
#include "net/feed_client.h"
#include "net/feed_schedule.h"
#include "net/ingest_server.h"
#include "net/net_fault.h"
#include "net/wire_format.h"
#include "obs/metrics_registry.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "recovery/recovery_manager.h"
#include "sim/experiment_spec.h"

namespace dsms {
namespace {

using ::testing::HasSubstr;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/dsms_chaos_" + tag;
  std::string cleanup = "rm -rf '" + dir + "'";
  DSMS_CHECK(std::system(cleanup.c_str()) == 0);
  return dir;
}

int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DSMS_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  DSMS_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0);
  return fd;
}

// Blocking read of one complete frame off a raw socket (3s guard) — how the
// admission tests observe the server's kReject reply.
Result<WireFrame> ReadControlFrame(int fd) {
  timeval tv{};
  tv.tv_sec = 3;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  FrameDecoder decoder;
  char buf[512];
  for (;;) {
    WireFrame frame;
    Result<bool> got = decoder.Next(&frame);
    if (!got.ok()) return got.status();
    if (*got) return frame;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return InternalError("peer closed before a frame arrived");
    decoder.Feed(buf, static_cast<size_t>(n));
  }
}

void ExpectSameTuples(const std::vector<Tuple>& want,
                      const std::vector<Tuple>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(want[i].kind(), got[i].kind());
    ASSERT_EQ(want[i].has_timestamp(), got[i].has_timestamp());
    if (want[i].has_timestamp()) {
      EXPECT_EQ(want[i].timestamp(), got[i].timestamp());
    }
    ASSERT_EQ(want[i].num_values(), got[i].num_values());
    for (int v = 0; v < want[i].num_values(); ++v) {
      EXPECT_EQ(want[i].values()[v], got[i].values()[v]) << "value " << v;
    }
  }
}

// Mixed internal/external plan with a heartbeat and a lossy filter: enough
// structure that delivery order, punctuation, and RNG positions all have to
// survive the chaos for outputs to line up.
constexpr char kChaosPlan[] = R"(
stream A ts=internal
stream B ts=external skew=40ms
filter F in=A selectivity=0.8 seed=5
union U in=F,B
sink OUT in=U
feed A process=poisson rate=50 seed=21
feed B process=poisson rate=30 seed=22
heartbeat B period=250ms
run horizon=2s ets=on-demand
)";

std::vector<ScheduledFrame> BuildScheduleFor(const std::string& text) {
  Result<Experiment> experiment = ParseExperiment(text);
  DSMS_CHECK(experiment.ok());
  Result<std::vector<ScheduledFrame>> schedule =
      BuildFeedSchedule(*experiment, experiment->run.horizon);
  DSMS_CHECK(schedule.ok());
  return *std::move(schedule);
}

// The streamets_serve engine stack without recovery, with an options hook so
// each test can arm the hardening knob it exercises.
struct ChaosHarness {
  explicit ChaosHarness(
      const std::string& text,
      IngestClock::Mode mode = IngestClock::Mode::kFrameDriven,
      std::function<void(IngestServerOptions*)> patch = {}) {
    Result<Experiment> parsed = ParseExperiment(text, /*require_feeds=*/false);
    DSMS_CHECK(parsed.ok());
    experiment = std::make_unique<Experiment>(std::move(*parsed));
    graph = experiment->plan.graph.get();
    for (Sink* sink : graph->sinks()) sink->set_collect(true);

    executor = BuildExecutor(experiment.get(), &clock).value();

    IngestServerOptions options;
    options.clock_mode = mode;
    options.horizon = experiment->run.horizon;
    options.wall_limit = 60 * kSecond;  // hang guard
    if (patch) patch(&options);
    server = std::make_unique<IngestServer>(graph, executor.get(), &clock,
                                            options);
    server->set_violation_policy(experiment->run.violations);
  }

  void Serve() {
    DSMS_CHECK(server->Start().ok());
    thread = std::thread([this] { run_status = server->Run(); });
  }
  Status Join() {
    if (!thread.joinable()) return InternalError("server never started");
    thread.join();
    return run_status;
  }

  Sink* sink() { return graph->sinks().front(); }

  std::unique_ptr<Experiment> experiment;
  QueryGraph* graph = nullptr;
  VirtualClock clock;
  std::unique_ptr<Executor> executor;
  std::unique_ptr<IngestServer> server;
  std::thread thread;
  Status run_status;
};

// Fault-free reference: the same plan replayed by an honest FeedClient.
std::vector<Tuple> CleanCollected(const std::string& text) {
  ChaosHarness harness(text);
  const std::vector<ScheduledFrame> schedule = BuildScheduleFor(text);
  harness.Serve();
  FeedClientOptions copts;
  copts.port = harness.server->port();
  FeedClient client(copts);
  DSMS_CHECK(client.Connect().ok());
  Result<uint64_t> sent = client.Send(schedule);
  DSMS_CHECK(sent.ok());
  client.Close();
  DSMS_CHECK(harness.Join().ok());
  return harness.sink()->collected();
}

// The recovery-enabled stack (WAL + checkpoints), in streamets_serve's phase
// order — the chaos kinds that kill the connection resume through this.
struct WalHarness {
  WalHarness(const std::string& text, const std::string& dir,
             std::function<void(IngestServerOptions*)> patch = {}) {
    Result<Experiment> parsed = ParseExperiment(text, /*require_feeds=*/false);
    DSMS_CHECK(parsed.ok());
    experiment = std::make_unique<Experiment>(std::move(*parsed));
    graph = experiment->plan.graph.get();

    RecoveryOptions ropts;
    ropts.dir = dir;
    ropts.wal = true;
    ropts.sync = WalSyncPolicy::kEveryFrame;
    ropts.checkpoint = true;
    ropts.checkpoint_horizon = 250 * kMillisecond;
    recovery = std::make_unique<RecoveryManager>(ropts);
    DSMS_CHECK(recovery->Open().ok());
    executor = BuildExecutor(experiment.get(), &clock, /*base=*/{},
                             recovery.get())
                   .value();

    IngestServerOptions options;
    options.clock_mode = IngestClock::Mode::kFrameDriven;
    options.horizon = experiment->run.horizon;
    options.wall_limit = 60 * kSecond;
    if (patch) patch(&options);
    server = std::make_unique<IngestServer>(graph, executor.get(), &clock,
                                            options);
    server->set_violation_policy(experiment->run.violations);
    server->AttachRecovery(recovery.get());
    if (!recovery->recovered_net_blob().empty()) {
      DSMS_CHECK(server->RestoreNetState(recovery->recovered_net_blob()).ok());
    }
  }

  void Serve() {
    DSMS_CHECK(server->Start().ok());
    if (recovery->recovered()) {
      DSMS_CHECK(server->ReplayRecoveredWal().ok());
    }
    thread = std::thread([this] { run_status = server->Run(); });
  }
  Status Join() {
    if (!thread.joinable()) return InternalError("server never started");
    thread.join();
    return run_status;
  }

  std::unique_ptr<Experiment> experiment;
  QueryGraph* graph = nullptr;
  VirtualClock clock;
  std::unique_ptr<RecoveryManager> recovery;
  std::unique_ptr<Executor> executor;
  std::unique_ptr<IngestServer> server;
  std::thread thread;
  Status run_status;
};

// Fault-free reference through the WAL stack: durable sink bytes.
std::string WalReferenceSink(const std::string& dir) {
  const std::vector<ScheduledFrame> schedule = BuildScheduleFor(kChaosPlan);
  WalHarness harness(kChaosPlan, dir);
  harness.Serve();
  FeedClientOptions copts;
  copts.port = harness.server->port();
  copts.resume = true;
  FeedClient client(copts);
  DSMS_CHECK(client.Connect().ok());
  DSMS_CHECK(client.Handshake().ok());
  Result<uint64_t> sent = client.Send(schedule);
  DSMS_CHECK(sent.ok());
  client.Close();
  DSMS_CHECK(harness.Join().ok());
  DSMS_CHECK(harness.recovery->FlushSinks().ok());
  std::string sink = ReadFile(dir + "/sink-OUT.out");
  DSMS_CHECK(!sink.empty());
  return sink;
}

// One chaotic feed through a WAL server; `inspect` sees the harness after a
// clean Join + sink flush.
ChaosFeedReport RunWalChaos(
    const std::string& dir, const NetFaultSpec& spec,
    const std::function<void(WalHarness&)>& inspect = {}) {
  const std::vector<ScheduledFrame> schedule = BuildScheduleFor(kChaosPlan);
  WalHarness harness(kChaosPlan, dir);
  harness.Serve();
  FeedClientOptions copts;
  copts.port = harness.server->port();
  copts.resume = true;
  copts.max_retries = 3;
  copts.backoff_base = 20 * kMillisecond;
  copts.backoff_max = 100 * kMillisecond;
  ChaosFeeder feeder(copts, spec, /*run_seed=*/0);
  Result<ChaosFeedReport> report = feeder.Run(schedule);
  DSMS_CHECK(report.ok());
  DSMS_CHECK(harness.Join().ok());
  DSMS_CHECK(harness.recovery->FlushSinks().ok());
  if (inspect) inspect(harness);
  return *std::move(report);
}

// --- semantics-preserving kinds: byte-identity without a WAL --------------

TEST(NetChaosLoopbackTest, SplitReplayIsByteIdenticalAndDeterministic) {
  const std::vector<Tuple> reference = CleanCollected(kChaosPlan);
  ASSERT_GT(reference.size(), 0u);
  const std::vector<ScheduledFrame> schedule = BuildScheduleFor(kChaosPlan);

  NetFaultSpec spec;
  spec.kind = NetFaultKind::kSplit;
  spec.seed = 7;
  spec.count = 5;

  auto chaos_run = [&](std::vector<Tuple>* collected) {
    ChaosHarness harness(kChaosPlan);
    harness.Serve();
    FeedClientOptions copts;
    copts.port = harness.server->port();
    ChaosFeeder feeder(copts, spec, /*run_seed=*/3);
    Result<ChaosFeedReport> report = feeder.Run(schedule);
    DSMS_CHECK(report.ok());
    DSMS_CHECK(harness.Join().ok());
    EXPECT_EQ(harness.server->decode_errors(), 0u);
    EXPECT_EQ(harness.server->frames_ingested(), schedule.size());
    *collected = harness.sink()->collected();
    return *std::move(report);
  };

  std::vector<Tuple> first_out, second_out;
  ChaosFeedReport first = chaos_run(&first_out);
  ChaosFeedReport second = chaos_run(&second_out);

  EXPECT_EQ(first.split_frames, 5);
  // Determinism: same (spec, run_seed, schedule) -> byte-identical fault
  // timeline and identical sink output across two full live runs.
  EXPECT_EQ(first.timeline, second.timeline);
  EXPECT_EQ(first.split_frames, second.split_frames);
  ExpectSameTuples(first_out, second_out);
  // Byte-identity vs the fault-free run: splitting writes is invisible to a
  // correct decoder.
  ExpectSameTuples(reference, first_out);
}

TEST(NetChaosLoopbackTest, CoalescedWritesPreserveOutput) {
  const std::vector<Tuple> reference = CleanCollected(kChaosPlan);
  const std::vector<ScheduledFrame> schedule = BuildScheduleFor(kChaosPlan);

  NetFaultSpec spec;
  spec.kind = NetFaultKind::kCoalesce;
  spec.seed = 11;
  spec.count = 4;

  ChaosHarness harness(kChaosPlan);
  harness.Serve();
  FeedClientOptions copts;
  copts.port = harness.server->port();
  ChaosFeeder feeder(copts, spec, /*run_seed=*/1);
  Result<ChaosFeedReport> report = feeder.Run(schedule);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(harness.Join().ok());

  EXPECT_GE(report->coalesced_writes, 1);
  EXPECT_EQ(harness.server->decode_errors(), 0u);
  EXPECT_EQ(harness.server->frames_ingested(), schedule.size());
  ExpectSameTuples(reference, harness.sink()->collected());
}

TEST(NetChaosLoopbackTest, SlowlorisDripPreservesOutput) {
  const std::vector<Tuple> reference = CleanCollected(kChaosPlan);
  const std::vector<ScheduledFrame> schedule = BuildScheduleFor(kChaosPlan);

  NetFaultSpec spec;
  spec.kind = NetFaultKind::kSlowloris;
  spec.seed = 13;
  spec.count = 2;  // each drip sleeps per chunk; keep the wall cost small
  spec.chunk = 7;
  spec.gap = kMillisecond;

  ChaosHarness harness(kChaosPlan);
  harness.Serve();
  FeedClientOptions copts;
  copts.port = harness.server->port();
  ChaosFeeder feeder(copts, spec, /*run_seed=*/1);
  Result<ChaosFeedReport> report = feeder.Run(schedule);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(harness.Join().ok());

  EXPECT_EQ(report->slow_dripped_frames, 2);
  EXPECT_EQ(harness.server->decode_errors(), 0u);
  ExpectSameTuples(reference, harness.sink()->collected());
}

TEST(NetChaosLoopbackTest, ChaosProxySplitKeepsServerOutputIdentical) {
  const std::vector<Tuple> reference = CleanCollected(kChaosPlan);
  const std::vector<ScheduledFrame> schedule = BuildScheduleFor(kChaosPlan);

  ChaosHarness harness(kChaosPlan);
  harness.Serve();

  NetFaultSpec spec;
  spec.kind = NetFaultKind::kSplit;
  spec.seed = 17;
  spec.count = 8;
  spec.bytes = 512;  // a fault every 512 forwarded bytes
  ChaosProxy proxy("127.0.0.1", harness.server->port(), spec, /*run_seed=*/2);
  ASSERT_TRUE(proxy.Start().ok());

  FeedClientOptions copts;
  copts.port = proxy.port();
  FeedClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  Result<uint64_t> sent = client.Send(schedule);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, schedule.size());
  client.Close();
  ASSERT_TRUE(harness.Join().ok());
  proxy.Stop();

  EXPECT_EQ(proxy.connections_accepted(), 1u);
  EXPECT_GT(proxy.bytes_forwarded(), 0u);
  EXPECT_GT(proxy.faults_injected(), 0u);
  EXPECT_EQ(harness.server->decode_errors(), 0u);
  ExpectSameTuples(reference, harness.sink()->collected());
}

// --- handshake deadline & half-open peers ---------------------------------

TEST(NetChaosLoopbackTest, HalfOpenPeersAreReapedByTheHandshakeDeadline) {
  const std::vector<Tuple> reference = CleanCollected(kChaosPlan);
  const std::vector<ScheduledFrame> schedule = BuildScheduleFor(kChaosPlan);

  ChaosHarness harness(kChaosPlan, IngestClock::Mode::kFrameDriven,
                       [](IngestServerOptions* o) {
                         o->handshake_deadline = 50 * kMillisecond;
                       });
  harness.Serve();

  NetFaultSpec spec;
  spec.kind = NetFaultKind::kHalfOpen;
  spec.seed = 19;
  spec.count = 3;
  FeedClientOptions copts;
  copts.port = harness.server->port();
  // Pace the replay (1 wall second per 4 virtual) so the parked half-open
  // sockets are still open when the server's virtual handshake deadline
  // catches up with them mid-feed.
  copts.pace = 0.25;
  ChaosFeeder feeder(copts, spec, /*run_seed=*/4);
  Result<ChaosFeedReport> report = feeder.Run(schedule);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(harness.Join().ok());

  EXPECT_EQ(report->half_open_peers, 3);
  EXPECT_EQ(harness.server->handshake_timeouts(), 3u);
  int reaped = 0;
  for (const ConnectionReport& r : harness.server->connection_reports()) {
    if (r.handshake_timed_out) {
      ++reaped;
      EXPECT_FALSE(r.open);
      EXPECT_EQ(r.frames, 0u);  // never sent a byte, let alone a frame
    }
  }
  EXPECT_EQ(reaped, 3);
  // The mute peers never disturbed the data connection.
  EXPECT_EQ(harness.server->decode_errors(), 0u);
  ExpectSameTuples(reference, harness.sink()->collected());

  MetricsRegistry registry;
  harness.server->PublishTo(&registry);
  EXPECT_EQ(registry.GetCounter("net.handshake_timeouts")->value(), 3u);
}

// --- slow-peer degradation ladder -----------------------------------------

TEST(NetChaosLoopbackTest, SlowPeerClimbsTheDegradationLadder) {
  // Wall-clock mode: byte-rate windows are real time here, so an honest
  // paced feeder stays above the floor in every window while a peer that
  // sends one frame and goes mute starves window after window.
  constexpr char kLadderPlan[] = R"(
stream FAST ts=internal
stream SLOW ts=internal
union U in=FAST,SLOW
sink OUT in=U
feed FAST process=constant rate=100
run horizon=1s ets=on-demand
)";
  ChaosHarness harness(kLadderPlan, IngestClock::Mode::kWallClock,
                       [](IngestServerOptions* o) {
                         o->min_bytes_per_second = 200;
                         o->slow_peer_window = 100 * kMillisecond;
                       });
  const std::vector<ScheduledFrame> schedule = BuildScheduleFor(kLadderPlan);
  harness.Serve();

  // The mute peer: one healthy frame on SLOW (so the stream is attributed
  // to this connection), then silence.
  FeedClientOptions slow_opts;
  slow_opts.port = harness.server->port();
  FeedClient slow_peer(slow_opts);
  ASSERT_TRUE(slow_peer.Connect().ok());
  WireFrame warmup;
  warmup.stream_id = 1;  // SLOW
  warmup.values.emplace_back(std::string("warmup-payload-for-one-window"));
  ASSERT_TRUE(slow_peer.SendFrame(warmup).ok());

  // The honest peer: paced in real time, ~290 bytes per 100ms window.
  FeedClientOptions fast_opts;
  fast_opts.port = harness.server->port();
  fast_opts.pace = 1.0;
  FeedClient fast_peer(fast_opts);
  ASSERT_TRUE(fast_peer.Connect().ok());
  Result<uint64_t> sent = fast_peer.Send(schedule);
  ASSERT_TRUE(sent.ok());
  fast_peer.Close();
  ASSERT_TRUE(harness.Join().ok());
  slow_peer.Close();

  // The ladder ran its full course: shed, then quarantine, then close.
  EXPECT_GE(harness.server->slow_peer_sheds(), 1u);
  EXPECT_GE(harness.server->slow_peer_quarantines(), 1u);
  EXPECT_EQ(harness.server->slow_peer_closes(), 1u);
  int degraded = 0;
  for (const ConnectionReport& r : harness.server->connection_reports()) {
    if (r.slow_strikes > 0) {
      ++degraded;
      EXPECT_GE(r.slow_strikes, 3u);
      EXPECT_EQ(r.degradation, 3);
      EXPECT_FALSE(r.open);
    }
  }
  EXPECT_EQ(degraded, 1);  // the honest peer never struck

  // The misbehaviour reached the frontier's quarantine lifecycle: SLOW's
  // promise was reported and revoked, FAST stayed trusted.
  const FrontierTracker* frontier = harness.executor->frontier();
  EXPECT_GE(frontier->violations(), 1u);
  EXPECT_NE(frontier->health(1), SourceHealth::kHealthy);
  EXPECT_EQ(frontier->health(0), SourceHealth::kHealthy);

  MetricsRegistry registry;
  harness.server->PublishTo(&registry);
  harness.executor->frontier()->PublishTo(&registry, "frontier");
  EXPECT_GE(registry.GetCounter("net.slow_peer_sheds")->value(), 1u);
  EXPECT_GE(registry.GetCounter("net.slow_peer_quarantines")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("net.slow_peer_closes")->value(), 1u);
  EXPECT_GE(registry.GetCounter("frontier.violations")->value(), 1u);
}

// --- connection-killing kinds: exactly-once through HELLO/RESUME ----------

TEST(NetChaosLoopbackTest, RstMidFrameReplaysExactlyOnce) {
  const std::string reference = WalReferenceSink(FreshDir("rst_ref"));

  NetFaultSpec spec;
  spec.kind = NetFaultKind::kRstMidFrame;
  spec.seed = 23;
  spec.count = 3;
  const std::string dir = FreshDir("rst");
  uint64_t ingested = 0;
  ChaosFeedReport report = RunWalChaos(dir, spec, [&](WalHarness& h) {
    ingested = h.server->frames_ingested();
  });

  EXPECT_EQ(report.rst_aborts, 3);
  EXPECT_EQ(report.reconnects, 3);
  // Exactly-once: every schedule frame was delivered exactly once despite
  // three mid-frame resets — the truncated copies never decoded, and the
  // resume handshake skipped everything already durable.
  EXPECT_EQ(ingested, BuildScheduleFor(kChaosPlan).size());
  EXPECT_EQ(ReadFile(dir + "/sink-OUT.out"), reference);
}

TEST(NetChaosLoopbackTest, ReconnectStormWithStaleTokensReplaysExactlyOnce) {
  const std::string reference = WalReferenceSink(FreshDir("storm_ref"));

  NetFaultSpec spec;
  spec.kind = NetFaultKind::kReconnectStorm;
  spec.seed = 29;
  spec.count = 3;  // >= 3 chaotic reconnects, per the acceptance bar
  spec.stale = 2;  // each cycle replays two stale resume tokens first
  const std::string dir = FreshDir("storm");
  uint64_t resume_rejects = 0;
  uint64_t quarantines = 0;
  size_t quarantined_streams = 0;
  ChaosFeedReport report = RunWalChaos(dir, spec, [&](WalHarness& h) {
    resume_rejects = h.server->resume_rejects();
    quarantines = h.executor->frontier()->quarantines();
    quarantined_streams =
        h.executor->frontier()->CountInState(SourceHealth::kQuarantined);
    MetricsRegistry registry;
    h.server->PublishTo(&registry);
    h.executor->frontier()->PublishTo(&registry, "frontier");
    EXPECT_EQ(registry.GetCounter("recovery.resume_rejects")->value(), 6u);
    EXPECT_GE(registry.GetCounter("frontier.quarantines")->value(), 1u);
  });

  EXPECT_EQ(report.reconnects, 3);
  EXPECT_EQ(report.stale_rejects, 6);
  EXPECT_EQ(resume_rejects, 6u);
  // A storm of stale tokens is wire-level evidence: the frontier tracker
  // pushed the implicated streams through the quarantine lifecycle.
  EXPECT_GE(quarantines, 1u);
  EXPECT_GE(quarantined_streams, 1u);
  // Quarantine gates checkpoint-frontier trust, never delivery: output is
  // still byte-identical.
  EXPECT_EQ(ReadFile(dir + "/sink-OUT.out"), reference);
}

TEST(NetChaosLoopbackTest, DuplicateHelloIsAProtocolErrorNotACrash) {
  const std::string reference = WalReferenceSink(FreshDir("dup_ref"));

  NetFaultSpec spec;
  spec.kind = NetFaultKind::kDuplicateHello;
  spec.seed = 31;
  spec.count = 2;
  const std::string dir = FreshDir("dup");
  int offender_conns = 0;
  ChaosFeedReport report = RunWalChaos(dir, spec, [&](WalHarness& h) {
    for (const ConnectionReport& r : h.server->connection_reports()) {
      if (r.protocol_errors > 0) {
        ++offender_conns;
        EXPECT_FALSE(r.open);  // closed on the spot, fail-stop
      }
    }
  });

  EXPECT_EQ(report.duplicate_hellos, 2);
  EXPECT_EQ(report.reconnects, 2);
  EXPECT_EQ(offender_conns, 2);
  EXPECT_EQ(ReadFile(dir + "/sink-OUT.out"), reference);
}

TEST(NetChaosLoopbackTest, GarbageAfterResumePoisonsOnlyTheFaultedConnection) {
  const std::string reference = WalReferenceSink(FreshDir("garbage_ref"));

  NetFaultSpec spec;
  spec.kind = NetFaultKind::kGarbage;
  spec.seed = 37;
  spec.count = 2;
  spec.bytes = 48;
  const std::string dir = FreshDir("garbage");
  uint64_t decode_errors = 0;
  int poisoned_conns = 0;
  ChaosFeedReport report = RunWalChaos(dir, spec, [&](WalHarness& h) {
    decode_errors = h.server->decode_errors();
    for (const ConnectionReport& r : h.server->connection_reports()) {
      if (r.decode_errors > 0) {
        ++poisoned_conns;
        EXPECT_FALSE(r.open);
      }
    }
  });

  EXPECT_EQ(report.garbage_injections, 2);
  // Sticky poisoning is per connection: exactly the two garbage-fed sockets
  // died with a decode error; their replacements (and the sink bytes)
  // stayed clean.
  EXPECT_GE(decode_errors, 2u);
  EXPECT_EQ(poisoned_conns, 2);
  EXPECT_EQ(ReadFile(dir + "/sink-OUT.out"), reference);
}

// --- admission control & resource caps ------------------------------------

constexpr char kTinyPlan[] = R"(
stream A ts=internal
sink OUT in=A
run horizon=500ms
)";

TEST(NetChaosLoopbackTest, AdmissionControlRejectsWithReason) {
  ChaosHarness harness(kTinyPlan, IngestClock::Mode::kWallClock,
                       [](IngestServerOptions* o) { o->max_connections = 1; });
  harness.Serve();

  int first = RawConnect(harness.server->port());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  int second = RawConnect(harness.server->port());
  Result<WireFrame> reject = ReadControlFrame(second);
  ASSERT_TRUE(reject.ok()) << reject.status().ToString();
  EXPECT_EQ(reject->type, WireFrame::Type::kReject);
  ASSERT_EQ(reject->values.size(), 1u);
  EXPECT_THAT(reject->values[0].string_value(), HasSubstr("connection limit"));
  ::close(second);
  ::close(first);
  ASSERT_TRUE(harness.Join().ok());
  EXPECT_EQ(harness.server->admission_rejects(), 1u);
}

TEST(NetChaosLoopbackTest, MemoryBudgetRejectsNewPeersUnderPressure) {
  ChaosHarness harness(kTinyPlan, IngestClock::Mode::kWallClock,
                       [](IngestServerOptions* o) {
                         o->ingest_memory_budget = 1024;
                       });
  harness.Serve();

  // Pin ~2KB in the first connection's decode buffer: a length prefix
  // promising a 60000-byte frame, then only 2000 bytes of it.
  int first = RawConnect(harness.server->port());
  std::string partial;
  const uint32_t claimed = 60000;
  partial.append(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
  partial.append(2000, '\0');
  ASSERT_EQ(::send(first, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  int second = RawConnect(harness.server->port());
  Result<WireFrame> reject = ReadControlFrame(second);
  ASSERT_TRUE(reject.ok()) << reject.status().ToString();
  EXPECT_EQ(reject->type, WireFrame::Type::kReject);
  ASSERT_EQ(reject->values.size(), 1u);
  EXPECT_THAT(reject->values[0].string_value(), HasSubstr("memory budget"));
  ::close(second);
  ::close(first);
  ASSERT_TRUE(harness.Join().ok());
  EXPECT_EQ(harness.server->admission_rejects(), 1u);

  MetricsRegistry registry;
  harness.server->PublishTo(&registry);
  EXPECT_EQ(registry.GetCounter("net.admission_rejects")->value(), 1u);
}

TEST(NetChaosLoopbackTest, OutboxCapFailStopsAHalfOpenReader) {
  ChaosHarness harness(kTinyPlan, IngestClock::Mode::kWallClock,
                       [](IngestServerOptions* o) {
                         // Smaller than even the empty resume-state reply:
                         // the first HELLO answer overruns immediately.
                         o->max_outbox_bytes = 8;
                       });
  harness.Serve();

  int fd = RawConnect(harness.server->port());
  WireFrame hello;
  hello.type = WireFrame::Type::kHello;
  std::string bytes;
  ASSERT_TRUE(EncodeFrame(hello, &bytes).ok());
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  // The server must close us (fail-stop), not buffer toward a mute reader.
  char buf[64];
  timeval tv{};
  tv.tv_sec = 3;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);
  ASSERT_TRUE(harness.Join().ok());

  EXPECT_EQ(harness.server->overrun_closes(), 1u);
  bool overrun_seen = false;
  for (const ConnectionReport& r : harness.server->connection_reports()) {
    if (r.overrun_closed) {
      overrun_seen = true;
      EXPECT_FALSE(r.open);
    }
  }
  EXPECT_TRUE(overrun_seen);
}

// --- short writes, write timeout, failover (EINTR/EAGAIN/EPIPE audit) -----

TEST(NetChaosLoopbackTest, ShortWritesDripTheHandshakeReply) {
  // max_write_bytes=1 forces the server through the partial-write resume
  // path (queued outbox remainder + POLLOUT) on every single byte of the
  // resume-state reply; the handshake must still complete.
  ChaosHarness harness(kChaosPlan, IngestClock::Mode::kFrameDriven,
                       [](IngestServerOptions* o) { o->max_write_bytes = 1; });
  const std::vector<ScheduledFrame> schedule = BuildScheduleFor(kChaosPlan);
  harness.Serve();

  FeedClientOptions copts;
  copts.port = harness.server->port();
  copts.resume = true;
  FeedClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Handshake().ok());
  EXPECT_TRUE(client.acked().empty());  // no WAL: nothing durable
  Result<uint64_t> sent = client.Send(schedule);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, schedule.size());
  client.Close();
  ASSERT_TRUE(harness.Join().ok());
  EXPECT_EQ(harness.server->frames_ingested(), schedule.size());
  EXPECT_EQ(harness.server->decode_errors(), 0u);
}

TEST(NetChaosLoopbackTest, SlowReaderTripsTheWholeFrameWriteTimeout) {
  // A hand-rolled slow reader: tiny receive buffer, drains ~2KB every 20ms.
  // Individual sends keep succeeding, so only a deadline that spans ALL
  // partial sends of the frame can catch the stall.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  int rcvbuf = 4096;
  ::setsockopt(listener, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  std::atomic<bool> stop{false};
  std::thread reader([listener, &stop] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    char buf[2048];
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) break;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) break;
    }
    ::close(fd);
  });

  FeedClientOptions copts;
  copts.port = ntohs(addr.sin_port);
  copts.write_timeout = 200 * kMillisecond;
  // Without the cap TCP autotuning grows SO_SNDBUF into the megabytes and
  // the whole frame "succeeds" into kernel memory without a single stall.
  copts.send_buffer_bytes = 16 * 1024;
  FeedClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  WireFrame big;
  big.stream_id = 0;
  big.values.emplace_back(std::string(900 * 1024, 'x'));
  Status sent = client.SendFrame(big);
  EXPECT_EQ(sent.code(), StatusCode::kDeadlineExceeded) << sent.ToString();
  client.Close();
  stop = true;
  reader.join();
  ::close(listener);
}

TEST(NetChaosLoopbackTest, FailoverDialsTheFallbackAddress) {
  // A port with nothing listening: bind an ephemeral port, note it, close.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  ChaosHarness harness(kChaosPlan);
  const std::vector<ScheduledFrame> schedule = BuildScheduleFor(kChaosPlan);
  harness.Serve();

  FeedClientOptions copts;
  copts.port = dead_port;  // primary refuses
  copts.fallback_addresses.push_back(
      "127.0.0.1:" + std::to_string(harness.server->port()));
  copts.max_retries = 2;
  copts.backoff_base = 10 * kMillisecond;
  copts.backoff_max = 50 * kMillisecond;
  FeedClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  Result<uint64_t> sent = client.Send(schedule);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, schedule.size());
  client.Close();
  ASSERT_TRUE(harness.Join().ok());
  EXPECT_EQ(harness.server->frames_ingested(), schedule.size());
}

}  // namespace
}  // namespace dsms
