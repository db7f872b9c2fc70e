#ifndef DSMS_NET_INGEST_SERVER_H_
#define DSMS_NET_INGEST_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/time.h"
#include "exec/executor.h"
#include "graph/query_graph.h"
#include "metrics/order_validator.h"
#include "metrics/queue_size_tracker.h"
#include "net/ingest_clock.h"
#include "net/skew_tracker.h"
#include "net/wire_format.h"

namespace dsms {

class MetricsRegistry;
class RecoveryManager;
class Tracer;
class BufferOccupancyTracer;

struct IngestServerOptions {
  /// Listen address; port 0 binds an ephemeral port (read it back with
  /// port() after Start).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// How virtual time advances between frames (see net/ingest_clock.h).
  IngestClock::Mode clock_mode = IngestClock::Mode::kWallClock;
  /// Virtual-time horizon: Run returns once the clock reaches it. In wall
  /// mode one virtual microsecond is one real microsecond, so this is also
  /// the serve duration.
  Duration horizon = 60 * kSecond;
  /// Largest accepted frame body; a peer announcing more is dropped.
  size_t max_frame_bytes = kMaxFrameBytes;
  /// Decoded-but-undelivered frames buffered per connection before the
  /// server stops reading that socket (kernel-level TCP backpressure).
  size_t max_pending_frames = 1024;
  /// Longest single poll(2) sleep, in milliseconds of real time. Bounds how
  /// stale the wall-mode virtual clock can get while fully idle.
  int poll_granularity_ms = 20;
  /// Wall-clock cap on the whole Run call; 0 = none. A safety net for
  /// frame-driven runs whose peer stalls forever (returns DeadlineExceeded).
  Duration wall_limit = 0;
  /// Virtual time at which Run returns Aborted (chaos testing: the
  /// `crash at=` plan statement; streamets_serve turns it into an immediate
  /// _Exit so nothing flushes). 0 = never. The check sits in the run loop,
  /// so the "crash" lands between frame deliveries like a real kill.
  Timestamp crash_at = 0;
  /// Per-connection idle/read timeout in virtual time (0 = off): a peer
  /// that stays silent this long — never sent its HELLO, or went quiet
  /// without a frontier lease covering it — is closed and counted in
  /// net.idle_closes / net.conn.<id>.idle_closed. Its streams' promises
  /// are revoked from the checkpoint frontier like any disconnect.
  Duration idle_timeout = 0;

  // --- ingest-plane hardening (wire-level chaos; docs/network_ingest.md) ---

  /// Virtual-time deadline for a brand-new connection to show signs of life
  /// (0 = off). Distinct from idle_timeout: this one reaps half-open peers
  /// that connect and never send a single byte — the classic port-scanner /
  /// dead-NAT connection — long before the idle sweep would bother.
  Duration handshake_deadline = 0;
  /// Cap on bytes a connection may hold in its decoder buffer (partial
  /// frames awaiting completion). 0 = 2 * max_frame_bytes. Exceeding it is
  /// a fail-stop close: a peer dripping an endless "almost frame" cannot
  /// pin memory.
  size_t max_decode_buffer_bytes = 0;
  /// Cap on bytes queued toward the peer (handshake replies in the outbox).
  /// A peer that HELLOs and then never reads its reply trips this and is
  /// closed (fail-stop) instead of growing the outbox without bound.
  size_t max_outbox_bytes = 256 * 1024;
  /// Admission control: maximum simultaneously open connections (0 = no
  /// cap). Excess peers get a best-effort kReject frame with a reason, then
  /// close; counted in net.admission_rejects.
  int max_connections = 0;
  /// Global ingest memory budget in bytes across every connection's decoder
  /// buffer, undelivered pending frames, and outbox (0 = no cap). While the
  /// footprint sits at or above the budget, new connections are rejected
  /// (kReject) rather than admitted into an OOM.
  size_t ingest_memory_budget = 0;
  /// Slow-peer floor (0 = off): minimum bytes per virtual second every open
  /// connection must sustain, measured over slow_peer_window. Falling below
  /// climbs the degradation ladder: shed -> frontier quarantine -> close; a
  /// clean window steps back down one tier (hysteresis).
  uint64_t min_bytes_per_second = 0;
  /// Measurement window for the slow-peer floor (virtual time).
  Duration slow_peer_window = kSecond;
  /// Frame-driven only: wall-clock grace after the last peer disconnects
  /// before the "every peer came and went" run exit fires. A resuming
  /// feeder mid-reconnect (chaos storms, rolling restarts) briefly leaves
  /// the server with zero open connections; without the grace the server
  /// would declare the run over and the reconnect would dial into a dead
  /// loop. 0 = exit immediately (the pre-hardening behaviour).
  Duration reconnect_grace = 200 * kMillisecond;
  /// Test shim: cap on bytes handed to one send(2) per FlushOutbox call
  /// (0 = unlimited). Forces the partial-write paths deterministically —
  /// loopback sockets otherwise accept whole handshake replies at once.
  size_t max_write_bytes = 0;
};

/// Per-connection ingest counters, exposed for metrics and tests.
struct ConnectionReport {
  int64_t id = 0;
  bool open = false;
  uint64_t frames = 0;
  uint64_t data_frames = 0;
  uint64_t punct_frames = 0;
  uint64_t bytes = 0;
  uint64_t decode_errors = 0;
  uint64_t protocol_errors = 0;
  uint64_t skew_violations = 0;
  uint64_t shed_tuples = 0;
  Duration max_skew = 0;
  /// Peer completed the HELLO handshake (a silent port-scanner never does).
  bool helloed = false;
  /// Closed by the idle sweep, not by the peer (see options.idle_timeout).
  bool idle_closed = false;
  /// Closed by the handshake deadline: connected and never sent a byte.
  bool handshake_timed_out = false;
  /// Closed fail-stop for overrunning the decode-buffer or outbox cap.
  bool overrun_closed = false;
  /// Slow-peer windows below the byte-rate floor (ladder strikes).
  uint64_t slow_strikes = 0;
  /// Current degradation tier: 0 healthy, 1 shedding, 2 quarantined,
  /// 3 closed.
  int degradation = 0;
  /// Frames dropped because the connection sat at tier >= 1.
  uint64_t degraded_shed_frames = 0;
};

/// Non-blocking poll(2) event-loop server feeding a query graph from live
/// TCP connections — the network analogue of sim/Simulation. The run loop
/// mirrors Simulation::Run exactly: deliver due frames, execute one
/// operator step, and when the engine is idle advance the virtual clock
/// (wall elapsed time in kWallClock mode, the next frame's arrival hint in
/// kFrameDriven mode). Tuples enter through the same Source::Ingest* paths
/// and the same bounded StreamBuffer/OverloadPolicy machinery as simulated
/// feeds, so every engine defense — backpressure, shedding, frontier lease
/// expiry, EtsGate fallback bounds — works unchanged on network input.
///
/// Timestamp assignment at ingest follows the source's TimestampKind:
///   - internal: stamped with the virtual arrival time (quantized by the
///     source's granularity);
///   - latent:   no timestamp;
///   - external: the frame must carry the producer's timestamp; a
///     per-connection SkewTracker checks it against the stream's declared
///     bound δ, and violating or order-breaking tuples are routed through
///     Source::IngestFaulty so the attached OrderValidator's policy — not a
///     crash — decides their fate.
///
/// Malformed bytes never abort the process: a decode error poisons that
/// connection's decoder and the connection is closed; other connections and
/// the query keep running.
class IngestServer {
 public:
  /// None of `graph`, `executor`, `clock` are owned; all must outlive the
  /// server. The executor must run over `graph` and share `clock`. Like
  /// Simulation, the constructor attaches a QueueSizeTracker and an
  /// OrderValidator to every arc (the destructor detaches).
  IngestServer(QueryGraph* graph, Executor* executor, VirtualClock* clock,
               IngestServerOptions options);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds and listens. After success port() returns the bound port.
  Status Start();

  uint16_t port() const { return port_; }

  /// Attaches an execution tracer (same wiring as Simulation::AttachTracer);
  /// must outlive the server, call at most once, before Run.
  void AttachTracer(Tracer* tracer);

  /// Attaches crash recovery (must outlive the server; call before Start).
  /// With a WAL-enabled manager attached the server logs every delivered
  /// frame, answers the HELLO/RESUME handshake from the manager's durable
  /// watermark, and — when checkpoints are enabled — snapshots engine state
  /// at punctuation-aligned idle points.
  void AttachRecovery(RecoveryManager* recovery);

  /// Restores the net-layer section of a checkpoint (connection history,
  /// server counters, order-validator bounds). Call before Start(); a
  /// malformed blob is a version-mismatch error.
  Status RestoreNetState(const std::string& blob);

  /// Serializes the net-layer state for a checkpoint (what RestoreNetState
  /// consumes).
  std::string SaveNetState() const;

  /// Replays the recovery manager's recovered WAL records through the
  /// normal ingest path, interleaving executor steps exactly as the live
  /// loop did so the engine lands in the pre-crash state. Call between
  /// Start() and Run().
  Status ReplayRecoveredWal();

  void set_violation_policy(ViolationPolicy policy) {
    order_validator_.set_policy(policy);
  }

  /// Serves until the virtual clock reaches options.horizon (or Stop() is
  /// called, or options.wall_limit real time passes). Requires Start().
  /// Like Simulation::Run, finishes by advancing the clock to the horizon
  /// and — when lease expiry is armed — draining until idle, so
  /// fallback ETS fire for connections that went silent.
  Status Run();

  /// Makes Run return at its next iteration. Async-signal-safe.
  void Stop() { stop_ = true; }

  /// Forces a checkpoint at the current punctuation frontier regardless of
  /// the horizon gate — the graceful-shutdown "final checkpoint". No-op
  /// (OkStatus) without an attached checkpoint-enabled manager.
  Status CheckpointNow();

  const OrderValidator& order_validator() const { return order_validator_; }
  const QueueSizeTracker& queue_tracker() const { return queue_tracker_; }

  uint64_t connections_accepted() const { return connections_accepted_; }
  uint64_t frames_ingested() const { return frames_ingested_; }
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t decode_errors() const { return decode_errors_; }
  /// RESUME frames whose acknowledged sequences disagreed with the durable
  /// watermark (the connection is dropped; the feeder must re-handshake).
  uint64_t resume_rejects() const { return resume_rejects_; }
  /// Connections closed by the idle sweep (options.idle_timeout).
  uint64_t idle_closes() const { return idle_closes_; }
  /// Connections reaped by the handshake deadline (never sent a byte).
  uint64_t handshake_timeouts() const { return handshake_timeouts_; }
  /// Connections turned away at accept (connection cap / memory budget).
  uint64_t admission_rejects() const { return admission_rejects_; }
  /// Fail-stop closes for decode-buffer or outbox cap overruns.
  uint64_t overrun_closes() const { return overrun_closes_; }
  uint64_t slow_peer_sheds() const { return slow_peer_sheds_; }
  uint64_t slow_peer_quarantines() const { return slow_peer_quarantines_; }
  uint64_t slow_peer_closes() const { return slow_peer_closes_; }
  uint64_t degraded_shed_frames() const { return degraded_shed_frames_; }

  /// Snapshot of every connection ever accepted (closed ones included).
  std::vector<ConnectionReport> connection_reports() const;

  /// Publishes server-wide ("net.*") and per-connection ("net.conn.<id>.*")
  /// counters into `registry`.
  void PublishTo(MetricsRegistry* registry) const;

 private:
  /// One decoded-but-undelivered frame plus its wire footprint, so the
  /// ingest memory accounting can subtract exactly what delivery releases.
  struct PendingFrame {
    WireFrame frame;
    uint32_t wire_bytes = 0;
  };

  struct Connection {
    int fd = -1;
    int64_t id = 0;
    bool open = true;
    /// Backpressure parking: no delivery (and no reads) until the virtual
    /// clock reaches this; kMinTimestamp = not parked.
    Timestamp retry_at = kMinTimestamp;
    FrameDecoder decoder;
    SkewTracker skew;
    std::deque<PendingFrame> pending;
    /// Sum of pending[i].wire_bytes (part of the ingest memory footprint).
    size_t pending_bytes = 0;
    ConnectionReport report;
    /// Virtual time of the last bytes read (or delivery); the idle sweep
    /// compares against options.idle_timeout.
    Timestamp last_activity = kMinTimestamp;
    /// Virtual accept time — the handshake deadline anchor.
    Timestamp accepted_at = kMinTimestamp;
    /// HELLO arrived while closed connections still had undelivered frames:
    /// the resume-state reply is held back until they drain, or the durable
    /// watermark would miss frames already on the ingest runway and the
    /// resuming feeder would double-send them.
    bool hello_deferred = false;
    /// Slow-peer byte-rate window (virtual time; see min_bytes_per_second).
    Timestamp window_start = kMinTimestamp;
    uint64_t window_bytes = 0;
    /// Streams this connection delivered frames for — the promises to
    /// revoke from the frontier when the connection drops.
    std::set<int32_t> streams_fed;
    /// Bytes queued for the peer (handshake replies); flushed by PollOnce
    /// under POLLOUT with partial-write/EINTR handling.
    std::string outbox;
  };

  /// One poll(2) round: accept new connections, read and decode from every
  /// readable socket. `timeout_ms` 0 = just drain what's ready.
  Status PollOnce(int timeout_ms);
  void AcceptPending();
  void ReadFrom(Connection* conn);
  void CloseConnection(Connection* conn);
  /// Closes every open connection silent for options.idle_timeout of
  /// virtual time (no-op when the timeout is 0).
  void SweepIdle(Timestamp now);
  /// Consumes one handshake frame (kHello/kResume) at decode time — control
  /// frames never enter `pending`, the WAL, or the ingest path.
  void HandleControl(Connection* conn, const WireFrame& frame);
  /// Queues the durable-watermark (resume-state) reply and flushes it.
  void SendResumeState(Connection* conn);
  /// True while any CLOSED connection still has undelivered pending frames
  /// — the drain-before-ack gate for answering HELLOs.
  bool AnyClosedConnectionPending() const;
  /// Answers HELLOs deferred behind the drain-before-ack gate once the
  /// closed connections' runways are empty.
  void AnswerDeferredHellos();
  /// Best-effort kReject(reason) on a just-accepted fd, then close. The fd
  /// never becomes a Connection.
  void RejectConnection(int fd, const std::string& reason);
  /// Bytes currently pinned by ingest: decoder buffers + pending frames +
  /// outboxes, across all connections.
  size_t MemoryFootprint() const;
  /// One slow-peer strike: climbs the degradation ladder (shed ->
  /// quarantine -> close) one tier.
  void StrikeSlowPeer(Connection* conn);
  /// Slow-peer byte-rate windows: strike peers below the floor, relax clean
  /// ones one tier (hysteresis). Runs from SweepIdle.
  void SweepSlowPeers(Timestamp now);
  /// Fail-stop close for a resource-cap overrun.
  void CloseForOverrun(Connection* conn, const char* what, size_t used,
                       size_t cap);
  /// Writes as much of `conn->outbox` as the socket accepts (EINTR/EAGAIN
  /// aware); a hard error closes the connection.
  void FlushOutbox(Connection* conn);
  /// Takes a punctuation-aligned checkpoint when the engine is idle and the
  /// source frontier has advanced past the recovery horizon.
  void MaybeCheckpointAtIdle();
  /// Delivers every due pending frame (respecting per-connection FIFO,
  /// arrival hints, and backpressure parking). Returns true if anything
  /// was delivered.
  bool DeliverDue();
  /// Delivers one frame into its source at virtual time `now`. Returns
  /// false on a protocol error (unknown stream, missing external
  /// timestamp) — the connection is closed.
  bool IngestFrame(Connection* conn, WireFrame frame, Timestamp now);
  /// Earliest virtual time any pending frame becomes deliverable;
  /// kMaxTimestamp when nothing is pending.
  Timestamp NextPendingTime() const;
  bool AnyOpenConnection() const;
  bool AnyPendingFrame() const;

  QueryGraph* graph_;
  Executor* executor_;
  VirtualClock* clock_;
  IngestServerOptions options_;
  IngestClock ingest_clock_;
  QueueSizeTracker queue_tracker_;
  OrderValidator order_validator_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<BufferOccupancyTracer> occupancy_tracer_;
  RecoveryManager* recovery_ = nullptr;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  /// Sources by wire stream id (graph sources with duplicate stream ids are
  /// rejected by Start).
  std::map<int32_t, Source*> sources_by_stream_;
  std::vector<std::unique_ptr<Connection>> connections_;
  int64_t next_connection_id_ = 1;
  volatile bool stop_ = false;
  /// First WAL append failure; Run stops and surfaces it.
  Status wal_error_;

  uint64_t handshake_timeouts_ = 0;
  uint64_t admission_rejects_ = 0;
  uint64_t overrun_closes_ = 0;
  uint64_t slow_peer_sheds_ = 0;
  uint64_t slow_peer_quarantines_ = 0;
  uint64_t slow_peer_closes_ = 0;
  uint64_t degraded_shed_frames_ = 0;
  uint64_t connections_accepted_ = 0;
  /// Connections accepted by *this* process — excludes counts restored
  /// from a checkpoint. The frame-driven "every peer came and went" run
  /// exit keys off this, so a recovered server waits for feeders to
  /// reconnect instead of exiting before they get the chance.
  uint64_t connections_this_process_ = 0;
  uint64_t frames_ingested_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t decode_errors_ = 0;
  uint64_t resume_rejects_ = 0;
  uint64_t idle_closes_ = 0;
};

}  // namespace dsms

#endif  // DSMS_NET_INGEST_SERVER_H_
