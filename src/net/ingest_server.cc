#include "net/ingest_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics_registry.h"
#include "obs/trace_wiring.h"
#include "obs/tracer.h"
#include "recovery/recovery_manager.h"
#include "recovery/state_codec.h"

namespace dsms {
namespace {

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return InternalError(
        StrFormat("fcntl(O_NONBLOCK): %s", strerror(errno)));
  }
  return OkStatus();
}

}  // namespace

IngestServer::IngestServer(QueryGraph* graph, Executor* executor,
                           VirtualClock* clock, IngestServerOptions options)
    : graph_(graph),
      executor_(executor),
      clock_(clock),
      options_(std::move(options)),
      ingest_clock_(clock, options_.clock_mode) {
  DSMS_CHECK(graph != nullptr);
  DSMS_CHECK(executor != nullptr);
  DSMS_CHECK(clock != nullptr);
  graph_->ReplaceBufferListeners(&queue_tracker_);
  graph_->AddBufferListener(&order_validator_);
  // Buffers restored from a checkpoint are repopulated before the server
  // (and its tracker) exists; seed the occupancy counters so the first pop
  // of a restored tuple does not underflow them. Fresh graphs are empty and
  // this is a no-op.
  for (int i = 0; i < graph_->num_buffers(); ++i) {
    const StreamBuffer* buffer = graph_->buffer(i);
    queue_tracker_.SeedOccupancy(static_cast<int64_t>(buffer->size()),
                                 static_cast<int64_t>(buffer->data_size()));
  }
}

IngestServer::~IngestServer() {
  for (auto& conn : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  graph_->ReplaceBufferListeners(nullptr);
}

void IngestServer::AttachRecovery(RecoveryManager* recovery) {
  DSMS_CHECK(recovery != nullptr);
  DSMS_CHECK(recovery_ == nullptr);
  DSMS_CHECK_LT(listen_fd_, 0);  // before Start()
  recovery_ = recovery;
}

void IngestServer::AttachTracer(Tracer* tracer) {
  DSMS_CHECK(tracer != nullptr);
  DSMS_CHECK(tracer_ == nullptr);
  tracer_ = tracer;
  AnnotateTracks(*graph_, tracer);
  occupancy_tracer_ =
      std::make_unique<BufferOccupancyTracer>(tracer, graph_->num_buffers());
  graph_->AddBufferListener(occupancy_tracer_.get());
}

Status IngestServer::Start() {
  if (listen_fd_ >= 0) return FailedPreconditionError("already started");
  if (graph_ == nullptr || !graph_->validated()) {
    return FailedPreconditionError("server needs a validated plan");
  }
  for (Source* source : graph_->sources()) {
    auto [it, inserted] =
        sources_by_stream_.emplace(source->stream_id(), source);
    if (!inserted) {
      return InvalidArgumentError(StrFormat(
          "streams '%s' and '%s' share wire stream id %d",
          it->second->name().c_str(), source->name().c_str(),
          source->stream_id()));
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(StrFormat("socket: %s", strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError(
        StrFormat("bad listen address '%s'", options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return InternalError(StrFormat("bind %s:%u: %s", options_.host.c_str(),
                                   options_.port, strerror(errno)));
  }
  if (::listen(listen_fd_, SOMAXCONN) < 0) {
    return InternalError(StrFormat("listen: %s", strerror(errno)));
  }
  DSMS_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return InternalError(StrFormat("getsockname: %s", strerror(errno)));
  }
  port_ = ntohs(addr.sin_port);
  return OkStatus();
}

void IngestServer::RejectConnection(int fd, const std::string& reason) {
  ++admission_rejects_;
  DSMS_LOG(Warning) << "rejecting connection: " << reason;
  WireFrame reject;
  reject.type = WireFrame::Type::kReject;
  reject.values.emplace_back(reason);
  std::string encoded;
  if (EncodeFrame(reject, &encoded).ok()) {
    // Best-effort single write on the still-blocking fresh socket: its send
    // buffer is empty so this never blocks meaningfully, and a peer that
    // cannot even take these bytes learns nothing worse from a bare close.
    ::send(fd, encoded.data(), encoded.size(), MSG_NOSIGNAL);
  }
  ::close(fd);
}

void IngestServer::AcceptPending() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN, or a transient error: retry next round.
    // Admission control runs before the fd ever becomes a Connection: an
    // overloaded server says WHY it refuses (kReject) instead of letting
    // the peer discover a silent close and retry into the same wall.
    if (options_.max_connections > 0) {
      int open_count = 0;
      for (const auto& c : connections_) {
        if (c->open) ++open_count;
      }
      if (open_count >= options_.max_connections) {
        RejectConnection(fd, StrFormat("connection limit %d reached",
                                       options_.max_connections));
        continue;
      }
    }
    if (options_.ingest_memory_budget > 0 &&
        MemoryFootprint() >= options_.ingest_memory_budget) {
      RejectConnection(
          fd, StrFormat("ingest memory budget %zu bytes exhausted",
                        options_.ingest_memory_budget));
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_connection_id_++;
    conn->decoder = FrameDecoder(options_.max_frame_bytes);
    conn->report.id = conn->id;
    conn->report.open = true;
    // The idle clock starts at accept: a peer that connects and never even
    // sends its HELLO is exactly what the sweep exists to shed.
    conn->last_activity = clock_->now();
    conn->accepted_at = clock_->now();
    conn->window_start = clock_->now();
    ++connections_accepted_;
    ++connections_this_process_;
    connections_.push_back(std::move(conn));
  }
}

void IngestServer::CloseConnection(Connection* conn) {
  if (!conn->open) return;
  conn->open = false;
  conn->report.open = false;
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
  // The dropped peer's promises no longer hold the checkpoint frontier
  // back — unless another live connection is still feeding the stream.
  for (int32_t stream : conn->streams_fed) {
    bool still_fed = false;
    for (const auto& other : connections_) {
      if (other->open && other->streams_fed.count(stream) > 0) {
        still_fed = true;
        break;
      }
    }
    if (!still_fed) executor_->frontier()->Revoke(stream);
  }
}

void IngestServer::SweepIdle(Timestamp now) {
  // Handshake deadline: a peer that connected and never sent a single byte
  // is reaped well before the (usually much longer) idle timeout — the
  // half-open connection a crashed NAT or a SYN-only scanner leaves behind.
  if (options_.handshake_deadline > 0) {
    for (auto& conn : connections_) {
      if (!conn->open || conn->report.bytes > 0) continue;
      if (now - conn->accepted_at < options_.handshake_deadline) continue;
      conn->report.handshake_timed_out = true;
      ++handshake_timeouts_;
      DSMS_LOG(Warning) << "connection " << conn->id
                        << " sent nothing within the handshake deadline; "
                        << "closing";
      CloseConnection(conn.get());
    }
  }
  SweepSlowPeers(now);
  if (options_.idle_timeout <= 0) return;
  for (auto& conn : connections_) {
    if (!conn->open) continue;
    if (now - conn->last_activity < options_.idle_timeout) continue;
    conn->report.idle_closed = true;
    ++idle_closes_;
    DSMS_LOG(Warning) << "connection " << conn->id << " idle for "
                      << (now - conn->last_activity)
                      << "us (helloed=" << conn->report.helloed
                      << "); closing";
    CloseConnection(conn.get());
  }
}

void IngestServer::StrikeSlowPeer(Connection* conn) {
  ++conn->report.slow_strikes;
  ++conn->report.degradation;
  conn->report.degradation = std::min(conn->report.degradation, 3);
  switch (conn->report.degradation) {
    case 1:
      // Tier 1 — shed: whatever it already queued is dropped and further
      // frames are discarded on arrival; the peer costs decode cycles only.
      ++slow_peer_sheds_;
      conn->report.degraded_shed_frames += conn->pending.size();
      degraded_shed_frames_ += conn->pending.size();
      conn->pending.clear();
      conn->pending_bytes = 0;
      DSMS_LOG(Warning) << "connection " << conn->id
                        << " below byte-rate floor; shedding";
      break;
    case 2:
      // Tier 2 — quarantine: the frontier is told the peer misbehaves, so
      // its streams' promises are revoked and the participant enters the
      // quarantine lifecycle (hysteresis and re-admission live there).
      ++slow_peer_quarantines_;
      DSMS_LOG(Warning) << "connection " << conn->id
                        << " still below floor; quarantining its streams";
      for (int32_t stream : conn->streams_fed) {
        executor_->frontier()->ReportViolation(
            stream, FrontierViolation::kPeerMisbehavior);
        bool still_fed = false;
        for (const auto& other : connections_) {
          if (other.get() != conn && other->open &&
              other->streams_fed.count(stream) > 0) {
            still_fed = true;
            break;
          }
        }
        if (!still_fed) executor_->frontier()->Revoke(stream);
      }
      break;
    default:
      // Tier 3 — close: three consecutive starved windows is a dead or
      // hostile peer, not a slow network.
      ++slow_peer_closes_;
      DSMS_LOG(Warning) << "connection " << conn->id
                        << " starved three windows; closing";
      CloseConnection(conn);
      break;
  }
}

void IngestServer::SweepSlowPeers(Timestamp now) {
  if (options_.min_bytes_per_second == 0) return;
  const Duration window = options_.slow_peer_window > 0
                              ? options_.slow_peer_window
                              : kSecond;
  const uint64_t floor_bytes =
      options_.min_bytes_per_second * static_cast<uint64_t>(window) /
      static_cast<uint64_t>(kSecond);
  for (auto& conn : connections_) {
    if (!conn->open) continue;
    if (conn->window_start == kMinTimestamp) {
      conn->window_start = now;
      conn->window_bytes = 0;
      continue;
    }
    if (now - conn->window_start < window) continue;
    if (conn->window_bytes < floor_bytes) {
      StrikeSlowPeer(conn.get());
    } else if (conn->report.degradation > 0) {
      // Hysteresis: one clean window steps down exactly one tier, so a
      // peer flapping around the floor cannot oscillate shed/unshed every
      // sweep.
      --conn->report.degradation;
      DSMS_LOG(Info) << "connection " << conn->id
                     << " back above floor; degradation now "
                     << conn->report.degradation;
    }
    conn->window_start = now;
    conn->window_bytes = 0;
  }
}

void IngestServer::ReadFrom(Connection* conn) {
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->last_activity = clock_->now();
      conn->report.bytes += static_cast<uint64_t>(n);
      conn->window_bytes += static_cast<uint64_t>(n);
      bytes_received_ += static_cast<uint64_t>(n);
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: whatever was decoded still gets delivered; the
    // socket is done.
    CloseConnection(conn);
    break;
  }
  // Carve out complete frames now so NextPendingTime sees their hints.
  for (;;) {
    const size_t buffered_before = conn->decoder.buffered_bytes();
    WireFrame frame;
    Result<bool> got = conn->decoder.Next(&frame);
    if (!got.ok()) {
      ++conn->report.decode_errors;
      ++decode_errors_;
      DSMS_LOG(Warning) << "connection " << conn->id
                        << " decode error: " << got.status().message();
      CloseConnection(conn);
      break;
    }
    if (!*got) break;
    const size_t wire_bytes = buffered_before - conn->decoder.buffered_bytes();
    if (IsControlFrame(frame.type)) {
      HandleControl(conn, frame);
      if (!conn->open) break;
      continue;
    }
    if (conn->report.degradation >= 1) {
      // Tier >= 1: the slow-peer ladder is shedding this connection; its
      // frames are decoded (so the byte-rate window stays honest) and then
      // dropped before they can touch the engine.
      ++conn->report.degraded_shed_frames;
      ++degraded_shed_frames_;
      continue;
    }
    conn->pending_bytes += wire_bytes;
    conn->pending.push_back(
        PendingFrame{std::move(frame), static_cast<uint32_t>(wire_bytes)});
  }
  // Fail-stop on a decode-buffer overrun: a peer dripping an eternal
  // partial frame (or announcing a length it never finishes) is holding
  // memory hostage, and the only safe answer is to drop it.
  if (conn->open) {
    const size_t cap = options_.max_decode_buffer_bytes > 0
                           ? options_.max_decode_buffer_bytes
                           : 2 * options_.max_frame_bytes;
    if (conn->decoder.buffered_bytes() > cap) {
      CloseForOverrun(conn, "decode buffer", conn->decoder.buffered_bytes(),
                      cap);
    }
  }
}

void IngestServer::CloseForOverrun(Connection* conn, const char* what,
                                   size_t used, size_t cap) {
  conn->report.overrun_closed = true;
  ++overrun_closes_;
  DSMS_LOG(Warning) << "connection " << conn->id << " overran its " << what
                    << " (" << used << " > " << cap << " bytes); closing";
  CloseConnection(conn);
}

void IngestServer::SendResumeState(Connection* conn) {
  // Answer with the durable watermark. Without recovery attached the
  // watermark is legitimately empty: "nothing durable, send everything".
  WireFrame reply;
  reply.type = WireFrame::Type::kResumeState;
  if (recovery_ != nullptr) {
    for (const auto& [stream, seq] : recovery_->durable_seqs()) {
      reply.values.emplace_back(static_cast<int64_t>(stream));
      reply.values.emplace_back(static_cast<int64_t>(seq));
    }
  }
  Status encoded = EncodeFrame(reply, &conn->outbox);
  if (!encoded.ok()) {
    ++conn->report.protocol_errors;
    DSMS_LOG(Warning) << "connection " << conn->id
                      << " resume-state encode: " << encoded.message();
    CloseConnection(conn);
    return;
  }
  if (options_.max_outbox_bytes > 0 &&
      conn->outbox.size() > options_.max_outbox_bytes) {
    // The peer HELLOed but never drained earlier replies: a half-open
    // reader. Fail-stop before the outbox becomes their memory lease.
    CloseForOverrun(conn, "outbox", conn->outbox.size(),
                    options_.max_outbox_bytes);
    return;
  }
  FlushOutbox(conn);
}

bool IngestServer::AnyClosedConnectionPending() const {
  for (const auto& conn : connections_) {
    if (!conn->open && !conn->pending.empty()) return true;
  }
  return false;
}

void IngestServer::AnswerDeferredHellos() {
  if (AnyClosedConnectionPending()) return;
  for (auto& conn : connections_) {
    if (conn->open && conn->hello_deferred) {
      conn->hello_deferred = false;
      SendResumeState(conn.get());
    }
  }
}

void IngestServer::HandleControl(Connection* conn, const WireFrame& frame) {
  switch (frame.type) {
    case WireFrame::Type::kHello: {
      if (conn->report.helloed) {
        // A second HELLO mid-stream is a confused (or hostile) peer; the
        // resume accounting cannot be renegotiated on a live connection.
        ++conn->report.protocol_errors;
        DSMS_LOG(Warning) << "connection " << conn->id
                          << " sent a duplicate hello; closing";
        CloseConnection(conn);
        return;
      }
      conn->report.helloed = true;
      // Drain-before-ack: while a dead predecessor still has decoded
      // frames on the ingest runway, the durable watermark is about to
      // move. Answering now would hand the resuming feeder a stale count
      // and it would re-send frames that are already on their way in —
      // duplicates at the sink. Hold the reply until the runway is clear.
      if (recovery_ != nullptr && AnyClosedConnectionPending()) {
        conn->hello_deferred = true;
        return;
      }
      SendResumeState(conn);
      return;
    }
    case WireFrame::Type::kResume: {
      // The client echoes the (stream, seq) pairs it resumes from; a stale
      // token (e.g. from a server whose recovery directory was wiped) must
      // be refused loudly or the exactly-once accounting silently skews.
      std::vector<int32_t> mismatched;
      for (size_t i = 0; i + 1 < frame.values.size(); i += 2) {
        const int32_t stream =
            static_cast<int32_t>(frame.values[i].int64_value());
        const uint64_t seq =
            static_cast<uint64_t>(frame.values[i + 1].int64_value());
        uint64_t durable = 0;
        if (recovery_ != nullptr) {
          auto it = recovery_->durable_seqs().find(stream);
          if (it != recovery_->durable_seqs().end()) durable = it->second;
        }
        if (seq != durable) mismatched.push_back(stream);
      }
      if (!mismatched.empty()) {
        ++resume_rejects_;
        ++conn->report.protocol_errors;
        DSMS_LOG(Warning) << "connection " << conn->id
                          << " presented a stale resume token; dropping";
        // Stale tokens are wire-level evidence against the streams they
        // claim: route them through the frontier's one validation funnel
        // so a storm of replays drives the quarantine lifecycle.
        for (int32_t stream : mismatched) {
          executor_->frontier()->ReportViolation(
              stream, FrontierViolation::kPeerMisbehavior);
        }
        CloseConnection(conn);
      }
      return;
    }
    case WireFrame::Type::kResumeState:
    case WireFrame::Type::kReject:
      // Server-to-client only; a client sending them is confused.
      ++conn->report.protocol_errors;
      DSMS_LOG(Warning) << "connection " << conn->id
                        << " sent a server-side "
                        << WireFrameTypeToString(frame.type) << " frame";
      CloseConnection(conn);
      return;
    default:
      return;  // unreachable: callers gate on IsControlFrame
  }
}

void IngestServer::FlushOutbox(Connection* conn) {
  while (conn->open && !conn->outbox.empty()) {
    size_t chunk = conn->outbox.size();
    // Test shim: cap the bytes offered to one send so the partial-write
    // resume path (queued remainder + POLLOUT) is exercised on loopback
    // sockets whose buffers would otherwise swallow everything at once.
    if (options_.max_write_bytes > 0) {
      chunk = std::min(chunk, options_.max_write_bytes);
    }
    ssize_t n = ::send(conn->fd, conn->outbox.data(), chunk, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbox.erase(0, static_cast<size_t>(n));
      if (options_.max_write_bytes > 0) {
        return;  // one capped write per flush; POLLOUT drives the rest
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // POLLOUT in PollOnce resumes the flush.
    }
    // EPIPE/ECONNRESET and friends: the peer is gone; everything decoded
    // so far still delivers, the socket is done.
    CloseConnection(conn);
    return;
  }
}

bool IngestServer::IngestFrame(Connection* conn, WireFrame frame,
                               Timestamp now) {
  auto it = sources_by_stream_.find(frame.stream_id);
  if (it == sources_by_stream_.end()) {
    ++conn->report.protocol_errors;
    DSMS_LOG(Warning) << "connection " << conn->id
                      << " addressed unknown stream " << frame.stream_id;
    CloseConnection(conn);
    return false;
  }
  Source* source = it->second;
  const uint64_t shed_before = source->output()->shed_tuples();

  if (frame.type == WireFrame::Type::kPunctuation) {
    // The decoder guarantees punctuation frames carry a timestamp.
    source->InjectPunctuation(*frame.timestamp);
    ++conn->report.punct_frames;
  } else {
    switch (source->timestamp_kind()) {
      case TimestampKind::kExternal: {
        if (!frame.timestamp.has_value()) {
          ++conn->report.protocol_errors;
          DSMS_LOG(Warning)
              << "connection " << conn->id << " sent an unstamped frame to "
              << "external stream '" << source->name() << "'";
          CloseConnection(conn);
          return false;
        }
        Timestamp app_ts = *frame.timestamp;
        bool violation =
            conn->skew.Observe(app_ts, now, source->skew_bound());
        if (violation) ++conn->report.skew_violations;
        conn->report.max_skew =
            std::max(conn->report.max_skew, conn->skew.max_skew());
        // Order regressions (below the stream's promise) and skew-contract
        // breaches both go down the faulty path: network producers must
        // never be able to abort the engine, so the arc's ViolationPolicy —
        // count, drop, or quarantine — decides, exactly as for simulated
        // fault injection.
        bool regresses = source->promised_bound() != kMinTimestamp &&
                         app_ts < source->promised_bound();
        if (violation || regresses) {
          source->IngestFaulty(app_ts, std::move(frame.values), now);
        } else {
          source->IngestExternal(app_ts, std::move(frame.values), now);
        }
        break;
      }
      case TimestampKind::kInternal: {
        // Arrival stamping with the source's granularity. Quantization can
        // step behind a finer-grained promise (e.g. a heartbeat bound
        // between grid points); that is producer misbehaviour from the
        // buffer's viewpoint, so it too takes the faulty path instead of
        // tripping the source's monotonicity check.
        Duration g = source->timestamp_granularity();
        Timestamp stamped = g <= 1 ? now : (now / g) * g;
        if (source->promised_bound() != kMinTimestamp &&
            stamped < source->promised_bound()) {
          source->IngestFaulty(stamped, std::move(frame.values), now);
        } else {
          source->Ingest(std::move(frame.values), now);
        }
        break;
      }
      case TimestampKind::kLatent:
        source->Ingest(std::move(frame.values), now);
        break;
    }
    ++conn->report.data_frames;
  }

  ++conn->report.frames;
  ++frames_ingested_;
  conn->last_activity = now;
  // Frontier participation: this connection now vouches for the stream's
  // promise (and a reconnect reinstates a promise a disconnect revoked).
  conn->streams_fed.insert(frame.stream_id);
  executor_->frontier()->NoteConnectionActivity(frame.stream_id);
  conn->report.shed_tuples +=
      source->output()->shed_tuples() - shed_before;
  if (tracer_ != nullptr) {
    tracer_->RecordNetIngest(source->id(),
                             static_cast<uint8_t>(frame.type), conn->id);
  }
  return true;
}

bool IngestServer::DeliverDue() {
  bool delivered = false;
  for (auto& conn : connections_) {
    if (conn->retry_at != kMinTimestamp) {
      if (conn->retry_at > clock_->now()) continue;
      conn->retry_at = kMinTimestamp;
    }
    while (!conn->pending.empty()) {
      WireFrame& frame = conn->pending.front().frame;
      if (ingest_clock_.mode() == IngestClock::Mode::kFrameDriven &&
          frame.arrival_hint.has_value() &&
          *frame.arrival_hint > clock_->now()) {
        break;  // Future arrival; the idle branch advances the clock.
      }
      auto sit = sources_by_stream_.find(frame.stream_id);
      if (sit != sources_by_stream_.end()) {
        Source* source = sit->second;
        // Same producer-side backpressure as Simulation::DeliverArrival:
        // a full arc anywhere downstream parks this connection (reads
        // pause too — see Run's pollfd setup — so the peer's TCP window
        // eventually closes) and the frame retries shortly.
        if (source->output()->overload_policy() ==
                OverloadPolicy::kBlockSource &&
            source->output()->capacity_limit() > 0 &&
            graph_->DownstreamBlocked(source)) {
          conn->retry_at = clock_->now() + kMillisecond;
          break;
        }
      }
      Timestamp now = ingest_clock_.OnFrameArrival(frame.arrival_hint);
      WireFrame taken = std::move(frame);
      conn->pending_bytes -= conn->pending.front().wire_bytes;
      conn->pending.pop_front();
      delivered = true;
      if (recovery_ != nullptr && recovery_->wal_enabled()) {
        // Log the frame ahead of delivery: a crash between the append and
        // the ingest replays it (at-least-once into a deterministic
        // engine = exactly-once at the sink).
        std::string encoded;
        Status logged = EncodeFrame(taken, &encoded);
        if (logged.ok()) {
          logged = recovery_->AppendFrame(now, conn->id, taken.stream_id,
                                          encoded);
        }
        if (!logged.ok()) {
          // A write-ahead log that cannot be written voids the durability
          // contract; stop serving rather than silently degrade.
          wal_error_ = logged;
          stop_ = true;
          return delivered;
        }
      }
      if (!IngestFrame(conn.get(), std::move(taken), now)) break;
    }
  }
  return delivered;
}

Timestamp IngestServer::NextPendingTime() const {
  Timestamp next = kMaxTimestamp;
  for (const auto& conn : connections_) {
    if (conn->pending.empty()) continue;
    Timestamp t;
    if (conn->retry_at != kMinTimestamp) {
      t = conn->retry_at;
    } else if (ingest_clock_.mode() == IngestClock::Mode::kFrameDriven &&
               conn->pending.front().frame.arrival_hint.has_value()) {
      t = *conn->pending.front().frame.arrival_hint;
    } else {
      t = clock_->now();
    }
    next = std::min(next, t);
  }
  return next;
}

bool IngestServer::AnyOpenConnection() const {
  for (const auto& conn : connections_) {
    if (conn->open) return true;
  }
  return false;
}

bool IngestServer::AnyPendingFrame() const {
  for (const auto& conn : connections_) {
    if (!conn->pending.empty()) return true;
  }
  return false;
}

size_t IngestServer::MemoryFootprint() const {
  size_t total = 0;
  for (const auto& conn : connections_) {
    total += conn->decoder.buffered_bytes();
    total += conn->pending_bytes;
    total += conn->outbox.size();
  }
  return total;
}

Status IngestServer::PollOnce(int timeout_ms) {
  std::vector<pollfd> fds;
  fds.push_back(pollfd{listen_fd_, POLLIN, 0});
  std::vector<Connection*> polled;
  for (auto& conn : connections_) {
    if (!conn->open) continue;
    short events = 0;
    // Reads pause while parked on backpressure or while the decoded-frame
    // queue is full: the kernel buffer fills, the peer's send window
    // closes, and the producer genuinely slows down.
    if (conn->retry_at == kMinTimestamp &&
        conn->pending.size() < options_.max_pending_frames) {
      events |= POLLIN;
    }
    // Pending handshake bytes (a partial send left them queued) still flush
    // while reads are paused.
    if (!conn->outbox.empty()) events |= POLLOUT;
    if (events == 0) continue;
    fds.push_back(pollfd{conn->fd, events, 0});
    polled.push_back(conn.get());
  }
  int rc = ::poll(fds.data(), fds.size(), timeout_ms);
  if (rc < 0 && errno != EINTR) {
    return InternalError(StrFormat("poll: %s", strerror(errno)));
  }
  if (rc > 0) {
    if ((fds[0].revents & POLLIN) != 0) AcceptPending();
    for (size_t i = 1; i < fds.size(); ++i) {
      Connection* conn = polled[i - 1];
      if ((fds[i].revents & POLLOUT) != 0) FlushOutbox(conn);
      if (conn->open &&
          (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        ReadFrom(conn);
      }
    }
  }
  return OkStatus();
}

Status IngestServer::Run() {
  if (listen_fd_ < 0) return FailedPreconditionError("call Start() first");
  const Timestamp horizon = clock_->now() + options_.horizon;
  const auto wall_start = std::chrono::steady_clock::now();
  ingest_clock_.Start();

  auto wall_exceeded = [&]() {
    if (options_.wall_limit <= 0) return false;
    auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - wall_start);
    return elapsed.count() >= options_.wall_limit;
  };

  Status result = OkStatus();
  // Armed when the last connection closes; see the reconnect-grace exit.
  constexpr auto kNoPeerUnarmed = std::chrono::steady_clock::time_point::min();
  auto no_peer_since = kNoPeerUnarmed;
  while (!stop_ && clock_->now() < horizon) {
    if (options_.crash_at > 0 && clock_->now() >= options_.crash_at) {
      return AbortedError(StrFormat(
          "scheduled crash at virtual time %lld",
          static_cast<long long>(options_.crash_at)));
    }
    if (wall_exceeded()) {
      result = DeadlineExceededError("wall limit reached before horizon");
      break;
    }
    // Opportunistic socket drain, then the Simulation::Run shape: deliver
    // due arrivals, take one executor step, and only when the engine is
    // idle let time pass.
    DSMS_RETURN_IF_ERROR(PollOnce(/*timeout_ms=*/0));
    ingest_clock_.Tick();
    SweepIdle(clock_->now());
    DeliverDue();
    if (!wal_error_.ok()) break;
    // Deferred HELLO replies go out once dead connections' runways are
    // empty and the durable watermark is final (drain-before-ack).
    AnswerDeferredHellos();
    if (executor_->RunStep()) continue;

    // Engine idle: every source frontier is current, so this is the
    // punctuation-aligned instant a checkpoint may capture.
    MaybeCheckpointAtIdle();

    Timestamp next = NextPendingTime();
    if (next != kMaxTimestamp) {
      if (next >= horizon) break;
      if (next > clock_->now()) clock_->AdvanceTo(next);
      continue;
    }
    // Nothing buffered anywhere. In frame-driven mode a drained engine
    // with no peers left can never advance again — finish the run. In
    // wall mode (and while peers are connected) block in poll so real
    // time, not a busy loop, carries the clock toward the horizon.
    if (ingest_clock_.mode() == IngestClock::Mode::kFrameDriven &&
        connections_this_process_ > 0 && !AnyOpenConnection()) {
      // But not the instant the last socket closes: a resuming feeder
      // (chaos reconnect, rolling restart) is often mid-dial right now.
      // Linger for the reconnect grace; a new accept clears the timer.
      if (no_peer_since == kNoPeerUnarmed) {
        no_peer_since = std::chrono::steady_clock::now();
      }
      const auto lingered =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - no_peer_since)
              .count();
      if (lingered >= options_.reconnect_grace) break;
    } else {
      no_peer_since = kNoPeerUnarmed;
    }
    DSMS_RETURN_IF_ERROR(PollOnce(options_.poll_granularity_ms));
    ingest_clock_.Tick();
  }

  if (clock_->now() < horizon) clock_->AdvanceTo(horizon);
  // Same end-of-run drain as Simulation::Run: with lease expiry armed, the
  // jump to the horizon is what pushes a silent connection's source past
  // its lease, so its idle-waiting consumers get a fallback ETS instead of
  // holding their tuples forever.
  if (executor_->liveness_enabled()) {
    executor_->RunUntilIdle();
  }
  if (!wal_error_.ok()) return wal_error_;
  return result;
}

void IngestServer::MaybeCheckpointAtIdle() {
  if (recovery_ == nullptr || !recovery_->checkpoint_enabled()) return;
  // The checkpoint frontier is the weakest promise any trusted source has
  // made: everything below it is closed, so operator state at or below the
  // frontier is final and the WAL prefix that produced it is droppable.
  // The frontier tracker answers (a quarantined or revoked source's stale
  // promise must not hold checkpoints back forever); with every source
  // healthy the answer equals the old min-over-all-sources scan.
  const Timestamp frontier = executor_->frontier()->CheckpointFrontier();
  if (!recovery_->ShouldCheckpoint(frontier)) return;
  Status status = recovery_->Checkpoint(graph_, executor_, clock_, frontier,
                                        SaveNetState());
  if (!status.ok()) {
    DSMS_LOG(Warning) << "checkpoint failed: " << status.message();
  }
}

Status IngestServer::CheckpointNow() {
  if (recovery_ == nullptr || !recovery_->checkpoint_enabled()) {
    return OkStatus();
  }
  return recovery_->Checkpoint(graph_, executor_, clock_,
                               executor_->frontier()->CheckpointFrontier(),
                               SaveNetState());
}

std::string IngestServer::SaveNetState() const {
  StateWriter w;
  w.U64(static_cast<uint64_t>(next_connection_id_));
  w.U64(connections_accepted_);
  w.U64(frames_ingested_);
  w.U64(bytes_received_);
  w.U64(decode_errors_);
  w.U64(resume_rejects_);
  w.U64(idle_closes_);
  w.U64(handshake_timeouts_);
  w.U64(admission_rejects_);
  w.U64(overrun_closes_);
  w.U64(slow_peer_sheds_);
  w.U64(slow_peer_quarantines_);
  w.U64(slow_peer_closes_);
  w.U64(degraded_shed_frames_);
  w.U32(static_cast<uint32_t>(connections_.size()));
  for (const auto& conn : connections_) {
    const ConnectionReport& r = conn->report;
    w.I64(r.id);
    w.U64(r.frames);
    w.U64(r.data_frames);
    w.U64(r.punct_frames);
    w.U64(r.bytes);
    w.U64(r.decode_errors);
    w.U64(r.protocol_errors);
    w.U64(r.skew_violations);
    w.U64(r.shed_tuples);
    w.Ts(r.max_skew);
    w.U64(r.slow_strikes);
    w.U64(r.degraded_shed_frames);
    w.U32(static_cast<uint32_t>(r.degradation));
    w.U64(conn->skew.observed());
    w.U64(conn->skew.violations());
    w.Ts(conn->skew.raw_max_skew());
    w.Ts(conn->skew.raw_min_skew());
  }
  const std::map<int, Timestamp> bounds = order_validator_.ExportBounds();
  w.U32(static_cast<uint32_t>(bounds.size()));
  for (const auto& [buffer_id, bound] : bounds) {
    w.I64(buffer_id);
    w.Ts(bound);
  }
  w.U64(order_validator_.violations());
  w.U64(order_validator_.dropped());
  w.U64(order_validator_.quarantined());
  return w.Take();
}

Status IngestServer::RestoreNetState(const std::string& blob) {
  if (blob.empty()) return OkStatus();
  if (listen_fd_ >= 0) {
    return FailedPreconditionError("restore net state before Start()");
  }
  StateReader r(blob);
  next_connection_id_ = static_cast<int64_t>(r.U64());
  connections_accepted_ = r.U64();
  frames_ingested_ = r.U64();
  bytes_received_ = r.U64();
  decode_errors_ = r.U64();
  resume_rejects_ = r.U64();
  idle_closes_ = r.U64();
  handshake_timeouts_ = r.U64();
  admission_rejects_ = r.U64();
  overrun_closes_ = r.U64();
  slow_peer_sheds_ = r.U64();
  slow_peer_quarantines_ = r.U64();
  slow_peer_closes_ = r.U64();
  degraded_shed_frames_ = r.U64();
  const uint32_t conn_count = r.U32();
  for (uint32_t i = 0; i < conn_count && r.ok(); ++i) {
    // Pre-crash connections come back as closed history: their sockets died
    // with the old process, but their reports (and skew extrema) keep
    // metrics continuous across the restart.
    auto conn = std::make_unique<Connection>();
    conn->fd = -1;
    conn->open = false;
    conn->report.id = conn->id = r.I64();
    conn->report.open = false;
    conn->report.frames = r.U64();
    conn->report.data_frames = r.U64();
    conn->report.punct_frames = r.U64();
    conn->report.bytes = r.U64();
    conn->report.decode_errors = r.U64();
    conn->report.protocol_errors = r.U64();
    conn->report.skew_violations = r.U64();
    conn->report.shed_tuples = r.U64();
    conn->report.max_skew = r.Ts();
    conn->report.slow_strikes = r.U64();
    conn->report.degraded_shed_frames = r.U64();
    conn->report.degradation = static_cast<int>(r.U32());
    const uint64_t observed = r.U64();
    const uint64_t violations = r.U64();
    const Duration max_skew = r.Ts();
    const Duration min_skew = r.Ts();
    conn->skew.RestoreState(observed, violations, max_skew, min_skew);
    if (r.ok()) connections_.push_back(std::move(conn));
  }
  const uint32_t bound_count = r.U32();
  for (uint32_t i = 0; i < bound_count && r.ok(); ++i) {
    const int buffer_id = static_cast<int>(r.I64());
    const Timestamp bound = r.Ts();
    if (r.ok() && buffer_id >= 0 && buffer_id < graph_->num_buffers()) {
      order_validator_.RestoreBound(graph_->buffer(buffer_id), bound);
    }
  }
  const uint64_t violations = r.U64();
  const uint64_t dropped = r.U64();
  const uint64_t quarantined = r.U64();
  if (!r.ok() || r.remaining() != 0) {
    return InvalidArgumentError("net-state blob version mismatch");
  }
  order_validator_.RestoreCounters(violations, dropped, quarantined);
  return OkStatus();
}

Status IngestServer::ReplayRecoveredWal() {
  if (recovery_ == nullptr) return OkStatus();
  if (listen_fd_ < 0) return FailedPreconditionError("call Start() first");
  for (const WalRecord& record : recovery_->recovered_records()) {
    FrameDecoder decoder(options_.max_frame_bytes);
    decoder.Feed(record.frame.data(), record.frame.size());
    WireFrame frame;
    Result<bool> got = decoder.Next(&frame);
    if (!got.ok()) {
      return InternalError(StrFormat(
          "WAL record %llu no longer decodes: %s",
          static_cast<unsigned long long>(record.index),
          got.status().message().c_str()));
    }
    if (!*got) {
      return InternalError(StrFormat(
          "WAL record %llu holds a truncated frame",
          static_cast<unsigned long long>(record.index)));
    }
    // Re-create the live interleaving: the executor ran until the clock
    // reached the recorded arrival, then the frame was delivered. The
    // engine is deterministic, so stepping from the restored state walks
    // the identical clock trajectory.
    while (clock_->now() < record.arrival) {
      if (!executor_->RunStep()) {
        clock_->AdvanceTo(record.arrival);
        break;
      }
    }
    // Route the frame through the connection it arrived on originally
    // (restored as closed history); synthesize an entry when the
    // connection was born after the checkpoint being replayed over.
    Connection* conn = nullptr;
    for (auto& c : connections_) {
      if (c->id == record.conn_id) {
        conn = c.get();
        break;
      }
    }
    if (conn == nullptr) {
      auto fresh = std::make_unique<Connection>();
      fresh->fd = -1;
      fresh->open = false;
      fresh->report.id = fresh->id = record.conn_id;
      fresh->report.open = false;
      conn = fresh.get();
      connections_.push_back(std::move(fresh));
      next_connection_id_ =
          std::max(next_connection_id_, record.conn_id + 1);
    }
    const int32_t stream_id = frame.stream_id;
    const Timestamp now = std::max(clock_->now(), record.arrival);
    // A protocol error takes the same path as live (counted, connection
    // close is a no-op on dead history); either way the record counts as
    // replayed so the durable watermark matches the WAL. No executor step
    // here: the catch-up loop above reproduces the live interleaving, and
    // same-arrival records deliver back-to-back just as one DeliverDue
    // pass did.
    IngestFrame(conn, std::move(frame), now);
    recovery_->NoteReplayed(stream_id);
  }
  return OkStatus();
}

std::vector<ConnectionReport> IngestServer::connection_reports() const {
  std::vector<ConnectionReport> reports;
  reports.reserve(connections_.size());
  for (const auto& conn : connections_) reports.push_back(conn->report);
  return reports;
}

void IngestServer::PublishTo(MetricsRegistry* registry) const {
  DSMS_CHECK(registry != nullptr);
  registry->SetCounter("net.connections_accepted", connections_accepted_);
  registry->SetCounter("net.frames", frames_ingested_);
  registry->SetCounter("net.bytes", bytes_received_);
  registry->SetCounter("net.decode_errors", decode_errors_);
  uint64_t protocol_errors = 0;
  uint64_t skew_violations = 0;
  uint64_t shed = 0;
  Duration max_skew = 0;
  for (const auto& conn : connections_) {
    const ConnectionReport& r = conn->report;
    protocol_errors += r.protocol_errors;
    skew_violations += r.skew_violations;
    shed += r.shed_tuples;
    max_skew = std::max(max_skew, r.max_skew);
    const std::string prefix = StrFormat("net.conn.%lld.",
                                         static_cast<long long>(r.id));
    registry->SetCounter(prefix + "frames", r.frames);
    registry->SetCounter(prefix + "bytes", r.bytes);
    registry->SetCounter(prefix + "decode_errors", r.decode_errors);
    registry->SetCounter(prefix + "shed_tuples", r.shed_tuples);
    registry->SetCounter(prefix + "skew_violations", r.skew_violations);
    registry->SetGauge(prefix + "max_skew_us",
                       static_cast<double>(r.max_skew));
    registry->SetGauge(prefix + "helloed", r.helloed ? 1.0 : 0.0);
    registry->SetGauge(prefix + "idle_closed", r.idle_closed ? 1.0 : 0.0);
    registry->SetGauge(prefix + "degradation",
                       static_cast<double>(r.degradation));
    registry->SetCounter(prefix + "slow_strikes", r.slow_strikes);
    registry->SetCounter(prefix + "degraded_shed_frames",
                         r.degraded_shed_frames);
  }
  registry->SetCounter("net.idle_closes", idle_closes_);
  registry->SetCounter("net.handshake_timeouts", handshake_timeouts_);
  registry->SetCounter("net.admission_rejects", admission_rejects_);
  registry->SetCounter("net.overrun_closes", overrun_closes_);
  registry->SetCounter("net.slow_peer_sheds", slow_peer_sheds_);
  registry->SetCounter("net.slow_peer_quarantines", slow_peer_quarantines_);
  registry->SetCounter("net.slow_peer_closes", slow_peer_closes_);
  registry->SetCounter("net.degraded_shed_frames", degraded_shed_frames_);
  registry->SetGauge("net.memory_footprint_bytes",
                     static_cast<double>(MemoryFootprint()));
  registry->SetCounter("net.protocol_errors", protocol_errors);
  registry->SetCounter("net.skew_violations", skew_violations);
  registry->SetCounter("net.shed_tuples", shed);
  registry->SetGauge("net.max_skew_us", static_cast<double>(max_skew));
  registry->SetCounter("recovery.resume_rejects", resume_rejects_);
}

}  // namespace dsms
