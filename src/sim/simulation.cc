#include "sim/simulation.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/tuple.h"
#include "obs/trace_wiring.h"
#include "operators/sink.h"
#include "storage/state_store.h"

namespace dsms {

Simulation::Simulation(QueryGraph* graph, Executor* executor,
                       VirtualClock* clock)
    : graph_(graph), executor_(executor), clock_(clock) {
  DSMS_CHECK(graph != nullptr);
  DSMS_CHECK(executor != nullptr);
  DSMS_CHECK(clock != nullptr);
  graph_->ReplaceBufferListeners(&queue_tracker_);
  graph_->AddBufferListener(&order_validator_);
}

Simulation::~Simulation() { graph_->ReplaceBufferListeners(nullptr); }

void Simulation::AttachTracer(Tracer* tracer) {
  DSMS_CHECK(tracer != nullptr);
  DSMS_CHECK(tracer_ == nullptr);
  tracer_ = tracer;
  AnnotateTracks(*graph_, tracer);
  occupancy_tracer_ =
      std::make_unique<BufferOccupancyTracer>(tracer, graph_->num_buffers());
  graph_->AddBufferListener(occupancy_tracer_.get());
}

Simulation::PayloadFn Simulation::SequencePayload() {
  return [](uint64_t seq, Timestamp now) {
    (void)now;
    return std::vector<Value>{Value(static_cast<int64_t>(seq))};
  };
}

void Simulation::AddFeed(Source* source,
                         std::unique_ptr<ArrivalProcess> process,
                         PayloadFn payload, uint64_t jitter_seed) {
  DSMS_CHECK(source != nullptr);
  DSMS_CHECK(process != nullptr);
  auto feed = std::make_unique<Feed>();
  feed->source = source;
  feed->process = std::move(process);
  feed->payload = std::move(payload);
  feed->jitter_rng = Pcg32(jitter_seed, /*stream=*/0x177e7);
  Feed* raw = feed.get();
  feeds_.push_back(std::move(feed));
  ScheduleNextArrival(raw, clock_->now());
}

void Simulation::ScheduleNextArrival(Feed* feed, Timestamp after) {
  Duration gap = feed->process->NextGap();
  if (gap < 0) return;  // Trace exhausted.
  events_.Schedule(after + gap,
                   [this, feed](Timestamp now) { DeliverArrival(feed, now); });
}

void Simulation::DeliverArrival(Feed* feed, Timestamp now) {
  Source* source = feed->source;
  // Producer-side backpressure (OverloadPolicy::kBlockSource): when any arc
  // downstream of the source is at capacity the wrapper holds the arrival
  // and retries shortly — the discrete-event analogue of a producer blocked
  // on a full socket. The check walks the whole downstream path because
  // tuples already past the first hop keep draining toward the full arc.
  // No tuple is lost and no further arrival is scheduled until this one
  // lands, so the source's offered rate genuinely drops.
  // (Bounds are installed uniformly by SetBufferBound, so the source's own
  // arc is a cheap gate for whether the downstream walk can matter at all.)
  if (source->output()->overload_policy() == OverloadPolicy::kBlockSource &&
      source->output()->capacity_limit() > 0 &&
      graph_->DownstreamBlocked(source)) {
    events_.Schedule(now + kMillisecond, [this, feed](Timestamp retry_now) {
      DeliverArrival(feed, retry_now);
    });
    return;
  }
  int copies = 1;
  if (feed->fault != nullptr) copies = feed->fault->ArrivalMultiplicity(now);
  if (tracer_ != nullptr && copies != 1) {
    tracer_->RecordFault(source->id(),
                         static_cast<uint8_t>(feed->fault->spec().kind),
                         copies);
  }
  for (int c = 0; c < copies; ++c) IngestOne(feed, now);
  // The next gap counts from the scheduled cadence; using `now` (delivery)
  // keeps rates honest even when delivery lags.
  ScheduleNextArrival(feed, now);
}

void Simulation::IngestOne(Feed* feed, Timestamp now) {
  Source* source = feed->source;
  std::vector<Value> values = feed->payload(feed->seq, now);
  ++feed->seq;
  if (source->timestamp_kind() == TimestampKind::kExternal) {
    Duration skew = source->skew_bound();
    Duration jitter =
        skew > 0 ? feed->jitter_rng.NextInt(0, skew - 1) : 0;
    Timestamp app_ts = now - jitter;
    // Application timestamps are nondecreasing by assumption, and can never
    // fall below what the stream has already promised (tuples may also have
    // been ingested out-of-band before the feed started).
    app_ts = std::max(app_ts, feed->last_app_ts);
    if (source->promised_bound() != kMinTimestamp) {
      app_ts = std::max(app_ts, source->promised_bound());
    }
    if (feed->fault != nullptr) {
      bool faulty = false;
      Timestamp perturbed =
          feed->fault->PerturbTimestamp(app_ts, now, skew, &faulty);
      if (faulty) {
        // The broken producer's timestamp bypasses the wrapper's clamp and
        // the source's monotonicity checks; last_app_ts keeps tracking the
        // honest stream so recovery after the fault window is seamless.
        feed->last_app_ts = app_ts;
        if (tracer_ != nullptr) {
          tracer_->RecordFault(source->id(),
                               static_cast<uint8_t>(feed->fault->spec().kind),
                               perturbed);
        }
        source->IngestFaulty(perturbed, std::move(values), now);
        return;
      }
    }
    feed->last_app_ts = app_ts;
    source->IngestExternal(app_ts, std::move(values), now);
  } else {
    if (feed->fault != nullptr) {
      bool faulty = false;
      Timestamp perturbed =
          feed->fault->PerturbTimestamp(now, now, /*skew_bound=*/0, &faulty);
      if (faulty) {
        if (tracer_ != nullptr) {
          tracer_->RecordFault(source->id(),
                               static_cast<uint8_t>(feed->fault->spec().kind),
                               perturbed);
        }
        source->IngestFaulty(perturbed, std::move(values), now);
        return;
      }
    }
    source->Ingest(std::move(values), now);
  }
}

void Simulation::InjectFault(Source* source, const FaultSpec& spec,
                             uint64_t run_seed) {
  DSMS_CHECK(source != nullptr);
  if (IsDiskFault(spec.kind)) {
    // Disk faults perturb the state store's spill/load path, not a source's
    // arrival process; `source` only names the fault for reporting.
    StateStore* store = graph_->state_store();
    DSMS_CHECK(store != nullptr);  // disk faults need a configured store
    store->ArmFault(spec, run_seed);
    return;
  }
  auto injector = std::make_unique<FaultInjector>(spec, run_seed);
  FaultInjector* raw = injector.get();
  faults_[source] = std::move(injector);
  for (auto& feed : feeds_) {
    if (feed->source == source) feed->fault = raw;
  }
  if (!spec.enabled() || !raw->InjectsPunctuation()) return;
  // Punctuation faults are their own periodic event (the broken heartbeat
  // logic they model runs besides the data path). Same self-rescheduling
  // shape as AddHeartbeat.
  auto* tick = heartbeats_
                   .emplace_back(
                       std::make_unique<std::function<void(Timestamp)>>())
                   .get();
  *tick = [this, source, raw, tick](Timestamp now) {
    const FaultSpec& fs = raw->spec();
    if (raw->InWindow(now) && source->promised_bound() != kMinTimestamp) {
      Timestamp bound = source->promised_bound();
      if (fs.kind == FaultKind::kRegressingPunct) bound -= fs.magnitude;
      if (tracer_ != nullptr) {
        tracer_->RecordFault(source->id(), static_cast<uint8_t>(fs.kind),
                             bound);
      }
      source->InjectFaultyPunctuation(bound);
      raw->CountBogusPunctuation();
    }
    if (now + fs.punct_period < fs.start + fs.duration) {
      events_.Schedule(now + fs.punct_period, *tick);
    }
  };
  events_.Schedule(spec.start, *tick);
}

const FaultStats* Simulation::fault_stats(const Source* source) const {
  auto it = faults_.find(source);
  return it == faults_.end() ? nullptr : &it->second->stats();
}

uint64_t Simulation::fault_events() const {
  uint64_t total = 0;
  for (const auto& entry : faults_) total += entry.second->stats().total();
  if (graph_->state_store() != nullptr) {
    total += graph_->state_store()->fault_events();
  }
  return total;
}

void Simulation::AddHeartbeat(Source* source, Duration period,
                              Duration phase) {
  DSMS_CHECK(source != nullptr);
  DSMS_CHECK_GT(period, 0);
  // Self-rescheduling event: the callback re-schedules itself through a
  // pointer to its Simulation-owned storage (a shared_ptr self-capture
  // would be a reference cycle and leak). For external streams the
  // heartbeat must be conservative: it can only promise now − δ
  // (Section 5).
  auto* tick = heartbeats_
                   .emplace_back(
                       std::make_unique<std::function<void(Timestamp)>>())
                   .get();
  *tick = [this, source, period, tick](Timestamp now) {
    Timestamp bound = source->timestamp_kind() == TimestampKind::kExternal
                          ? now - source->skew_bound()
                          : now;
    source->InjectPunctuation(bound);
    events_.Schedule(now + period, *tick);
  };
  events_.Schedule(clock_->now() + phase + period, *tick);
}

void Simulation::ResetSteadyStateMetrics() {
  for (Sink* sink : graph_->sinks()) sink->mutable_latency().Reset();
  queue_tracker_.ResetPeak();
}

void Simulation::Run(Timestamp end_time, Timestamp warmup) {
  while (clock_->now() < end_time) {
    events_delivered_ += events_.FireDue(clock_->now());
    if (!warmup_applied_ && warmup > 0 && clock_->now() >= warmup) {
      warmup_applied_ = true;
      ResetSteadyStateMetrics();
    }
    if (executor_->RunStep()) continue;
    if (events_.empty()) break;
    Timestamp next = events_.NextTime();
    if (next >= end_time) break;
    // An idle probe (failed ETS sweep) may still have advanced the clock
    // past the event; in that case the next FireDue delivers it.
    if (next > clock_->now()) clock_->AdvanceTo(next);
  }
  if (clock_->now() < end_time) clock_->AdvanceTo(end_time);
  // With lease expiry armed, give it one shot at the horizon: a source
  // whose events dried up mid-run (death fault) only crosses its lease once
  // the clock has jumped here, and without this drain its idle-waiting
  // consumers would hold their buffered tuples forever. Leases off (the
  // default) leave the original behaviour untouched.
  if (executor_->liveness_enabled()) {
    executor_->RunUntilIdle();
  }
}

}  // namespace dsms
