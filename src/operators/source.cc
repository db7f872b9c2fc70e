#include "operators/source.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "frontier/frontier_tracker.h"
#include "recovery/state_codec.h"

namespace dsms {

Source::Source(std::string name, int32_t stream_id,
               TimestampKind timestamp_kind, Duration skew_bound)
    : Operator(std::move(name)),
      stream_id_(stream_id),
      timestamp_kind_(timestamp_kind),
      skew_bound_(skew_bound) {
  DSMS_CHECK_GE(skew_bound, 0);
}

StepResult Source::Step(ExecContext& ctx) {
  (void)ctx;
  ++stats_.steps;
  StepResult result;
  result.yield = AnyOutputNonEmpty(*this);
  result.more = false;
  return result;
}

void Source::set_timestamp_granularity(Duration g) {
  DSMS_CHECK_GE(g, 1);
  granularity_ = g;
}

Timestamp Source::Quantize(Timestamp t) const {
  if (granularity_ <= 1) return t;
  // Timestamps are non-negative in practice; plain truncation suffices.
  return (t / granularity_) * granularity_;
}

Tuple Source::MakeIngestTuple(InlinedValues values, Timestamp now) const {
  if (timestamp_kind_ == TimestampKind::kInternal) {
    return Tuple::MakeData(Quantize(now), std::move(values),
                           TimestampKind::kInternal);
  }
  return Tuple::MakeLatent(std::move(values));
}

void Source::Ingest(InlinedValues values, Timestamp now) {
  DSMS_CHECK(timestamp_kind_ != TimestampKind::kExternal);
  PushData(MakeIngestTuple(std::move(values), now), now);
}

void Source::IngestBatch(std::vector<InlinedValues> payloads, Timestamp now) {
  DSMS_CHECK(timestamp_kind_ != TimestampKind::kExternal);
  std::vector<Tuple> batch;
  batch.reserve(payloads.size());
  for (InlinedValues& values : payloads) {
    Tuple tuple = MakeIngestTuple(std::move(values), now);
    PrepareData(tuple, now);
    ++stats_.data_out;
    batch.push_back(std::move(tuple));
  }
  output()->PushAll(std::move(batch));
}

void Source::IngestExternal(Timestamp app_timestamp, InlinedValues values,
                            Timestamp now) {
  DSMS_CHECK(timestamp_kind_ == TimestampKind::kExternal);
  DSMS_CHECK_GE(app_timestamp, last_app_timestamp_ == kMinTimestamp
                                   ? app_timestamp
                                   : last_app_timestamp_);
  Tuple tuple = Tuple::MakeData(app_timestamp, std::move(values),
                                TimestampKind::kExternal);
  last_app_timestamp_ = app_timestamp;
  last_arrival_wall_ = now;
  PushData(std::move(tuple), now);
}

void Source::IngestFaulty(Timestamp app_timestamp, InlinedValues values,
                          Timestamp now) {
  DSMS_CHECK(timestamp_kind_ != TimestampKind::kLatent);
  // Centralized validation: classify the breach for the frontier tracker
  // before the promise is (possibly) raised below. Bookkeeping only — the
  // tuple's fate on its first arc stays the ViolationPolicy's decision.
  if (frontier_ != nullptr) {
    if (timestamp_kind_ == TimestampKind::kExternal &&
        app_timestamp < now - skew_bound_) {
      frontier_->ReportViolation(stream_id_,
                                 FrontierViolation::kSkewViolation);
    } else if (promised_bound_ != kMinTimestamp &&
               app_timestamp < promised_bound_) {
      frontier_->ReportViolation(stream_id_,
                                 FrontierViolation::kTimestampDisorder);
    } else {
      frontier_->ReportBenign(stream_id_);
    }
  }
  Tuple tuple =
      Tuple::MakeData(app_timestamp, std::move(values),
                      timestamp_kind_ == TimestampKind::kExternal
                          ? TimestampKind::kExternal
                          : TimestampKind::kInternal);
  tuple.set_arrival_time(now);
  tuple.set_source_id(stream_id_);
  tuple.set_sequence(next_sequence_++);
  ++tuples_ingested_;
  last_activity_ = now;
  // Never lower the promise: the stream's contract with downstream stands
  // even when a producer breaks it; the late tuple is the anomaly.
  if (app_timestamp > promised_bound_) promised_bound_ = app_timestamp;
  if (timestamp_kind_ == TimestampKind::kExternal) {
    if (app_timestamp > last_app_timestamp_ ||
        last_app_timestamp_ == kMinTimestamp) {
      last_app_timestamp_ = app_timestamp;
    }
    last_arrival_wall_ = now;
  }
  ++stats_.data_out;
  output()->Push(std::move(tuple));
}

void Source::PrepareData(Tuple& tuple, Timestamp now) {
  tuple.set_arrival_time(now);
  tuple.set_source_id(stream_id_);
  tuple.set_sequence(next_sequence_++);
  if (tuple.has_timestamp()) {
    DSMS_CHECK_GE(tuple.timestamp(), promised_bound_ == kMinTimestamp
                                         ? tuple.timestamp()
                                         : promised_bound_);
    promised_bound_ = tuple.timestamp();
  }
  ++tuples_ingested_;
}

void Source::PushData(Tuple tuple, Timestamp now) {
  PrepareData(tuple, now);
  last_activity_ = now;
  ++stats_.data_out;
  output()->Push(std::move(tuple));
}

void Source::InjectPunctuation(Timestamp timestamp) {
  // A stale heartbeat may carry a bound below what this stream has already
  // promised (e.g. periodic injection racing with data); clamp up so the
  // buffer stays timestamp-ordered. The punctuation is still pushed — its
  // buffer-occupancy and processing overheads are part of what scenario B
  // measures.
  if (timestamp < promised_bound_ && promised_bound_ != kMinTimestamp) {
    timestamp = promised_bound_;
  }
  Tuple punct = Tuple::MakePunctuation(timestamp);
  punct.set_arrival_time(timestamp);
  punct.set_source_id(stream_id_);
  if (timestamp > promised_bound_) promised_bound_ = timestamp;
  if (timestamp > last_activity_) last_activity_ = timestamp;
  ++stats_.punctuation_out;
  output()->Push(std::move(punct));
}

void Source::InjectFaultyPunctuation(Timestamp timestamp) {
  if (frontier_ != nullptr) {
    if (promised_bound_ != kMinTimestamp && timestamp < promised_bound_) {
      frontier_->ReportViolation(stream_id_,
                                 FrontierViolation::kPunctuationRegression);
    } else {
      // A duplicate restates the standing promise: wasteful, not a lie.
      frontier_->ReportBenign(stream_id_);
    }
  }
  Tuple punct = Tuple::MakePunctuation(timestamp);
  punct.set_arrival_time(timestamp);
  punct.set_source_id(stream_id_);
  // No clamp and no promise update: a duplicate punctuation restates an old
  // bound, a regressing one breaks it — either way the promise stands.
  if (timestamp > promised_bound_) promised_bound_ = timestamp;
  ++stats_.punctuation_out;
  output()->Push(std::move(punct));
}

std::optional<Timestamp> Source::ComputeEts(Timestamp now) const {
  switch (timestamp_kind_) {
    case TimestampKind::kInternal: {
      // Future internally stamped tuples get ts >= Quantize(now) by
      // construction (stamps are quantized the same way).
      Timestamp bound = Quantize(now);
      if (bound <= promised_bound_) return std::nullopt;
      return bound;
    }
    case TimestampKind::kExternal: {
      // Section 5: with max skew δ and time τ elapsed since the last tuple
      // (app timestamp t) arrived, future tuples have ts >= t + τ − δ.
      if (last_app_timestamp_ == kMinTimestamp) return std::nullopt;
      Duration elapsed = now - last_arrival_wall_;
      Timestamp bound = last_app_timestamp_ + elapsed - skew_bound_;
      if (bound <= promised_bound_) return std::nullopt;
      return bound;
    }
    case TimestampKind::kLatent:
      return std::nullopt;
  }
  return std::nullopt;
}

bool Source::EmitEts(Timestamp now) {
  std::optional<Timestamp> ets = ComputeEts(now);
  if (!ets.has_value()) return false;
  InjectPunctuation(*ets);
  ++ets_emitted_;
  return true;
}

std::optional<Timestamp> Source::ComputeFallbackEts(Timestamp now) const {
  switch (timestamp_kind_) {
    case TimestampKind::kInternal: {
      // Same bound as the regular ETS: future internal stamps are >=
      // Quantize(now) whether or not the producer is alive.
      Timestamp bound = Quantize(now);
      if (bound <= promised_bound_) return std::nullopt;
      return bound;
    }
    case TimestampKind::kExternal: {
      // Skew contract alone: any tuple arriving after `now` has app
      // timestamp > now − δ. Unlike ComputeEts's t + τ − δ this needs no
      // observation at all — crucial for a source that died before its
      // first tuple.
      Timestamp bound = now - skew_bound_;
      if (bound <= promised_bound_) return std::nullopt;
      return bound;
    }
    case TimestampKind::kLatent:
      return std::nullopt;
  }
  return std::nullopt;
}

bool Source::EmitFallbackEts(Timestamp now) {
  std::optional<Timestamp> ets = ComputeFallbackEts(now);
  if (!ets.has_value()) return false;
  InjectPunctuation(*ets);
  ++ets_emitted_;
  ++lease_fallbacks_;
  return true;
}

void Source::SaveState(StateWriter& w) const {
  Operator::SaveState(w);
  w.U64(next_sequence_);
  w.U64(tuples_ingested_);
  w.U64(ets_emitted_);
  w.U64(lease_fallbacks_);
  w.Ts(promised_bound_);
  w.Ts(last_activity_);
  w.Ts(last_app_timestamp_);
  w.Ts(last_arrival_wall_);
}

void Source::LoadState(StateReader& r) {
  Operator::LoadState(r);
  next_sequence_ = r.U64();
  tuples_ingested_ = r.U64();
  ets_emitted_ = r.U64();
  lease_fallbacks_ = r.U64();
  promised_bound_ = r.Ts();
  last_activity_ = r.Ts();
  last_app_timestamp_ = r.Ts();
  last_arrival_wall_ = r.Ts();
}

}  // namespace dsms
