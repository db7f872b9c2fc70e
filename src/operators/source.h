#ifndef DSMS_OPERATORS_SOURCE_H_
#define DSMS_OPERATORS_SOURCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/schema.h"
#include "core/tuple.h"
#include "core/value.h"
#include "operators/operator.h"

namespace dsms {

class FrontierTracker;

/// A source node of the query graph (Section 3). Its single output arc is
/// the stream's input buffer, filled from outside the executor — in Stream
/// Mill by input wrappers, here by the simulation's arrival processes via
/// `Ingest*`. Sources are not scheduled; `Step` only reports whether the
/// input buffer holds tuples.
///
/// Sources are also where on-demand Enabling Time-Stamps are born: when DFS
/// execution backtracks to a source whose buffer is empty while an IWP
/// operator downstream is idle-waiting, the executor calls `MakeEts(now)`
/// and pushes the resulting punctuation down the path (Sections 4, 5).
class Source : public Operator {
 public:
  /// `skew_bound` is the δ of Section 5: for externally timestamped streams,
  /// the application guarantees that a tuple's external timestamp lags the
  /// arrival wall time by at most δ. Ignored for internal/latent streams.
  Source(std::string name, int32_t stream_id, TimestampKind timestamp_kind,
         Duration skew_bound = 0);

  int min_inputs() const override { return 0; }
  int max_inputs() const override { return 0; }

  int32_t stream_id() const { return stream_id_; }
  TimestampKind timestamp_kind() const { return timestamp_kind_; }
  Duration skew_bound() const { return skew_bound_; }

  /// Granularity of internal timestamps: stamps (and internal ETS values)
  /// are truncated to multiples of `g`. Coarse granularities produce the
  /// *simultaneous tuples* of Section 4.1; default 1 (microsecond-exact).
  void set_timestamp_granularity(Duration g);
  Duration timestamp_granularity() const { return granularity_; }

  /// Declares this stream's payload schema; downstream field references are
  /// then type-checked by QueryGraph::Validate. Undeclared sources leave
  /// their subgraph untyped (no checks).
  void set_schema(Schema schema) { schema_ = std::move(schema); }
  const std::optional<Schema>& declared_schema() const { return schema_; }

  Result<std::optional<Schema>> DeriveSchema(
      const std::vector<std::optional<Schema>>& inputs) const override {
    (void)inputs;
    return schema_;
  }

  /// Sources only relay externally filled buffers.
  StepResult Step(ExecContext& ctx) override;
  bool HasWork() const override { return false; }

  /// Ingests a data tuple arriving at wall time `now`.
  ///  - internal streams: the tuple is stamped with `now`;
  ///  - latent streams:   the tuple carries no timestamp;
  ///  - external streams: use IngestExternal instead.
  void Ingest(InlinedValues values, Timestamp now);

  /// Batch relay: ingests every payload as if Ingest were called once per
  /// element, but stages the stamped tuples and hands them to the output
  /// buffer in one PushAll (one capacity check, one scheduler notification).
  void IngestBatch(std::vector<InlinedValues> payloads, Timestamp now);

  /// Ingests an externally timestamped tuple: `app_timestamp` was assigned
  /// by the producing application and must be <= now and >= the previous
  /// tuple's app timestamp (streams are ordered).
  void IngestExternal(Timestamp app_timestamp, InlinedValues values,
                      Timestamp now);

  /// Fault-injection hook: ingests a tuple stamped `app_timestamp` WITHOUT
  /// the monotonicity clamp or the promised-bound check — exactly what a
  /// misbehaving producer does (timestamp disorder, skew beyond δ). The
  /// stream's promise is never lowered; whether the out-of-order tuple
  /// survives its first arc is the attached ViolationPolicy's decision.
  /// Works for internal and external sources (latent sources carry no
  /// timestamps, so disorder cannot be expressed there).
  void IngestFaulty(Timestamp app_timestamp, InlinedValues values,
                    Timestamp now);

  /// Pushes a pre-built punctuation (used by the periodic heartbeat injector
  /// of scenario B, and by MakeEts).
  void InjectPunctuation(Timestamp timestamp);

  /// Fault-injection hook: pushes a punctuation WITHOUT the clamp that keeps
  /// honest heartbeats ordered — models duplicate or regressing punctuation
  /// from a broken upstream. Never raises the stream's promise.
  void InjectFaultyPunctuation(Timestamp timestamp);

  /// Computes an on-demand ETS for the current instant, or nullopt when no
  /// useful (strictly advancing) bound can be produced:
  ///  - internal: the current clock `now`;
  ///  - external: t + τ − δ where t is the last app timestamp, τ the time
  ///    since its arrival (no bound before the first tuple arrives);
  ///  - latent:   never (latent streams cannot idle-wait).
  std::optional<Timestamp> ComputeEts(Timestamp now) const;

  /// ComputeEts + InjectPunctuation; returns true if an ETS was emitted.
  bool EmitEts(Timestamp now);

  /// Fallback bound for a source whose lease expired (stalled or
  /// dead producer). Unlike ComputeEts, the external-stream case does not
  /// need any tuple to ever have arrived: with no pending data, every future
  /// tuple's app timestamp is > now − δ by the skew contract, so now − δ is
  /// a sound bound even from a cold start. nullopt when no strictly
  /// advancing bound exists (latent streams, or bound not past the promise).
  std::optional<Timestamp> ComputeFallbackEts(Timestamp now) const;

  /// ComputeFallbackEts + InjectPunctuation; returns true if a fallback ETS
  /// was emitted. Marks the source `degraded` and counts the emission so
  /// StatsReport can show that results past this point rely on the skew
  /// contract rather than observed data.
  bool EmitFallbackEts(Timestamp now);

  /// Largest timestamp lower bound already promised downstream (max of last
  /// data timestamp and last punctuation); ETS must advance past this.
  Timestamp promised_bound() const { return promised_bound_; }

  /// Wall time of the last producer activity (data ingest or injected
  /// punctuation); kMinTimestamp until the first. Lease expiry compares
  /// this against the lease duration.
  Timestamp last_activity() const { return last_activity_; }

  /// Frontier coordination service this source reports violations to
  /// (punctuation regressions, skew/disorder breaches — the faulty-ingest
  /// paths only; honest ingest never touches it). Set by the executor at
  /// construction, cleared at destruction. Null = standalone source.
  void set_frontier(FrontierTracker* frontier) { frontier_ = frontier; }
  FrontierTracker* frontier() const { return frontier_; }

  uint64_t tuples_ingested() const { return tuples_ingested_; }
  uint64_t ets_emitted() const { return ets_emitted_; }
  uint64_t lease_fallbacks() const { return lease_fallbacks_; }
  /// True once a fallback ETS was emitted on this stream: downstream output
  /// beyond that bound is derived from the skew contract, not observed data.
  bool degraded() const { return lease_fallbacks_ > 0; }

  void SaveState(StateWriter& w) const override;
  void LoadState(StateReader& r) override;

 private:
  /// Stamps arrival metadata and checks the promised bound; does NOT push.
  void PrepareData(Tuple& tuple, Timestamp now);
  void PushData(Tuple tuple, Timestamp now);
  Tuple MakeIngestTuple(InlinedValues values, Timestamp now) const;
  Timestamp Quantize(Timestamp t) const;

  int32_t stream_id_;
  TimestampKind timestamp_kind_;
  Duration skew_bound_;
  FrontierTracker* frontier_ = nullptr;
  Duration granularity_ = 1;
  std::optional<Schema> schema_;
  uint64_t next_sequence_ = 0;
  uint64_t tuples_ingested_ = 0;
  uint64_t ets_emitted_ = 0;
  uint64_t lease_fallbacks_ = 0;
  Timestamp promised_bound_ = kMinTimestamp;
  Timestamp last_activity_ = kMinTimestamp;
  /// External streams: last app timestamp and its arrival wall time.
  Timestamp last_app_timestamp_ = kMinTimestamp;
  Timestamp last_arrival_wall_ = kMinTimestamp;
};

}  // namespace dsms

#endif  // DSMS_OPERATORS_SOURCE_H_
