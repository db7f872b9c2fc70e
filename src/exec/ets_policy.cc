#include "exec/ets_policy.h"

#include <optional>

#include "common/time.h"
#include "frontier/frontier_tracker.h"
#include "obs/tracer.h"
#include "recovery/state_codec.h"

namespace dsms {

const char* EtsModeToString(EtsMode mode) {
  switch (mode) {
    case EtsMode::kNone:
      return "none";
    case EtsMode::kOnDemand:
      return "on-demand";
  }
  return "unknown";
}

bool EtsGate::MaybeGenerate(Source* source, Timestamp now,
                            bool downstream_idle_waiting,
                            Timestamp release_bound) {
  if (policy_.mode != EtsMode::kOnDemand) return false;
  if (!downstream_idle_waiting) return false;
  if (policy_.min_interval > 0) {
    auto it = last_generation_.find(source->stream_id());
    if (it != last_generation_.end() &&
        now - it->second < policy_.min_interval) {
      return false;
    }
  }
  std::optional<Timestamp> ets = frontier_ != nullptr
                                     ? frontier_->ProposeEts(source, now)
                                     : source->ComputeEts(now);
  if (!ets.has_value()) return false;
  if (*ets < release_bound) return false;  // Could not unblock anything.
  if (!source->EmitEts(now)) return false;
  ++generated_;
  last_generation_[source->stream_id()] = now;
  if (tracer_ != nullptr) {
    tracer_->RecordEts(source->id(), EtsOrigin::kOnDemand, *ets);
  }
  return true;
}

bool EtsGate::GenerateFallback(Source* source, Timestamp now) {
  if (!source->EmitFallbackEts(now)) return false;
  ++fallback_generated_;
  last_generation_[source->stream_id()] = now;
  if (tracer_ != nullptr) {
    // After a successful emit the promised bound is the emitted ETS value.
    tracer_->RecordEts(source->id(), EtsOrigin::kLease,
                       source->promised_bound());
  }
  return true;
}

void EtsGate::SaveState(StateWriter& w) const {
  w.U64(generated_);
  w.U64(fallback_generated_);
  w.U32(static_cast<uint32_t>(last_generation_.size()));
  for (const auto& [stream, when] : last_generation_) {
    w.I64(stream);
    w.Ts(when);
  }
}

void EtsGate::LoadState(StateReader& r) {
  generated_ = r.U64();
  fallback_generated_ = r.U64();
  last_generation_.clear();
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    int32_t stream = static_cast<int32_t>(r.I64());
    last_generation_[stream] = r.Ts();
  }
}

}  // namespace dsms
