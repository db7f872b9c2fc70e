#include "exec/exec_stats.h"

#include <string>

#include "common/strings.h"
#include "obs/metrics_registry.h"

namespace dsms {

std::string ExecStats::ToString() const {
  return StrFormat(
      "data_steps=%llu punct_steps=%llu empty_steps=%llu backtracks=%llu "
      "hops=%llu ets=%llu lease_expired_ets=%llu idle_returns=%llu scans=%llu "
      "batches=%llu batch_rows=%llu batch_splits=%llu batch_fallbacks=%llu",
      static_cast<unsigned long long>(data_steps),
      static_cast<unsigned long long>(punctuation_steps),
      static_cast<unsigned long long>(empty_steps),
      static_cast<unsigned long long>(backtracks),
      static_cast<unsigned long long>(backtrack_hops),
      static_cast<unsigned long long>(ets_generated),
      static_cast<unsigned long long>(lease_expired_ets),
      static_cast<unsigned long long>(idle_returns),
      static_cast<unsigned long long>(work_scans),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(batch_rows),
      static_cast<unsigned long long>(batch_punct_splits),
      static_cast<unsigned long long>(batch_fallback_steps));
}

void ExecStats::BindTo(MetricsRegistry* registry,
                       const std::string& prefix) const {
  for (const ExecStatsCounter& counter : kExecStatsCounters) {
    const uint64_t* field = &(this->*counter.field);
    registry->RegisterView(prefix + "." + counter.name, [field]() {
      return static_cast<double>(*field);
    });
  }
}

void ExecStats::PublishTo(MetricsRegistry* registry,
                          const std::string& prefix) const {
  for (const ExecStatsCounter& counter : kExecStatsCounters) {
    registry->SetCounter(prefix + "." + counter.name, this->*counter.field);
  }
}

}  // namespace dsms
