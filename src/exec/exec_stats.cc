#include "exec/exec_stats.h"

#include <string>
#include <utility>

#include "common/strings.h"
#include "obs/metrics_registry.h"

namespace dsms {
namespace {

/// The one name->field table both registry plumbings share.
template <typename Fn>
void ForEachCounter(const ExecStats& stats, const std::string& prefix,
                    Fn&& fn) {
  fn(prefix + ".data_steps", &stats.data_steps);
  fn(prefix + ".punctuation_steps", &stats.punctuation_steps);
  fn(prefix + ".empty_steps", &stats.empty_steps);
  fn(prefix + ".backtracks", &stats.backtracks);
  fn(prefix + ".backtrack_hops", &stats.backtrack_hops);
  fn(prefix + ".ets_generated", &stats.ets_generated);
  fn(prefix + ".frontier.lease_expired_ets", &stats.lease_expired_ets);
  fn(prefix + ".idle_returns", &stats.idle_returns);
  fn(prefix + ".work_scans", &stats.work_scans);
  fn(prefix + ".batch.batches", &stats.batches);
  fn(prefix + ".batch.rows", &stats.batch_rows);
  fn(prefix + ".batch.punct_splits", &stats.batch_punct_splits);
  fn(prefix + ".batch.fallback_steps", &stats.batch_fallback_steps);
}

}  // namespace

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
  ForEachCounter(*this, prefix,
                 [registry](std::string name, const uint64_t* field) {
                   registry->RegisterView(std::move(name), [field]() {
                     return static_cast<double>(*field);
                   });
                 });
}

void ExecStats::PublishTo(MetricsRegistry* registry,
                          const std::string& prefix) const {
  ForEachCounter(*this, prefix,
                 [registry](std::string name, const uint64_t* field) {
                   registry->SetCounter(name, *field);
                 });
}

}  // namespace dsms
