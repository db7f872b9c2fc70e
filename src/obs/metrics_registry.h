#ifndef DSMS_OBS_METRICS_REGISTRY_H_
#define DSMS_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "metrics/histogram.h"

namespace dsms {

/// One registration point for named metrics and one snapshot path for
/// rendering them (aligned table or strict JSON). Four instrument kinds:
///
///  - Counter: monotonically increasing uint64, owned by the registry;
///  - Gauge:   settable double, owned by the registry;
///  - Histogram: metrics/Histogram, owned by the registry, flattened into
///    .count/.mean/.p50/.p99/.max samples at snapshot time;
///  - View:    a double computed on demand from a caller-owned field — how
///    the pre-existing stat structs (ExecStats, ExperimentReport,
///    per-operator stats) are re-plumbed through the
///    registry without churning their field accessors. The viewed object
///    must outlive the registry (or the registry must be snapshotted before
///    the object dies).
///
/// Names are dot-separated paths ("exec.data_steps", "op.U.punct_out");
/// snapshots are sorted by name, so output is deterministic.
class MetricsRegistry {
 public:
  class Counter {
   public:
    void Increment(uint64_t delta = 1) { value_ += delta; }
    void Set(uint64_t value) { value_ = value; }
    uint64_t value() const { return value_; }

   private:
    uint64_t value_ = 0;
  };

  class Gauge {
   public:
    void Set(double value) { value_ = value; }
    double value() const { return value_; }

   private:
    double value_ = 0.0;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. Pointers stay valid for the registry's lifetime.
  /// Registering the same name as two different kinds is a programming
  /// error (checked).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Registers a live view; `fn` is evaluated at snapshot time.
  /// Re-registering replaces the previous view under that name.
  void RegisterView(const std::string& name, std::function<double()> fn);

  /// Convenience setters (get-or-create then set).
  void SetGauge(const std::string& name, double value) {
    GetGauge(name)->Set(value);
  }
  void SetCounter(const std::string& name, uint64_t value) {
    GetCounter(name)->Set(value);
  }

  bool Contains(const std::string& name) const {
    return metrics_.count(name) > 0;
  }
  size_t size() const { return metrics_.size(); }

  /// One rendered sample. Counters format as integers; gauges and views as
  /// %.6g; non-finite values as "nan"/"inf" (PrintJson turns those into
  /// null — strict JSON has no spelling for them).
  struct Sample {
    std::string name;
    const char* kind;  // "counter" | "gauge" | "histogram" | "view"
    std::string value;
  };

  /// All samples sorted by name, histograms flattened.
  std::vector<Sample> Samples() const;

  /// Aligned metric/kind/value table (TablePrinter).
  void PrintTable(std::ostream& os) const;

  /// A single JSON object mapping metric name to value. Strictly valid:
  /// names are escaped, non-finite values emit null.
  void PrintJson(std::ostream& os) const;

 private:
  struct Metric {
    // Exactly one is set.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> view;
  };

  std::map<std::string, Metric> metrics_;
};

}  // namespace dsms

#endif  // DSMS_OBS_METRICS_REGISTRY_H_
