// Shared measurement machinery of the wall-clock benchmark: options,
// the result report (the one-line JSON contract), sink digests, in-memory
// spans for the traced run, and a wall-clock buffer-wait listener.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/stream_buffer.h"
#include "core/tuple.h"

namespace perfbench {

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(WallNs() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Deliberate faults for the benchmark's self-test; never set in a timed run.
enum class Inject { kNone, kCorruptDigest, kDropRecord };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measuring time of one run: rounds repeat until it is used up.
  double seconds = 10;
  /// 0: end-to-end metrics from untraced runs; 1: the traced run's
  /// per-layer metrics.
  bool trace = false;
  /// Scratch directory for WAL segments, spill blocks and span files.
  std::string work_dir = "perfbench/.work";
  /// Identity of the measured source tree (git commit or content hash).
  std::string commit = "unknown";
  /// Self-test sizes: every workload shrunk to a fraction of a second.
  bool tiny = false;
  Inject inject = Inject::kNone;
};

/// The result of one benchmark invocation. Print() writes a human-readable
/// table, a metadata line, and finally the single JSON object the contract
/// requires as the last line of stdout.
class Report {
 public:
  /// Lists a metric this run reports. It reads 0 until Set, and one never
  /// Set is named as not measured on this workload.
  void Declare(const std::string& name, const std::string& unit);
  /// Sets a declared metric (setting an undeclared one is a bug: abort).
  void Set(const std::string& name, double value);
  /// Records an oracle or guard failure; the run is then not correct.
  void Check(bool ok, const std::string& what);
  void AddRecords(uint64_t attempted, uint64_t failed);

  bool correct() const { return errors_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  void Print(const Options& options) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    bool measured;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Order-sensitive digest of one sink's output sequence.
struct SeqDigest {
  uint64_t hash = 1469598103934665603ull;
  uint64_t count = 0;
  void Add(uint64_t a, uint64_t b);
  bool operator==(const SeqDigest& other) const {
    return hash == other.hash && count == other.count;
  }
};

/// Order-insensitive digest: equal for equal multisets of (a, b) pairs.
struct SetDigest {
  uint64_t sum = 0;
  uint64_t mix = 0;
  uint64_t count = 0;
  void Add(uint64_t a, uint64_t b);
  bool operator==(const SetDigest& other) const {
    return sum == other.sum && mix == other.mix && count == other.count;
  }
};

/// Spans of the traced run, kept in memory and written out at the end.
/// A span's parent is the innermost span open when it began.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    int64_t record;
  };
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    /// Duration minus the time covered by child spans.
    int64_t self_ns = 0;
  };

  int32_t Begin(const char* name, int64_t record);
  void End(int32_t id);

  /// Per span name: count, total and self time.
  std::map<std::string, Totals> Summarize() const;
  /// Chrome trace-event JSON (one complete event per span).
  bool WriteJson(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t record = -1)
      : log_(log), id_(log != nullptr ? log->Begin(name, record) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Wall-clock time each data tuple waits in one arc, from push to pop.
/// Arcs are FIFO, so a queue of push instants pairs every pop with its
/// push. Attach one listener per arc: the buffer serializes its own
/// listener calls, so nothing here is shared across arcs.
class WallWaitListener : public dsms::BufferListener {
 public:
  void OnPush(const dsms::StreamBuffer& buffer,
              const dsms::Tuple& tuple) override;
  void OnPop(const dsms::StreamBuffer& buffer,
             const dsms::Tuple& tuple) override;
  /// Waits in microseconds, one per popped data tuple.
  const std::vector<double>& waits_us() const { return waits_us_; }

 private:
  std::deque<int64_t> pushed_;
  std::vector<double> waits_us_;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Build facts every result carries (compiler, build type, cores).
std::string BuildFacts();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
