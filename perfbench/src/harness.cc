#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::Declare(const std::string& name, const std::string& unit) {
  metrics_.push_back(Entry{name, 0.0, unit, false});
}

void Report::Set(const std::string& name, double value) {
  for (Entry& entry : metrics_) {
    if (entry.name == name) {
      entry.value = value;
      entry.measured = true;
      return;
    }
  }
  std::fprintf(stderr, "metric %s set but never declared\n", name.c_str());
  std::abort();
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::AddRecords(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Print(const Options& options) const {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const Entry& entry : metrics_) {
    std::printf("  %-36s %18.6f %s\n", entry.name.c_str(), entry.value,
                entry.unit.c_str());
  }
  const double failed_ratio =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("  %-36s %18.6f %s\n", "failed_ratio", failed_ratio, "ratio");
  std::string unmeasured;
  for (const Entry& entry : metrics_) {
    if (!entry.measured) unmeasured += " " + entry.name;
  }
  if (!unmeasured.empty()) {
    std::printf("  not measured on this workload (reported as 0):%s\n",
                unmeasured.c_str());
  }
  for (const std::string& error : errors_) {
    std::printf("  FAILED CHECK: %s\n", error.c_str());
  }
  std::printf("meta {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"commit\": %s, %s}\n",
              JsonString(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              JsonNumber(options.seconds).c_str(), options.trace ? 1 : 0,
              JsonString(options.commit).c_str(), BuildFacts().c_str());
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(metrics_[i].name) + ": {\"value\": " +
            JsonNumber(metrics_[i].value) +
            ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

void SeqDigest::Add(uint64_t a, uint64_t b) {
  hash = Mix64(hash ^ Mix64(a * 0x9e3779b97f4a7c15ull + b));
  ++count;
}

void SetDigest::Add(uint64_t a, uint64_t b) {
  const uint64_t h = Mix64(a * 0x9e3779b97f4a7c15ull + Mix64(b));
  sum += h;
  mix ^= Mix64(h);
  ++count;
}

int32_t SpanLog::Begin(const char* name, int64_t record) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, WallNs(), 0, parent, record});
  open_.push_back(id);
  return id;
}

void SpanLog::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = WallNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a mismatch by
  // unwinding to the closed span.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, SpanLog::Totals> SpanLog::Summarize() const {
  // Children of one parent run one after another on one thread, so the
  // time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Totals& t = totals[span.name];
    const int64_t duration = span.end_ns - span.start_ns;
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return totals;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %d, \"record\": %lld}}\n",
                  i == 0 ? "" : ",", span.name,
                  static_cast<double>(span.start_ns - origin) / 1000.0,
                  static_cast<double>(span.end_ns - span.start_ns) / 1000.0,
                  i, span.parent, static_cast<long long>(span.record));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void WallWaitListener::OnPush(const dsms::StreamBuffer& buffer,
                              const dsms::Tuple& tuple) {
  (void)buffer;
  (void)tuple;
  pushed_.push_back(WallNs());
}

void WallWaitListener::OnPop(const dsms::StreamBuffer& buffer,
                             const dsms::Tuple& tuple) {
  (void)buffer;
  // Tuples already buffered when the listener attached have no push time.
  if (pushed_.empty()) return;
  const int64_t pushed_at = pushed_.front();
  pushed_.pop_front();
  if (tuple.is_data()) {
    waits_us_.push_back(static_cast<double>(WallNs() - pushed_at) / 1000.0);
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string BuildFacts() {
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u",
                build_type, __VERSION__, std::thread::hardware_concurrency());
  return buf;
}

}  // namespace perfbench
