// perfbench: wall-clock benchmark of the StreamETS engine.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--commit ID] [--tiny]
//             [--inject corrupt-digest|drop-record]
//
// Prints a table of metrics, a `meta` line (build type, compiler, cores,
// commit, seed, run length), and as the last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exits 1 when an oracle or guard check fails, 2 on bad arguments or a
// build without NDEBUG. perfbench/run.py builds and runs it.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// What a user of the system sees; reported by every untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_rps", "1/s"},  {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},   {"recover_s", "s"},
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"delivered_ratio", "ratio"},
};

/// Single layers, measured from outside by timing calls into each module;
/// reported by every traced run (0 where a workload does not exercise the
/// layer, and listed as not measured).
constexpr MetricDef kPerLayer[] = {
    {"net.decode_ns_per_frame", "ns"},
    {"net.encode_ns_per_frame", "ns"},
    {"net.send_s", "s"},
    {"net.bytes_per_frame", "bytes"},
    {"net.frames_ingested", "count"},
    {"net.decode_errors", "count"},
    {"gen.late_p50_us", "us"},
    {"gen.late_p99_us", "us"},
    {"wal.append_ns_per_frame", "ns"},
    {"wal.bytes_per_frame", "bytes"},
    {"wal.flush_ms", "ms"},
    {"recovery.open_s", "s"},
    {"recovery.replay_s", "s"},
    {"source.ingest_ns_per_frame", "ns"},
    {"buffer.source_out.wait_p50_us", "us"},
    {"buffer.source_out.wait_p99_us", "us"},
    {"buffer.iwp_in.wait_p50_us", "us"},
    {"buffer.iwp_in.wait_p99_us", "us"},
    {"buffer.sink_in.wait_p50_us", "us"},
    {"buffer.sink_in.wait_p99_us", "us"},
    {"buffer.peak_total", "count"},
    {"exec.run_ns_per_frame", "ns"},
    {"exec.steps_per_frame", "count"},
    {"exec.empty_step_ratio", "ratio"},
    {"exec.ets_per_frame", "count"},
    {"exec.backtrack_hops_per_frame", "count"},
    {"exec.idle_returns_per_frame", "count"},
    {"exec.shard_speedup", "ratio"},
    {"sim.shards4_rps", "1/s"},
    {"sink.emit_ns_per_frame", "ns"},
    {"union.idle_wait_frac", "ratio"},
    {"join.out_per_in", "ratio"},
    {"storage.append_ns", "ns"},
    {"storage.probe_ns", "ns"},
    {"storage.expire_ns", "ns"},
    {"storage.spills", "count"},
    {"storage.loads", "count"},
    {"storage.evictions", "count"},
    {"storage.loads_per_probe", "ratio"},
    {"storage.spilled_bytes", "bytes"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

struct Workload {
  const char* name;
  void (*run)(const Options&, Report*);
};

constexpr Workload kWorkloads[] = {
    {"union_wal_blast", perfbench::RunUnionWalBlast},
    {"union_paced", perfbench::RunUnionPaced},
    {"join_spill", perfbench::RunJoinSpill},
};

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--commit ID] [--tiny] "
               "[--inject corrupt-digest|drop-record]\n",
               problem);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: built without NDEBUG; timings of a debug build "
               "mean nothing. Rebuild with -DCMAKE_BUILD_TYPE=Release.\n");
  return 2;
#endif
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      options.trace = v == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      options.work_dir = value();
    } else if (flag == "--commit") {
      options.commit = value();
    } else if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--inject") {
      const std::string v = value();
      if (v == "corrupt-digest") {
        options.inject = perfbench::Inject::kCorruptDigest;
      } else if (v == "drop-record") {
        options.inject = perfbench::Inject::kDropRecord;
      } else {
        Usage("unknown --inject kind");
      }
    } else {
      Usage(("unknown argument: " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds (> 0) and --trace are required");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown --workload");

  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) Usage(("cannot create --work-dir: " + ec.message()).c_str());

  Report report;
  if (options.trace) {
    for (const MetricDef& m : kPerLayer) report.Declare(m.name, m.unit);
  } else {
    for (const MetricDef& m : kEndToEnd) report.Declare(m.name, m.unit);
  }
  workload->run(options, &report);
  report.Print(options);
  return report.correct() ? 0 : 1;
}
