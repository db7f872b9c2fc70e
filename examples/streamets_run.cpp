// streamets_run — execute a self-contained experiment file: a query plan
// (graph/plan_parser.h statements) plus feed/heartbeat/run statements
// (sim/experiment_spec.h). Prints per-sink latency, punctuation counters,
// and a per-operator statistics table.
//
//   $ ./streamets_run experiment.plan
//   $ ./streamets_run --demo          # run a built-in demo experiment
//   $ ./streamets_run --trace /tmp/run.trace.json experiment.plan
//   $ ./streamets_run --metrics /tmp/run.metrics.json experiment.plan
//   $ ./streamets_run --batch 64 experiment.plan
//
// --trace writes a Chrome trace-event JSON of the run (open in Perfetto;
// it overrides any `trace` statement in the file). --metrics writes the
// unified metrics snapshot as one JSON object. --batch N enables columnar
// batch execution with N rows per batch (overrides the file's `batch`
// statement; see docs/batching.md).
//
// Demo experiment (also a syntax reference):
//
//   stream FAST ts=internal
//   stream SLOW ts=internal
//   filter F1 in=FAST selectivity=0.95 seed=7
//   filter F2 in=SLOW selectivity=0.95 seed=8
//   union U in=F1,F2
//   sink OUT in=U
//   feed FAST process=poisson rate=50 seed=1
//   feed SLOW process=poisson rate=0.05 seed=2
//   run horizon=120s warmup=10s ets=on-demand

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <memory>
#include <vector>

#include "common/flag_help.h"
#include "common/strings.h"
#include "obs/metrics_registry.h"
#include "recovery/durable_sink.h"
#include "sim/experiment_spec.h"

namespace {

const std::vector<dsms::FlagHelp> kFlags = {
    {"--demo", "", "run a built-in demo experiment"},
    {"--trace", "PATH",
     "write a Chrome trace of the run (overrides the file's trace line)"},
    {"--metrics", "PATH", "write the metrics snapshot as one JSON object"},
    {"--batch", "N",
     "columnar batch execution, N rows per batch (0 = scalar; overrides "
     "the file's batch line)"},
    {"--shards", "N",
     "sharded execution with N worker shards (DFS only; overrides the "
     "file's run shards=)"},
    {"--shard-mode", "MODE",
     "deterministic|parallel shard scheduling (overrides run mode=)"},
    {"--sink-dump", "DIR",
     "write every sink's delivered tuples to DIR/sink-<name>.out, one "
     "line per tuple (byte-comparable across runs, e.g. spill vs "
     "in-memory)"},
    {"--spill-dir", "PATH",
     "override the spill directory of the file's state statement"},
    {"--mem-budget", "SIZE",
     "override the state statement's memory budget (bytes, or k/m/g "
     "suffix; 0 = never spill)"},
    {"--help", "", "show this message and exit"},
};

constexpr char kDemo[] = R"(
stream FAST ts=internal
stream SLOW ts=internal
filter F1 in=FAST selectivity=0.95 seed=7
filter F2 in=SLOW selectivity=0.95 seed=8
union U in=F1,F2
sink OUT in=U
feed FAST process=poisson rate=50 seed=1
feed SLOW process=poisson rate=0.05 seed=2
run horizon=120s warmup=10s ets=on-demand
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace dsms;

  std::string input;
  bool demo = false;
  std::string trace_path;
  std::string metrics_path;
  std::string sink_dump;
  std::string spill_dir;
  long long mem_budget = -1;
  long batch_size = -1;
  long shards = -1;
  std::string shard_mode;

  // SIZE with an optional binary k/m/g suffix, as in the `state` statement.
  auto parse_size = [](const char* text, long long* out) {
    char* end = nullptr;
    long long v = std::strtoll(text, &end, 10);
    if (end == text || v < 0) return false;
    if (*end == 'k' || *end == 'K') v <<= 10, ++end;
    else if (*end == 'm' || *end == 'M') v <<= 20, ++end;
    else if (*end == 'g' || *end == 'G') v <<= 30, ++end;
    if (*end != '\0') return false;
    *out = v;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch_size = std::strtol(argv[++i], nullptr, 10);
      if (batch_size < 0) {
        std::fprintf(stderr, "--batch must be >= 0\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtol(argv[++i], nullptr, 10);
      if (shards < 1) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--sink-dump") == 0 && i + 1 < argc) {
      sink_dump = argv[++i];
    } else if (std::strcmp(argv[i], "--spill-dir") == 0 && i + 1 < argc) {
      spill_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--mem-budget") == 0 && i + 1 < argc) {
      if (!parse_size(argv[++i], &mem_budget)) {
        std::fprintf(stderr, "bad --mem-budget value\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--shard-mode") == 0 && i + 1 < argc) {
      shard_mode = argv[++i];
      if (shard_mode != "deterministic" && shard_mode != "parallel") {
        std::fprintf(stderr,
                     "--shard-mode must be deterministic or parallel\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintFlagHelp(stdout, argv[0],
                    "execute a self-contained experiment file "
                    "(plan + feed/heartbeat/run statements)",
                    kFlags);
      return 0;
    } else if (argv[i][0] != '-' && input.empty()) {
      input = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace PATH] [--metrics PATH] "
                   "<experiment-file> | --demo\n",
                   argv[0]);
      return 1;
    }
  }

  std::string text;
  if (demo) {
    text = kDemo;
    std::printf("running built-in demo experiment:\n%s\n", kDemo);
  } else if (!input.empty()) {
    std::ifstream file(input);
    if (!file.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", input.c_str());
      return 1;
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    text = contents.str();
  } else {
    std::fprintf(stderr,
                 "usage: %s [--trace PATH] [--metrics PATH] "
                 "<experiment-file> | --demo\n",
                 argv[0]);
    return 1;
  }

  Result<Experiment> experiment = ParseExperiment(text);
  if (!experiment.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 experiment.status().ToString().c_str());
    return 1;
  }
  if (!trace_path.empty()) experiment->trace.path = trace_path;
  if (batch_size >= 0) {
    experiment->run.batch = static_cast<size_t>(batch_size);
  }
  if (shards >= 1) {
    if (shards > 1 && experiment->run.executor != ExecutorKind::kDfs) {
      std::fprintf(stderr, "--shards requires executor=dfs\n");
      return 1;
    }
    experiment->run.shards = static_cast<int>(shards);
  }
  if (!shard_mode.empty()) {
    experiment->run.shard_mode = shard_mode == "parallel"
                                     ? ShardMode::kParallel
                                     : ShardMode::kDeterministic;
  }
  if (!spill_dir.empty()) experiment->storage.spill_dir = spill_dir;
  if (mem_budget >= 0) {
    experiment->storage.mem_budget = static_cast<uint64_t>(mem_budget);
  }

  // Durable sink dumps (one ToString line per delivered tuple): the
  // byte-identity oracle CI uses to compare a spilling run against an
  // unlimited-memory one.
  std::vector<std::unique_ptr<DurableSink>> dumps;
  if (!sink_dump.empty()) {
    for (Sink* sink : experiment->plan.graph->sinks()) {
      auto dump = std::make_unique<DurableSink>(sink_dump, sink->name());
      Status opened = dump->Open(/*resume_offset=*/0);
      if (!opened.ok()) {
        std::fprintf(stderr, "sink dump error: %s\n",
                     opened.ToString().c_str());
        return 1;
      }
      dump->Attach(sink);
      dumps.push_back(std::move(dump));
    }
  }

  Result<ExperimentReport> report = RunExperiment(&*experiment);
  if (!report.ok()) {
    std::fprintf(stderr, "run error: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  for (const auto& dump : dumps) {
    Status flushed = dump->Flush();
    if (!flushed.ok()) {
      std::fprintf(stderr, "sink dump error: %s\n",
                   flushed.ToString().c_str());
      return 1;
    }
  }

  std::printf("ran to t=%.3f s (virtual)\n",
              DurationToSeconds(report->end_time));
  for (const SinkReport& sink : report->sinks) {
    std::printf("sink %-12s tuples=%-8llu mean_latency=%10.4f ms  "
                "p99=%10.4f ms\n",
                sink.name.c_str(),
                static_cast<unsigned long long>(sink.tuples),
                sink.mean_latency_ms, sink.p99_latency_ms);
  }
  std::printf("peak buffered tuples: %lld; on-demand ETS: %llu\n",
              static_cast<long long>(report->peak_queue_total),
              static_cast<unsigned long long>(report->ets_generated));
  std::printf("executor: %s\n", report->exec.ToString().c_str());
  if (report->shards_used > 0) {
    std::printf("shards: %llu (hops=%llu, epochs=%llu)\n",
                static_cast<unsigned long long>(report->shards_used),
                static_cast<unsigned long long>(report->shard_hops),
                static_cast<unsigned long long>(report->shard_epochs));
  }
  if (experiment->storage.enabled) {
    const StorageStats& storage = report->storage;
    std::printf("state store: hot=%llu B, spilled=%llu B "
                "(spills=%llu loads=%llu evictions=%llu purged=%llu)\n",
                static_cast<unsigned long long>(storage.hot_bytes),
                static_cast<unsigned long long>(storage.spilled_bytes),
                static_cast<unsigned long long>(storage.spills),
                static_cast<unsigned long long>(storage.loads),
                static_cast<unsigned long long>(storage.evictions),
                static_cast<unsigned long long>(storage.purged_blocks));
  }
  std::printf("\n");
  std::printf("%s", report->operator_stats.c_str());
  if (report->fault_events > 0 || !report->robustness.empty()) {
    std::printf("\nfault events: %llu; lease-expired ETS: %llu; shed: %llu; "
                "max arc high-water: %llu\n",
                static_cast<unsigned long long>(report->fault_events),
                static_cast<unsigned long long>(report->exec.lease_expired_ets),
                static_cast<unsigned long long>(report->shed_tuples),
                static_cast<unsigned long long>(report->max_buffer_hwm));
    std::printf("%s", report->robustness.c_str());
  }
  if (!experiment->trace.path.empty()) {
    std::printf("\nwrote execution trace to %s\n",
                experiment->trace.path.c_str());
  }
  if (!metrics_path.empty()) {
    MetricsRegistry registry;
    report->PublishTo(&registry);
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   metrics_path.c_str());
      return 1;
    }
    registry.PrintJson(out);
    std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
  }
  return 0;
}
