// Ablation: execution strategy x timestamp management. The paper's
// execution model is depth-first (Section 3.1, "to expedite tuple progress
// toward output"); round-robin and a Chain-style memory-greedy scheduler
// (Babcock et al., the scheduling line of work the paper's conclusion
// cites) are the alternatives. On-demand ETS is integrated with
// backtracking, so this bench checks it composes with non-DFS schedulers
// too, and quantifies the latency/memory trade: scheduling choices move
// buffer occupancy around, but none of them can remove idle-waiting — only
// timestamp management does, which is the paper's point.

#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/strings.h"
#include "common/time.h"
#include "metrics/table_printer.h"
#include "sim/scenario.h"

namespace dsms {
namespace {

int Run(const bench::BenchOptions& options) {
  bench::PrintHeader(
      "abl_scheduler: DFS vs round-robin execution",
      "Section 3.1 (DFS strategy); scheduling comparison is an extension",
      "on-demand ETS composes with all three executors (identical ETS "
      "counts); idle-waiting is untouched by scheduling choice; DFS matches "
      "or beats the alternatives on this shallow pipeline — its "
      "push-to-sink order is already memory-sound, supporting the paper's "
      "choice");

  auto executor_name = [](ExecutorKind kind) {
    switch (kind) {
      case ExecutorKind::kDfs:
        return "dfs";
      case ExecutorKind::kRoundRobin:
        return "round-robin";
      case ExecutorKind::kGreedyMemory:
        return "greedy-memory";
    }
    return "?";
  };

  TablePrinter table({"executor", "series", "mean_ms", "p99_ms",
                      "ets_generated", "idle_pct"});
  for (ExecutorKind executor :
       {ExecutorKind::kDfs, ExecutorKind::kRoundRobin,
        ExecutorKind::kGreedyMemory}) {
    for (ScenarioKind kind : {ScenarioKind::kNoEts, ScenarioKind::kPeriodicEts,
                              ScenarioKind::kOnDemandEts,
                              ScenarioKind::kLatent}) {
      ScenarioConfig config;
      bench::ApplyWindow(options, &config);
      config.run.executor = executor;
      config.kind = kind;
      if (kind == ScenarioKind::kPeriodicEts) config.heartbeat_rate = 10.0;
      ScenarioResult r = RunScenario(config);
      table.AddRow({executor_name(executor), ScenarioKindToString(kind),
                    StrFormat("%.4f", r.mean_latency_ms),
                    StrFormat("%.4f", r.p99_latency_ms),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          r.report.ets_generated)),
                    StrFormat("%.4f", r.idle_fraction * 100.0)});
    }
  }

  if (options.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }

  std::printf("\nUnder bursty load (buffer pressure), scenario C:\n");
  TablePrinter pressure({"executor", "mean_ms", "p99_ms", "peak_queue"});
  for (ExecutorKind executor :
       {ExecutorKind::kDfs, ExecutorKind::kRoundRobin,
        ExecutorKind::kGreedyMemory}) {
    ScenarioConfig config;
    bench::ApplyWindow(options, &config);
    config.run.executor = executor;
    config.kind = ScenarioKind::kOnDemandEts;
    config.arrivals = ArrivalKind::kBursty;
    // Bursts outrun the virtual CPU (~13k tuples/s through 3 data steps of
    // 25 us each), so buffers genuinely back up during each burst.
    config.burst_rate = 30000.0;
    config.mean_burst_length = 100 * kMillisecond;
    ScenarioResult r = RunScenario(config);
    pressure.AddRow({executor_name(executor),
                     StrFormat("%.4f", r.mean_latency_ms),
                     StrFormat("%.4f", r.p99_latency_ms),
                     StrFormat("%lld", static_cast<long long>(
                                           r.report.peak_queue_total))});
  }
  if (options.csv) {
    pressure.PrintCsv(std::cout);
  } else {
    pressure.Print(std::cout);
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace dsms

int main(int argc, char** argv) {
  return dsms::Run(dsms::bench::ParseArgs(argc, argv));
}
