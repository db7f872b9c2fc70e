// Ablation: throttled on-demand ETS. EtsPolicy::min_interval caps how often
// one source may generate ETS; 0 is the paper's behaviour (one ETS whenever
// a backtrack demands one), larger values trade reactivation latency for
// fewer punctuation tuples — interpolating between pure on-demand and the
// economy of low-rate periodic heartbeats, while never paying B's
// worst-case: a throttled ETS still fires at the moment of demand once its
// budget allows, not on a fixed grid.

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
      "abl_ets_throttle: min-interval between ETS from one source",
      "extension of Section 5's generation policy (no figure in the paper)",
      "latency grows ~min_interval/2 once the throttle binds (interval > "
      "fast inter-arrival of 20 ms); punctuation overhead falls "
      "proportionally; at interval=0 this is the paper's scenario C");

  TablePrinter table({"min_interval_ms", "mean_ms", "p99_ms",
                      "ets_generated", "punct_steps", "peak_total"});

  for (Duration interval :
       {Duration{0}, kMillisecond, 10 * kMillisecond, 50 * kMillisecond,
        200 * kMillisecond, kSecond, 5 * kSecond}) {
    ScenarioConfig config;
    bench::ApplyWindow(options, &config);
    config.kind = ScenarioKind::kOnDemandEts;
    config.run.ets_min_interval = interval;
    ScenarioResult r = RunScenario(config);
    table.AddRow({StrFormat("%.3f", DurationToMillis(interval)),
                  StrFormat("%.4f", r.mean_latency_ms),
                  StrFormat("%.4f", r.p99_latency_ms),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.report.ets_generated)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.report.exec.punctuation_steps)),
                  StrFormat("%lld", static_cast<long long>(
                                        r.report.peak_queue_total))});
  }

  if (options.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace dsms

int main(int argc, char** argv) {
  return dsms::Run(dsms::bench::ParseArgs(argc, argv));
}
