// Ablation for Section 4.1 (simultaneous tuples): TSM registers + relaxed
// `more` versus the basic Figure-1 union, under coarse timestamp
// granularities that make simultaneous tuples common. Both variants run
// with on-demand ETS; the basic union idle-waits (and requires an ETS round
// trip) whenever a buffer empties while simultaneous tuples remain.

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
      "abl_simultaneous: TSM registers vs basic Figure-1 union",
      "design choice of Section 4.1 (no figure in the paper)",
      "the basic union idle-waits whenever a buffer empties (even with ETS "
      "help), and degrades by another order of magnitude as coarse "
      "timestamps make tuples simultaneous; the TSM union stays "
      "sub-millisecond at every granularity");

  TablePrinter table({"granularity", "variant", "mean_ms", "p99_ms",
                      "ets_generated", "punct_steps", "idle_pct"});

  for (Duration granularity :
       {Duration{1}, kMillisecond, 10 * kMillisecond, 100 * kMillisecond,
        kSecond}) {
    for (bool use_tsm : {true, false}) {
      ScenarioConfig config;
      bench::ApplyWindow(options, &config);
      config.kind = ScenarioKind::kOnDemandEts;
      config.timestamp_granularity = granularity;
      config.use_tsm_registers = use_tsm;
      // Two comparable-rate streams maximize simultaneous collisions.
      config.fast_rate = 50.0;
      config.slow_rate = 50.0;
      ScenarioResult r = RunScenario(config);
      table.AddRow({StrFormat("%lldus", static_cast<long long>(granularity)),
                    use_tsm ? "tsm" : "basic",
                    StrFormat("%.4f", r.mean_latency_ms),
                    StrFormat("%.4f", r.p99_latency_ms),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          r.report.ets_generated)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          r.report.exec.punctuation_steps)),
                    StrFormat("%.4f", r.idle_fraction * 100.0)});
    }
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
