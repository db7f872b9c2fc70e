// Ablation: n-ary union fan-in. With k sparse inputs, a blocked tuple may
// need up to k ETS round trips (one per lagging input) before it clears the
// relaxed `more` condition. Measures how latency and ETS overhead grow with
// fan-in under on-demand ETS, versus per-stream periodic heartbeats whose
// total punctuation load grows linearly with k.

#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/strings.h"
#include "metrics/table_printer.h"
#include "sim/scenario.h"

namespace dsms {
namespace {

int Run(const bench::BenchOptions& options) {
  bench::PrintHeader(
      "abl_fanin: union fan-in sweep (1 fast + k sparse streams)",
      "Section 3.2 n-ary unions (no figure in the paper)",
      "on-demand latency grows mildly (more backtrack/ETS rounds per "
      "blocked tuple); periodic punctuation load grows with k");

  TablePrinter table({"fan_in", "series", "mean_ms", "p99_ms",
                      "ets_generated", "punct_steps", "hops"});

  for (int slow_streams : {1, 2, 4, 8, 16}) {
    for (ScenarioKind kind :
         {ScenarioKind::kPeriodicEts, ScenarioKind::kOnDemandEts}) {
      ScenarioConfig config;
      bench::ApplyWindow(options, &config);
      config.kind = kind;
      config.num_slow_streams = slow_streams;
      if (kind == ScenarioKind::kPeriodicEts) config.heartbeat_rate = 10.0;
      ScenarioResult r = RunScenario(config);
      table.AddRow({StrFormat("%d", 1 + slow_streams),
                    ScenarioKindToString(kind),
                    StrFormat("%.4f", r.mean_latency_ms),
                    StrFormat("%.4f", r.p99_latency_ms),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          r.report.ets_generated)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          r.report.exec.punctuation_steps)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          r.report.exec.backtrack_hops))});
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
