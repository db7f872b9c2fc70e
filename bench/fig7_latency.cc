// Reproduces Figure 7 (a)+(b): average output latency of the union query
// (two Poisson streams, 50 and 0.05 tuples/s, 95%-selectivity selections)
// under the four timestamp-management strategies. Line B is swept over the
// heartbeat injection rate into the sparse stream.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "metrics/table_printer.h"
#include "sim/scenario.h"

namespace dsms {
namespace {

int Run(const bench::BenchOptions& options) {
  bench::PrintHeader(
      "fig7_latency: average output latency (union query)",
      "Figure 7(a) log-scale series A/B/C/D and Figure 7(b) zoom on C vs D",
      "A is seconds-to-tens-of-seconds; B falls as the heartbeat rate rises "
      "but never reaches C; C is within ~0.1 ms of D");

  TablePrinter table({"series", "punct_rate_hz", "mean_ms", "p50_ms",
                      "p99_ms", "max_ms", "tuples_out"});

  auto add_row = [&table](const std::string& series, double rate,
                          const ScenarioResult& r) {
    table.AddRow({series, StrFormat("%.6g", rate),
                  StrFormat("%.4f", r.mean_latency_ms),
                  StrFormat("%.4f", r.p50_latency_ms),
                  StrFormat("%.4f", r.p99_latency_ms),
                  StrFormat("%.4f", r.max_latency_ms),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(
                                r.tuples_delivered))});
  };

  ScenarioConfig base;
  bench::ApplyWindow(options, &base);

  ScenarioConfig a = base;
  a.kind = ScenarioKind::kNoEts;
  ScenarioResult ra = RunScenario(a);
  add_row("A:no-ets", 0.0, ra);

  for (double rate : bench::HeartbeatRates(options.quick)) {
    ScenarioConfig b = base;
    b.kind = ScenarioKind::kPeriodicEts;
    b.heartbeat_rate = rate;
    add_row("B:periodic", rate, RunScenario(b));
  }

  ScenarioConfig c = base;
  c.kind = ScenarioKind::kOnDemandEts;
  // --trace captures the on-demand scenario: it exercises every event kind
  // (NOS rules, idle waits, ETS generation) in one representative run.
  c.trace.path = options.trace_path;
  ScenarioResult rc = RunScenario(c);
  add_row("C:on-demand", 0.0, rc);
  if (!options.trace_path.empty()) {
    std::printf("wrote C:on-demand execution trace to %s\n",
                options.trace_path.c_str());
  }

  ScenarioConfig d = base;
  d.kind = ScenarioKind::kLatent;
  ScenarioResult rd = RunScenario(d);
  add_row("D:latent", 0.0, rd);

  if (options.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  bench::MaybeWriteJson(options, table);

  std::printf(
      "\nFigure 7(b) zoom: C mean %.4f ms, D mean %.4f ms, C-D = %.4f ms "
      "(paper: ~0.1 ms)\n",
      rc.mean_latency_ms, rd.mean_latency_ms,
      rc.mean_latency_ms - rd.mean_latency_ms);
  std::printf("A / C latency ratio: %.0fx (paper: several orders of "
              "magnitude)\n\n",
              ra.mean_latency_ms / rc.mean_latency_ms);
  return 0;
}

}  // namespace
}  // namespace dsms

int main(int argc, char** argv) {
  return dsms::Run(dsms::bench::ParseArgs(argc, argv));
}
