// Ablation for bursty, non-stationary traffic (Section 1: "a goal that is
// very hard to achieve when the traffic is not stationary and if A or B are
// bursty"): the fast stream is a two-state MMPP. Periodic heartbeats must
// be provisioned for the burst rate (wasteful when idle) or the idle rate
// (laggy in bursts); on-demand ETS adapts per tuple.

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
      "abl_bursty: MMPP fast stream (bursts 500/s for ~200 ms, idle 1/s)",
      "Section 1 motivation (bursty/non-stationary traffic)",
      "every fixed heartbeat rate leaves a latency/overhead compromise; "
      "on-demand matches the best fixed rate's latency at a fraction of "
      "the punctuation overhead");

  TablePrinter table({"series", "punct_rate_hz", "mean_ms", "p99_ms",
                      "max_ms", "punct_steps", "peak_total"});
  auto add_row = [&table](const std::string& series, double rate,
                          const ScenarioResult& r) {
    table.AddRow({series, StrFormat("%.6g", rate),
                  StrFormat("%.4f", r.mean_latency_ms),
                  StrFormat("%.4f", r.p99_latency_ms),
                  StrFormat("%.4f", r.max_latency_ms),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.report.exec.punctuation_steps)),
                  StrFormat("%lld", static_cast<long long>(
                                        r.report.peak_queue_total))});
  };

  ScenarioConfig base;
  bench::ApplyWindow(options, &base);
  base.arrivals = ArrivalKind::kBursty;

  ScenarioConfig a = base;
  a.kind = ScenarioKind::kNoEts;
  add_row("A:no-ets", 0.0, RunScenario(a));

  for (double rate : {1.0, 10.0, 100.0, 1000.0}) {
    ScenarioConfig b = base;
    b.kind = ScenarioKind::kPeriodicEts;
    b.heartbeat_rate = rate;
    add_row("B:periodic", rate, RunScenario(b));
  }

  ScenarioConfig c = base;
  c.kind = ScenarioKind::kOnDemandEts;
  add_row("C:on-demand", 0.0, RunScenario(c));

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
