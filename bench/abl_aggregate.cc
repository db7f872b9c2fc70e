// Extension ablation: punctuation-driven window closing for a tumbling
// count aggregate over a sparse stream (an operator class beyond the
// paper's IWP scope). The latency measured here is the *emission delay*
// past each window's end. On-demand ETS needs scheduler activations to
// fire, which the side component provides; periodic heartbeats bound the
// delay by their period; without punctuation a window waits for the next
// data tuple (~20 s at 0.05 tuples/s).

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
      "abl_aggregate: window-close delay of a tumbling count(1s) aggregate",
      "extension beyond the paper (Section 7 outlook: punctuation 'has "
      "proven useful in many different roles')",
      "A waits for the next data tuple (seconds); B is bounded by the "
      "heartbeat period; C closes within one scheduler activation of the "
      "window end");

  TablePrinter table({"series", "punct_rate_hz", "mean_delay_ms",
                      "p99_delay_ms", "windows_out", "ets_generated"});
  auto add_row = [&table](const std::string& series, double rate,
                          const ScenarioResult& r) {
    table.AddRow({series, StrFormat("%.6g", rate),
                  StrFormat("%.4f", r.mean_latency_ms),
                  StrFormat("%.4f", r.p99_latency_ms),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.tuples_delivered)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.report.ets_generated))});
  };

  ScenarioConfig base;
  bench::ApplyWindow(options, &base);
  base.shape = QueryShape::kAggregate;

  ScenarioConfig a = base;
  a.kind = ScenarioKind::kNoEts;
  add_row("A:no-ets", 0.0, RunScenario(a));

  for (double rate : {0.1, 1.0, 10.0, 100.0}) {
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
