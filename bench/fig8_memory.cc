// Reproduces Figure 8 (a)+(b): peak total queue size (number of tuples
// buffered across all arcs) of the union query under strategies A/B/C, with
// B swept over the heartbeat rate. The paper's line B is U-shaped: moderate
// heartbeat rates shrink the idle-waiting backlog, but very high rates make
// punctuation itself occupy buffers during data bursts.

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
      "fig8_memory: peak total queue size (union query)",
      "Figure 8(a)(b) series A/B/C (and D for reference)",
      "A peaks in the thousands of tuples; C is 2+ orders of magnitude "
      "lower; B improves with rate, then worsens at very high rates");

  TablePrinter table({"series", "punct_rate_hz", "peak_total", "peak_data",
                      "punct_steps"});
  auto add_row = [&table](const std::string& series, double rate,
                          const ScenarioResult& r) {
    table.AddRow({series, StrFormat("%.6g", rate),
                  StrFormat("%lld", static_cast<long long>(
                                        r.report.peak_queue_total)),
                  StrFormat("%lld", static_cast<long long>(r.peak_queue_data)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.report.exec.punctuation_steps))});
  };

  ScenarioConfig base;
  bench::ApplyWindow(options, &base);
  // Memory pressure at high punctuation rates shows when punctuation
  // competes with data bursts for CPU; use the bursty fast stream for the
  // high-rate tail, as the paper's discussion implies ("punctuation tuples
  // produced at high rates tend to occupy memory, when bursts of data
  // tuples are being processed").
  base.arrivals = ArrivalKind::kBursty;

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
  c.trace.path = options.trace_path;
  ScenarioResult rc = RunScenario(c);
  add_row("C:on-demand", 0.0, rc);
  if (!options.trace_path.empty()) {
    std::printf("wrote C:on-demand execution trace to %s\n",
                options.trace_path.c_str());
  }

  ScenarioConfig d = base;
  d.kind = ScenarioKind::kLatent;
  add_row("D:latent", 0.0, RunScenario(d));

  if (options.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  bench::MaybeWriteJson(options, table);

  std::printf("\nA / C peak-queue ratio: %.0fx (paper: >2 orders of "
              "magnitude)\n\n",
              static_cast<double>(ra.report.peak_queue_total) /
                  static_cast<double>(rc.report.peak_queue_total));
  return 0;
}

}  // namespace
}  // namespace dsms

int main(int argc, char** argv) {
  return dsms::Run(dsms::bench::ParseArgs(argc, argv));
}
