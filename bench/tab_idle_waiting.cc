// Reproduces the idle-waiting measurements quoted in Section 6's prose:
// the percentage of total time the union operator spends idle-waiting.
// Paper: A ~ 99%; B at 100 punctuations/s ~ 15%; C < 0.1%.

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
      "tab_idle_waiting: union idle-waiting fraction",
      "Section 6 text (latency-reduction paragraph)",
      "A ~ 99%, B@100/s ~ 15% (falling with rate), C well under 1%, D 0%");

  TablePrinter table({"series", "punct_rate_hz", "idle_pct", "paper_pct",
                      "blocked_intervals"});
  auto add_row = [&table](const std::string& series, double rate,
                          const char* paper, const ScenarioResult& r) {
    table.AddRow({series, StrFormat("%.6g", rate),
                  StrFormat("%.4f", r.idle_fraction * 100.0), paper,
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.blocked_intervals))});
  };

  ScenarioConfig base;
  bench::ApplyWindow(options, &base);

  ScenarioConfig a = base;
  a.kind = ScenarioKind::kNoEts;
  add_row("A:no-ets", 0.0, "~99", RunScenario(a));

  for (double rate : {1.0, 10.0, 100.0, 1000.0}) {
    ScenarioConfig b = base;
    b.kind = ScenarioKind::kPeriodicEts;
    b.heartbeat_rate = rate;
    add_row("B:periodic", rate, rate == 100.0 ? "~15" : "-", RunScenario(b));
  }

  ScenarioConfig c = base;
  c.kind = ScenarioKind::kOnDemandEts;
  c.trace.path = options.trace_path;
  add_row("C:on-demand", 0.0, "<0.1", RunScenario(c));
  if (!options.trace_path.empty()) {
    std::printf("wrote C:on-demand execution trace to %s\n",
                options.trace_path.c_str());
  }

  ScenarioConfig d = base;
  d.kind = ScenarioKind::kLatent;
  add_row("D:latent", 0.0, "0", RunScenario(d));

  if (options.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  bench::MaybeWriteJson(options, table);
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace dsms

int main(int argc, char** argv) {
  return dsms::Run(dsms::bench::ParseArgs(argc, argv));
}
