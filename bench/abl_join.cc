// Ablation: the idle-waiting problem and its ETS remedies on the *window
// join* (Figure 6 semantics) instead of the union. Metrics: latency of
// emitted matches, idle-waiting of the join, and peak queue size. The paper
// treats joins and unions uniformly as IWP operators; this bench confirms
// the same A >> B > C ordering carries over.

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
      "abl_join: window join as the IWP operator",
      "Section 2/4 (join execution rules); no dedicated figure",
      "same ordering as Figures 7/8: A >> B > C, C ~ D");

  TablePrinter table({"series", "punct_rate_hz", "mean_ms", "p99_ms",
                      "peak_total", "idle_pct", "matches"});
  auto add_row = [&table](const std::string& series, double rate,
                          const ScenarioResult& r) {
    table.AddRow({series, StrFormat("%.6g", rate),
                  StrFormat("%.4f", r.mean_latency_ms),
                  StrFormat("%.4f", r.p99_latency_ms),
                  StrFormat("%lld", static_cast<long long>(
                                        r.report.peak_queue_total)),
                  StrFormat("%.4f", r.idle_fraction * 100.0),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.tuples_delivered))});
  };

  ScenarioConfig base;
  bench::ApplyWindow(options, &base);
  base.shape = QueryShape::kJoin;
  base.join_window = 30 * kSecond;  // wide enough that slow tuples match

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

  ScenarioConfig d = base;
  d.kind = ScenarioKind::kLatent;
  add_row("D:latent", 0.0, RunScenario(d));

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
