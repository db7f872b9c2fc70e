// Ablation for Section 5's external-timestamp ETS rule (t + τ − δ): how the
// declared skew bound δ degrades on-demand ETS. A larger δ forces weaker
// bounds, so blocked tuples wait ~δ before an ETS can release them; latency
// under C grows roughly linearly with δ.

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
      "abl_external_delta: ETS quality vs external skew bound",
      "Section 5, on-demand ETS for externally timestamped tuples",
      "C latency grows with the skew bound (roughly ~delta), staying far "
      "below A at every delta");

  TablePrinter table({"skew_bound_ms", "series", "mean_ms", "p99_ms",
                      "ets_generated"});

  for (Duration delta : {kMillisecond, 10 * kMillisecond, 50 * kMillisecond,
                         100 * kMillisecond, 500 * kMillisecond, kSecond}) {
    for (ScenarioKind kind :
         {ScenarioKind::kNoEts, ScenarioKind::kOnDemandEts}) {
      ScenarioConfig config;
      bench::ApplyWindow(options, &config);
      config.kind = kind;
      config.ts_kind = TimestampKind::kExternal;
      config.skew_bound = delta;
      ScenarioResult r = RunScenario(config);
      table.AddRow({StrFormat("%.3f", DurationToMillis(delta)),
                    ScenarioKindToString(kind),
                    StrFormat("%.4f", r.mean_latency_ms),
                    StrFormat("%.4f", r.p99_latency_ms),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          r.report.ets_generated))});
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
