// Ablation for the paper's motivating argument (Section 1): periodic
// heartbeats need their rate tuned to the *other* stream's rate, while
// on-demand ETS adapts by construction. We sweep the slow stream's rate and
// compare a fixed-rate heartbeat (B) against on-demand (C): B is wasteful
// when the fast stream is slow and too sparse when it is fast; C tracks the
// demand exactly.

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
      "abl_rate_skew: fixed heartbeat rate vs on-demand across rate skews",
      "Section 1 motivation ('the best results can be expected when the "
      "frequency of tuples in A matches those in B')",
      "B@10/s latency ~50 ms regardless of skew; C latency stays "
      "sub-millisecond and its ETS count tracks the fast rate");

  TablePrinter table({"fast_rate_hz", "slow_rate_hz", "series", "mean_ms",
                      "ets_or_hb_per_s", "punct_steps"});

  const double kHeartbeatRate = 10.0;
  struct RatePair {
    double fast;
    double slow;
  };
  for (RatePair rates : {RatePair{1.0, 0.05}, RatePair{10.0, 0.05},
                         RatePair{50.0, 0.05}, RatePair{200.0, 0.05},
                         RatePair{50.0, 0.005}, RatePair{50.0, 0.5},
                         RatePair{50.0, 5.0}}) {
    for (ScenarioKind kind :
         {ScenarioKind::kPeriodicEts, ScenarioKind::kOnDemandEts}) {
      ScenarioConfig config;
      bench::ApplyWindow(options, &config);
      config.kind = kind;
      config.fast_rate = rates.fast;
      config.slow_rate = rates.slow;
      if (kind == ScenarioKind::kPeriodicEts) {
        config.heartbeat_rate = kHeartbeatRate;
      }
      ScenarioResult r = RunScenario(config);
      double horizon_s = DurationToSeconds(config.run.horizon);
      double per_s =
          kind == ScenarioKind::kPeriodicEts
              ? kHeartbeatRate
              : static_cast<double>(r.report.ets_generated) / horizon_s;
      table.AddRow({StrFormat("%.6g", rates.fast),
                    StrFormat("%.6g", rates.slow),
                    ScenarioKindToString(kind),
                    StrFormat("%.4f", r.mean_latency_ms),
                    StrFormat("%.3f", per_s),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          r.report.exec.punctuation_steps))});
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
