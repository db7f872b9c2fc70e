#ifndef DSMS_BENCH_BENCH_UTIL_H_
#define DSMS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/flag_help.h"
#include "common/time.h"
#include "metrics/table_printer.h"
#include "sim/scenario.h"

namespace dsms::bench {

/// "release" when compiled with NDEBUG (assertions compiled out), "debug"
/// otherwise. Surfaced in every JSON artifact so a validator can reject
/// debug-build numbers mechanically (see BENCH_core.json's "build_type").
inline const char* BuildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// A debug build measures DSMS_CHECK overhead and unoptimized code, not the
/// data path; its numbers are not comparable to anything. Print an
/// unmissable banner so they are never pasted into a results file by
/// accident. (No-op under NDEBUG.)
inline void WarnIfDebugBuild() {
#ifndef NDEBUG
  std::fprintf(stderr,
               "*****************************************************\n"
               "*** WARNING: benchmark compiled WITHOUT NDEBUG    ***\n"
               "*** (debug build: assertions on, optimizer off).  ***\n"
               "*** Numbers below are NOT representative; rebuild ***\n"
               "*** with -DCMAKE_BUILD_TYPE=Release before saving ***\n"
               "*** results. JSON output carries build_type=debug.***\n"
               "*****************************************************\n");
#endif
}

/// Options common to every figure/table harness (see BenchFlags below, the
/// single source of truth that --help renders):
struct BenchOptions {
  bool csv = false;
  bool quick = false;
  uint64_t seed = 42;
  std::string json_path;   // empty: no JSON output
  std::string trace_path;  // empty: no execution trace
};

/// The flag table every bench harness shares; --help renders it through
/// common/flag_help.h.
inline std::vector<FlagHelp> BenchFlags() {
  return {
      {"--csv", "", "emit CSV instead of an aligned table (for plotting)"},
      {"--quick", "",
       "1/5 horizon (CI-friendly); headline numbers are noisier"},
      {"--seed", "N", "override the workload seed"},
      {"--json", "PATH", "also write the series as JSON records to PATH"},
      {"--trace", "PATH",
       "write a Chrome trace of one representative scenario"},
      {"--help", "", "show this message and exit"},
  };
}

/// Strict: an unrecognized argument (or a missing option value) terminates
/// the process with status 2 instead of being silently ignored, so a typo'd
/// sweep flag cannot produce a full run of wrong numbers. --help prints the
/// shared flag listing and exits 0.
inline BenchOptions ParseArgs(int argc, char** argv) {
  WarnIfDebugBuild();
  BenchOptions options;
  // A value-taking flag with nothing after it is reported by name — not as
  // "unknown argument" — so the error points at the actual mistake.
  auto value_of = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[*i]);
      std::exit(2);
    }
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      options.csv = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed =
          static_cast<uint64_t>(std::strtoull(value_of(&i), nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      options.json_path = value_of(&i);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      options.trace_path = value_of(&i);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintFlagHelp(stdout, argv[0],
                    "figure/table reproduction harness (see EXPERIMENTS.md)",
                    BenchFlags());
      std::exit(0);
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: %s [--csv] [--quick] [--seed N] [--json PATH] "
                   "[--trace PATH]\n",
                   argv[i], argv[0]);
      std::exit(2);
    }
  }
  return options;
}

/// The paper's measurement window: 600 s steady state after 30 s warmup
/// (120 s / 10 s with --quick).
inline void ApplyWindow(const BenchOptions& options, ScenarioConfig* config) {
  config->seed = options.seed;
  if (options.quick) {
    config->run.horizon = 120 * kSecond;
    config->run.warmup = 10 * kSecond;
  } else {
    config->run.horizon = 600 * kSecond;
    config->run.warmup = 30 * kSecond;
  }
}

/// The heartbeat-rate sweep (punctuations/second into the sparse stream)
/// used by the Figure 7/8 reproductions.
inline std::vector<double> HeartbeatRates(bool quick) {
  if (quick) return {0.1, 1.0, 10.0, 100.0};
  return {0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
          100.0, 200.0, 500.0, 1000.0};
}

/// Writes the table as a JSON array of row objects to options.json_path if
/// --json was given; exits non-zero if the path is not writable.
inline void MaybeWriteJson(const BenchOptions& options,
                           const TablePrinter& table) {
  if (options.json_path.empty()) return;
  std::ofstream out(options.json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 options.json_path.c_str());
    std::exit(2);
  }
  table.PrintJson(out);
}

inline void PrintHeader(const char* title, const char* paper_ref,
                        const char* expectation) {
  std::printf("=== %s ===\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("paper-shape expectation: %s\n\n", expectation);
}

}  // namespace dsms::bench

#endif  // DSMS_BENCH_BENCH_UTIL_H_
