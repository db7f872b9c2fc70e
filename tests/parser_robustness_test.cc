// Robustness: the text-facing parsers (plan language, experiment spec,
// arrival traces, duration syntax) must reject arbitrary junk and mutated
// inputs with a Status — never a crash or a CHECK failure.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/plan_parser.h"
#include "sim/experiment_spec.h"
#include "sim/trace_loader.h"

namespace dsms {
namespace {

constexpr char kValidExperiment[] = R"(
stream FAST ts=internal schema=v:int64
stream SLOW ts=external skew=50ms schema=v:int64
filter F1 in=FAST selectivity=0.95 seed=7
filter F2 in=SLOW field=0 op=ge value=1
union U in=F1,F2
gaggregate G in=U fn=count key=0 window=1s
sink OUT in=G
feed FAST process=poisson rate=50 seed=1
feed SLOW process=constant rate=0.5
heartbeat SLOW period=100ms
run horizon=10s warmup=1s ets=on-demand executor=dfs
)";

/// Applies a random single-character mutation (replace, delete, insert,
/// truncate) to `text`.
std::string Mutate(const std::string& text, Pcg32* rng) {
  if (text.empty()) return text;
  std::string mutated = text;
  size_t pos = static_cast<size_t>(
      rng->NextInt(0, static_cast<int64_t>(text.size()) - 1));
  static const char kChars[] = "=,: \nabz019#-";
  char c = kChars[rng->NextBelow(sizeof(kChars) - 1)];
  switch (rng->NextInt(0, 3)) {
    case 0:
      mutated[pos] = c;
      break;
    case 1:
      mutated.erase(pos, 1);
      break;
    case 2:
      mutated.insert(pos, 1, c);
      break;
    default:
      mutated.resize(pos);
      break;
  }
  return mutated;
}

class ParserRobustness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRobustness, MutatedExperimentsNeverCrash) {
  Pcg32 rng(GetParam());
  std::string text = kValidExperiment;
  for (int round = 0; round < 200; ++round) {
    std::string mutated = Mutate(text, &rng);
    // Either a valid parse or a clean error; both are fine. What is not
    // fine is an abort, which would fail the test process.
    auto experiment = ParseExperiment(mutated);
    if (experiment.ok()) {
      // Occasionally still runnable; keep it very short.
      experiment->run.horizon = 100 * kMillisecond;
      experiment->run.warmup = 0;
      auto report = RunExperiment(&*experiment);
      (void)report;
    }
    // Chain mutations 25% of the time to drift further from valid input.
    if (rng.NextBernoulli(0.25)) text = mutated;
    if (text.size() < 20) text = kValidExperiment;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustness,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ParserRobustnessTest, RandomGarbageRejected) {
  Pcg32 rng(99);
  for (int i = 0; i < 200; ++i) {
    std::string garbage;
    int length = static_cast<int>(rng.NextInt(0, 300));
    for (int j = 0; j < length; ++j) {
      garbage.push_back(static_cast<char>(rng.NextInt(9, 126)));
    }
    (void)ParsePlan(garbage);
    (void)ParseExperiment(garbage);
    (void)ParseArrivalTrace(garbage);
    Duration d = 0;
    (void)ParseDuration(garbage, &d);
  }
}

TEST(ParserRobustnessTest, ValidBaselineStillParses) {
  auto experiment = ParseExperiment(kValidExperiment);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
}

// A key an experiment statement does not know is a parse error naming the
// key and its line — never a silent default. A retired key is the sharp
// case: `run watchdog=` once armed source liveness, and ignoring it now
// would run with leases off.
TEST(ParserRobustnessTest, UnknownStatementKeysAreParseErrors) {
  const std::string plan =
      "stream A ts=internal\nstream B ts=internal\nunion U in=A,B\n"
      "sink OUT in=U\nfeed A process=poisson rate=5\n";
  const struct {
    const char* line;
    const char* key;
  } kCases[] = {
      {"run watchdog=1s", "watchdog"},
      {"run horizon=2s bogus=3", "bogus"},
      {"feed B process=constant rate=1 bogus=2", "bogus"},
      {"heartbeat B period=1s bogus=1", "bogus"},
      {"state mem_budget=4k spill_dir=/tmp/x bogus=1", "bogus"},
      {"wal dir=/tmp/x segmentbytes=9", "segmentbytes"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.line);
    auto experiment = ParseExperiment(plan + c.line + "\n");
    ASSERT_FALSE(experiment.ok());
    const std::string& message = experiment.status().message();
    EXPECT_NE(message.find("line 6"), std::string::npos) << message;
    EXPECT_NE(message.find(std::string("'") + c.key + "'"),
              std::string::npos)
        << message;
  }
}

// Operator statements check their keys the same way: a misspelt or
// invented key names itself and its line instead of running with a default.
TEST(ParserRobustnessTest, UnknownOperatorKeysAreParseErrors) {
  const std::string head = "stream A ts=internal\nstream B ts=internal\n";
  const struct {
    const char* line;
    const char* key;
  } kCases[] = {
      {"filter F in=A selectivity=0.5 bogus=1", "bogus"},
      {"filter F in=A field=0 op=lt value=3 selectivty=0.5", "selectivty"},
      {"stream C ts=internal skew_ms=5", "skew_ms"},
      {"join J in=A,B window=1s left_key=0", "left_key"},
      {"union U in=A,B ordered=1", "ordered"},
      {"sink OUT in=A rate=1", "rate"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.line);
    auto plan = ParsePlan(head + c.line + "\n");
    ASSERT_FALSE(plan.ok());
    const std::string& message = plan.status().message();
    EXPECT_NE(message.find("line 3"), std::string::npos) << message;
    EXPECT_NE(message.find(std::string("'") + c.key + "'"),
              std::string::npos)
        << message;
    // The same line inside an experiment is refused the same way.
    EXPECT_FALSE(ParseExperiment(head + c.line + "\n", false).ok());
  }
}

// Every shipped example plan still parses under the key checks.
TEST(ParserRobustnessTest, ExamplePlansParse) {
  int parsed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(DSMS_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".plan") continue;
    SCOPED_TRACE(entry.path().string());
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    auto experiment = ParseExperiment(text.str(), /*require_feeds=*/false);
    EXPECT_TRUE(experiment.ok()) << experiment.status();
    ++parsed;
  }
  EXPECT_GT(parsed, 0);
}

// Bad stream options must be parse-time Status errors, not DSMS_CHECK
// aborts in the operator they eventually configure — a config file is
// user input, and user input never gets to crash the process.
TEST(ParserRobustnessTest, ZeroGranularityIsAParseError) {
  auto plan = ParsePlan("stream S ts=internal granularity=0\nsink X in=S\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("granularity"), std::string::npos);
}

TEST(ParserRobustnessTest, NegativeGranularityIsAParseError) {
  auto plan =
      ParsePlan("stream S ts=internal granularity=-5ms\nsink X in=S\n");
  ASSERT_FALSE(plan.ok());
}

TEST(ParserRobustnessTest, GranularityOnExternalStreamIsAParseError) {
  auto plan = ParsePlan(
      "stream S ts=external skew=10ms granularity=2ms\nsink X in=S\n");
  ASSERT_FALSE(plan.ok());
}

TEST(ParserRobustnessTest, NegativeSkewIsAParseError) {
  auto plan = ParsePlan("stream S ts=external skew=-10ms\nsink X in=S\n");
  ASSERT_FALSE(plan.ok());
}

TEST(ParserRobustnessTest, ValidGranularityStillParses) {
  auto plan = ParsePlan("stream S ts=internal granularity=2ms\nsink X in=S\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
}

}  // namespace
}  // namespace dsms
