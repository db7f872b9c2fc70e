#ifndef DSMS_TESTS_PROPERTY_SCENARIO_H_
#define DSMS_TESTS_PROPERTY_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/clock.h"
#include "common/time.h"
#include "core/tuple.h"
#include "exec/dfs_executor.h"
#include "exec/round_robin_executor.h"
#include "graph/graph_builder.h"
#include "sim/arrival_process.h"
#include "sim/simulation.h"

namespace dsms {
namespace test {

/// End-to-end property sweep: the paper's union query without random
/// filters (so tuple conservation is exact), parameterized over strategy
/// (heartbeats / on-demand ETS / latent), executor (DFS / round-robin) and
/// seed.
class EndToEndPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<int /*strategy*/, int /*executor*/, uint64_t /*seed*/>> {
};

struct RunOutcome {
  std::vector<Tuple> delivered;
  uint64_t ingested = 0;
  uint64_t punct_delivered = 0;
};

inline RunOutcome RunPropertyScenario(int strategy, int executor_kind,
                                      uint64_t seed) {
  // strategy: 0 = no ETS + heartbeats, 1 = on-demand, 2 = latent.
  TimestampKind kind =
      strategy == 2 ? TimestampKind::kLatent : TimestampKind::kInternal;
  GraphBuilder builder;
  Source* s1 = builder.AddSource("S1", kind);
  Source* s2 = builder.AddSource("S2", kind);
  Union* u = builder.AddUnion("U", kind != TimestampKind::kLatent);
  Sink* sink = builder.AddSink("OUT");
  builder.Connect(s1, u);
  builder.Connect(s2, u);
  builder.Connect(u, sink);
  auto built = builder.Build();
  DSMS_CHECK_OK(built.status());
  std::unique_ptr<QueryGraph> graph = std::move(built).value();
  sink->set_collect(true);

  ExecConfig config;
  config.ets.mode = strategy == 1 ? EtsMode::kOnDemand : EtsMode::kNone;
  VirtualClock clock;
  std::unique_ptr<Executor> executor;
  if (executor_kind == 0) {
    executor = std::make_unique<DfsExecutor>(graph.get(), &clock, config);
  } else {
    executor = std::make_unique<RoundRobinExecutor>(graph.get(), &clock,
                                                    config, /*quantum=*/3);
  }
  Simulation sim(graph.get(), executor.get(), &clock);
  sim.AddFeed(s1, std::make_unique<PoissonProcess>(40.0, seed * 11 + 1));
  sim.AddFeed(s2, std::make_unique<PoissonProcess>(2.0, seed * 11 + 2));
  if (strategy == 0) {
    sim.AddHeartbeat(s1, 50 * kMillisecond);
    sim.AddHeartbeat(s2, 50 * kMillisecond, /*phase=*/7);
  }
  sim.Run(20 * kSecond);
  // Flush: one final generous punctuation on both streams releases any
  // stragglers, so conservation is exact.
  s1->InjectPunctuation(clock.now() + kSecond);
  s2->InjectPunctuation(clock.now() + kSecond);
  executor->RunUntilIdle();

  RunOutcome outcome;
  outcome.delivered = sink->collected();
  outcome.ingested = s1->tuples_ingested() + s2->tuples_ingested();
  outcome.punct_delivered = sink->punctuation_eliminated();
  return outcome;
}

inline std::string SweepName(
    const ::testing::TestParamInfo<std::tuple<int, int, uint64_t>>& info) {
  static const char* kStrategies[] = {"Heartbeat", "OnDemand", "Latent"};
  static const char* kExecutors[] = {"Dfs", "RoundRobin"};
  return std::string(kStrategies[std::get<0>(info.param)]) +
         kExecutors[std::get<1>(info.param)] + "Seed" +
         std::to_string(std::get<2>(info.param));
}

}  // namespace test
}  // namespace dsms

#endif  // DSMS_TESTS_PROPERTY_SCENARIO_H_
