// The end-to-end timestamp-order property, over the timestamped strategies
// only: latent tuples carry no timestamps to order. It shares
// EndToEndPropertyTest and its Sweep naming with properties_test but lives
// in its own binary, because a gtest fixture has one parameter set per
// binary.

#include <cstdint>

#include <gtest/gtest.h>

#include "property_scenario.h"
#include "test_seed.h"

namespace dsms {
namespace test {
namespace {

TEST_P(EndToEndPropertyTest, OutputTimestampsNondecreasing) {
  auto [strategy, executor_kind, seed] = GetParam();
  DSMS_TRACE_SEED(seed);
  RunOutcome outcome = RunPropertyScenario(strategy, executor_kind, seed);
  Timestamp previous = kMinTimestamp;
  for (const Tuple& t : outcome.delivered) {
    ASSERT_TRUE(t.has_timestamp());
    EXPECT_GE(t.timestamp(), previous);
    previous = t.timestamp();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EndToEndPropertyTest,
    ::testing::Combine(::testing::Values(0, 1),  // heartbeat / on-demand
                       ::testing::Values(0, 1),  // DFS / round-robin
                       ::testing::ValuesIn(TestSeedsOr({1, 2, 3, 4}))),
    SweepName);

}  // namespace
}  // namespace test
}  // namespace dsms
