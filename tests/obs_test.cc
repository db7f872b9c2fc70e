// The observability layer: Tracer ring-buffer semantics, MetricsRegistry
// behavior, the stat-struct publishing paths, and end-to-end trace content
// for each executor (every exported trace must contain NOS-rule, idle-wait
// and ETS-generation events). Also proves tracing-off leaves execution
// byte-identical (same buffer-movement hash as an untraced run).

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "sim/scenario.h"

namespace dsms {
namespace {

TEST(TracerTest, RecordsInOrder) {
  VirtualClock clock;
  Tracer tracer(&clock, 16);
  tracer.RecordStep(1, 0, 5, StepKind::kData);
  clock.Advance(10);
  tracer.RecordNosRule(2, NosRule::kForward);
  ASSERT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
  std::vector<TraceEvent> events = tracer.Events();
  EXPECT_EQ(events[0].type, TraceEventType::kStep);
  EXPECT_EQ(events[0].op_id, 1);
  EXPECT_EQ(events[0].dur, 5);
  EXPECT_EQ(events[1].type, TraceEventType::kNosRule);
  EXPECT_EQ(events[1].ts, 10);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDrops) {
  VirtualClock clock;
  Tracer tracer(&clock, 4);
  for (int i = 0; i < 6; ++i) {
    tracer.RecordNosRule(i, NosRule::kEncore);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  // The newest 4 events survive, oldest first.
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[i].op_id, i + 2);
}

TEST(TracerTest, CountTypeFiltersRetainedEvents) {
  VirtualClock clock;
  Tracer tracer(&clock, 8);
  tracer.RecordStep(0, 0, 1, StepKind::kData);
  tracer.RecordStep(0, 1, 1, StepKind::kPunctuation);
  tracer.RecordEts(1, EtsOrigin::kOnDemand, 10);
  EXPECT_EQ(tracer.CountType(TraceEventType::kStep), 2u);
  EXPECT_EQ(tracer.CountType(TraceEventType::kEtsGenerated), 1u);
  EXPECT_EQ(tracer.CountType(TraceEventType::kFaultInjected), 0u);
}

TEST(TracerTest, EventIsCompact) {
  // The recording hook is an inline 32-byte store; growing the event struct
  // is a hot-path regression.
  static_assert(sizeof(TraceEvent) <= 32);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  MetricsRegistry::Counter* c = registry.GetCounter("steps");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(registry.GetCounter("steps"), c);
  EXPECT_EQ(registry.GetCounter("steps")->value(), 5u);
  EXPECT_TRUE(registry.Contains("steps"));
  EXPECT_FALSE(registry.Contains("missing"));
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, KindMismatchIsFatal) {
  MetricsRegistry registry;
  registry.GetCounter("metric");
  EXPECT_DEATH(registry.GetGauge("metric"), "");
}

TEST(MetricsRegistryTest, SamplesAreSortedAndHistogramsFlatten) {
  MetricsRegistry registry;
  registry.SetGauge("z.last", 1.0);
  registry.SetCounter("a.first", 2);
  Histogram* hist = registry.GetHistogram("m.lat");
  hist->Record(10);
  hist->Record(20);
  std::vector<MetricsRegistry::Sample> samples = registry.Samples();
  ASSERT_EQ(samples.size(), 7u);  // gauge + counter + 5 histogram facets
  EXPECT_EQ(samples.front().name, "a.first");
  EXPECT_EQ(samples.back().name, "z.last");
  EXPECT_EQ(samples[1].name, "m.lat.count");
  EXPECT_EQ(samples[1].value, "2");
  EXPECT_EQ(samples[2].name, "m.lat.mean");
  EXPECT_EQ(samples[2].value, "15");
  EXPECT_EQ(samples[5].name, "m.lat.max");
  EXPECT_EQ(samples[5].value, "20");
}

TEST(MetricsRegistryTest, ViewsAreLiveAndReplaceable) {
  MetricsRegistry registry;
  double value = 1.0;
  registry.RegisterView("live", [&value] { return value; });
  EXPECT_EQ(registry.Samples()[0].value, "1");
  value = 2.5;
  EXPECT_EQ(registry.Samples()[0].value, "2.5");
  registry.RegisterView("live", [] { return 9.0; });
  EXPECT_EQ(registry.Samples()[0].value, "9");
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ExecStatsRegistryTest, BindToIsLiveAndPublishToCopies) {
  ExecStats stats;
  stats.data_steps = 3;
  MetricsRegistry live;
  stats.BindTo(&live, "exec");
  MetricsRegistry copied;
  stats.PublishTo(&copied, "exec");
  stats.data_steps = 8;
  auto value_of = [](const MetricsRegistry& registry, const char* name) {
    for (const auto& sample : registry.Samples()) {
      if (sample.name == name) return sample.value;
    }
    return std::string("<missing>");
  };
  EXPECT_EQ(value_of(live, "exec.data_steps"), "8");    // view: tracks
  EXPECT_EQ(value_of(copied, "exec.data_steps"), "3");  // copy: frozen
  EXPECT_TRUE(copied.Contains("exec.backtrack_hops"));
}

class ExecutorTraceTest : public ::testing::TestWithParam<ExecutorKind> {};

// Acceptance gate of the tracing subsystem: a small on-demand-ETS scenario
// must surface NOS-rule, idle-wait and ETS-generation events in the
// exported trace for every executor.
TEST_P(ExecutorTraceTest, TraceContainsCoreEventKinds) {
  const std::string path =
      ::testing::TempDir() + "/exec_trace_" +
      std::to_string(static_cast<int>(GetParam())) + ".json";
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.run.executor = GetParam();
  config.run.horizon = 20 * kSecond;
  config.run.warmup = 0;
  config.trace.path = path;
  RunScenario(config);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string trace = contents.str();
  EXPECT_NE(trace.find("\"nos:"), std::string::npos);
  EXPECT_NE(trace.find("\"ets:on-demand\""), std::string::npos);
  EXPECT_NE(trace.find("\"idle-wait\""), std::string::npos);
  EXPECT_NE(trace.find("\"step:data\""), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllExecutors, ExecutorTraceTest,
                         ::testing::Values(ExecutorKind::kDfs,
                                           ExecutorKind::kRoundRobin,
                                           ExecutorKind::kGreedyMemory));

TEST(TraceOffEquivalenceTest, TracingDoesNotPerturbExecution) {
  // With record_trace on, the FNV-1a hash digests every buffer movement.
  // Attaching the execution tracer must not change it: recording is a pure
  // observer (no clock mutation, no scheduling influence).
  ScenarioConfig config;
  config.kind = ScenarioKind::kOnDemandEts;
  config.run.horizon = 30 * kSecond;
  config.run.warmup = 0;
  config.record_trace = true;
  ScenarioResult untraced = RunScenario(config);
  config.trace.path = ::testing::TempDir() + "/equivalence_trace.json";
  ScenarioResult traced = RunScenario(config);
  EXPECT_EQ(untraced.trace_hash, traced.trace_hash);
  EXPECT_EQ(untraced.trace_events, traced.trace_events);
  EXPECT_EQ(untraced.tuples_delivered, traced.tuples_delivered);
  EXPECT_EQ(untraced.report.exec, traced.report.exec);
}

}  // namespace
}  // namespace dsms
