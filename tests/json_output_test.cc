// Strict JSON validity for every JSON emitter in the tree: TablePrinter
// rows, MetricsRegistry snapshots, Chrome trace exports, and the registry
// publishing paths of the stat structs. Each output is round-tripped
// through the validating parser in tests/json_validator.h. Also the
// regression suite for the TablePrinter::PrintJson escaping/number bugs.

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "json_validator.h"
#include "metrics/table_printer.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "sim/experiment_spec.h"
#include "sim/scenario.h"

namespace dsms {
namespace {

using ::dsms::testing::ValidateJson;

std::string Render(const TablePrinter& table) {
  std::ostringstream os;
  table.PrintJson(os);
  return os.str();
}

std::string Render(const MetricsRegistry& registry) {
  std::ostringstream os;
  registry.PrintJson(os);
  return os.str();
}

TEST(JsonValidatorTest, AcceptsValidDocuments) {
  for (const char* doc :
       {"{}", "[]", "null", "true", "-1.5e-3", "\"a\\nb\\u00e9\"",
        "{\"k\": [1, 2, {\"n\": null}], \"m\": \"v\"}", "[0.5, 1e10, -0]"}) {
    std::string error;
    EXPECT_TRUE(ValidateJson(doc, &error)) << doc << ": " << error;
  }
}

TEST(JsonValidatorTest, RejectsInvalidDocuments) {
  for (const char* doc :
       {"", "{", "[1,]", "{\"k\": }", "01", "1.", ".5", "+1", "nan", "inf",
        "\"unterminated", "\"ctrl\nchar\"", "\"bad\\qescape\"", "{} {}",
        "[1] trailing"}) {
    EXPECT_FALSE(ValidateJson(doc)) << "accepted: " << doc;
  }
}

TEST(TablePrinterJsonTest, EscapesControlCharactersInCells) {
  TablePrinter table({"name\twith\ttabs", "value"});
  table.AddRow({"line1\nline2", "quote\" backslash\\ bell\x07"});
  std::string json = Render(table);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
  // Regression: control characters used to pass through raw.
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  EXPECT_EQ(json.find('\x07'), std::string::npos);
}

TEST(TablePrinterJsonTest, RejectsStrtodNumberisms) {
  // Regression: "1.", ".5" and "+1" are accepted by strtod but are not JSON
  // numbers; they must be emitted as strings, not bare tokens.
  TablePrinter table({"a", "b", "c", "d"});
  table.AddRow({"1.", ".5", "+1", "1e"});
  std::string json = Render(table);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"1.\""), std::string::npos);
  EXPECT_NE(json.find("\".5\""), std::string::npos);
  EXPECT_NE(json.find("\"+1\""), std::string::npos);
}

TEST(TablePrinterJsonTest, KeepsRealNumbersBare) {
  TablePrinter table({"a", "b", "c", "d"});
  table.AddRow({"0", "-12", "3.25", "1.5e-3"});
  std::string json = Render(table);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error;
  EXPECT_EQ(json.find("\"0\""), std::string::npos);
  EXPECT_NE(json.find(": -12"), std::string::npos);
  EXPECT_NE(json.find(": 1.5e-3"), std::string::npos);
}

TEST(TablePrinterJsonTest, NonFiniteCellsBecomeNull) {
  TablePrinter table({"nan", "inf", "ninf"});
  table.AddNumericRow({std::nan(""), INFINITY, -INFINITY});
  std::string json = Render(table);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"nan\": null"), std::string::npos);
  EXPECT_NE(json.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(json.find("\"ninf\": null"), std::string::npos);
}

TEST(MetricsRegistryJsonTest, SnapshotIsStrictJson) {
  MetricsRegistry registry;
  registry.SetCounter("exec.data_steps", 12345);
  registry.SetGauge("latency.mean_ms", 0.125);
  registry.SetGauge("weird\nname\"with\\stuff", 1.0);
  registry.GetHistogram("lat")->Record(10);
  registry.RegisterView("view.live", [] { return 2.5; });
  std::string json = Render(registry);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
}

TEST(MetricsRegistryJsonTest, NonFiniteValuesBecomeNull) {
  MetricsRegistry registry;
  registry.SetGauge("bad.nan", std::nan(""));
  registry.SetGauge("bad.inf", INFINITY);
  registry.RegisterView("bad.view", [] { return -INFINITY; });
  std::string json = Render(registry);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"bad.nan\": null"), std::string::npos);
  EXPECT_NE(json.find("\"bad.inf\": null"), std::string::npos);
  EXPECT_NE(json.find("\"bad.view\": null"), std::string::npos);
}

TEST(PublishToJsonTest, ScenarioResultSnapshotIsStrictJson) {
  ScenarioConfig config;
  config.run.horizon = 10 * kSecond;
  config.run.warmup = 0;
  ScenarioResult result = RunScenario(config);
  MetricsRegistry registry;
  result.report.PublishTo(&registry);
  EXPECT_TRUE(registry.Contains("sink.OUT.mean_latency_ms"));
  EXPECT_TRUE(registry.Contains("exec.data_steps"));
  std::string json = Render(registry);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
}

// A spilling join scenario must surface the storage tier's gauges in its
// report's snapshot, and the snapshot must stay strict JSON with them
// present.
TEST(PublishToJsonTest, StorageGaugesRideTheSnapshot) {
  ScenarioConfig config;
  config.shape = QueryShape::kJoin;
  config.run.horizon = 20 * kSecond;
  config.run.warmup = 0;
  config.join_window = 4 * kSecond;
  config.storage.spill_dir =
      ::testing::TempDir() + "/dsms_json_storage_blocks";
  config.storage.mem_budget = 2048;
  ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.report.storage.spills, 0u);
  MetricsRegistry registry;
  result.report.PublishTo(&registry);
  EXPECT_TRUE(registry.Contains("storage.hot_bytes"));
  EXPECT_TRUE(registry.Contains("storage.spills"));
  EXPECT_TRUE(registry.Contains("storage.loads"));
  EXPECT_TRUE(registry.Contains("storage.purged_blocks"));
  EXPECT_TRUE(registry.Contains("storage.index_probes"));
  std::string json = Render(registry);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
}

TEST(PublishToJsonTest, ExperimentReportSnapshotIsStrictJson) {
  ExperimentReport report;
  report.end_time = 120 * kSecond;
  report.sinks.push_back({"OUT", 42, 1.5, 9.0});
  report.exec.data_steps = 7;
  MetricsRegistry registry;
  report.PublishTo(&registry);
  EXPECT_TRUE(registry.Contains("sink.OUT.tuples"));
  EXPECT_TRUE(registry.Contains("exec.data_steps"));
  std::string json = Render(registry);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
}

// The frontier service's counters ride every run's snapshot (streamets_run
// and streamets_serve --metrics publish the same report): a stalled source
// under a lease shows up as lease expiries, not only as fallback ETS.
TEST(PublishToJsonTest, LeaseRunPublishesFrontierCounters) {
  auto experiment = ParseExperiment(R"(
stream FAST ts=internal
stream SLOW ts=internal
union U in=FAST,SLOW
sink OUT in=U
feed FAST process=poisson rate=50 seed=1
feed SLOW process=poisson rate=0.5 seed=2
fault SLOW kind=stall start=10s duration=10s
run horizon=40s ets=none lease=2s
)");
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  auto report = RunExperiment(&*experiment);
  ASSERT_TRUE(report.ok()) << report.status();
  MetricsRegistry registry;
  report->PublishTo(&registry);
  ASSERT_TRUE(registry.Contains("experiment.frontier.lease_expiries"));
  EXPECT_GT(registry.GetCounter("experiment.frontier.lease_expiries")->value(),
            0u);
  EXPECT_TRUE(registry.Contains("experiment.frontier.revivals"));
  EXPECT_TRUE(registry.Contains("experiment.frontier.bound"));
  std::string json = Render(registry);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
}

TEST(ChromeTraceJsonTest, EveryEventKindValidates) {
  VirtualClock clock;
  Tracer tracer(&clock, 64);
  tracer.SetOperatorName(0, "union \"U\"\nline");  // hostile display name
  tracer.SetArcName(0, "F1 -> U");
  tracer.RecordStep(0, 0, 5, StepKind::kData);
  tracer.RecordNosRule(0, NosRule::kBacktrack, 3);
  tracer.RecordEts(1, EtsOrigin::kOnDemand, 100);
  tracer.RecordEts(1, EtsOrigin::kLease, 200);
  tracer.RecordIdleWait(0, true);
  tracer.RecordIdleWait(0, false);
  tracer.RecordHighWater(0, 16);
  tracer.RecordFault(1, 1, 4);
  tracer.RecordPunctuation(0, true, 50);
  tracer.RecordPunctuation(0, false, 60);
  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  std::string error;
  EXPECT_TRUE(ValidateJson(os.str(), &error)) << error << "\n" << os.str();
}

TEST(ChromeTraceJsonTest, EmptyTraceValidates) {
  VirtualClock clock;
  Tracer tracer(&clock, 8);
  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  std::string error;
  EXPECT_TRUE(ValidateJson(os.str(), &error)) << error << "\n" << os.str();
}

TEST(ChromeTraceJsonTest, ScenarioTraceFileValidates) {
  const std::string path = ::testing::TempDir() + "/scenario_trace.json";
  ScenarioConfig config;
  config.run.horizon = 10 * kSecond;
  config.run.warmup = 0;
  config.trace.path = path;
  RunScenario(config);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  std::string error;
  EXPECT_TRUE(ValidateJson(contents.str(), &error)) << error;
  EXPECT_NE(contents.str().find("traceEvents"), std::string::npos);
}

}  // namespace
}  // namespace dsms
