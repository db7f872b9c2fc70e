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
  config.horizon = 10 * kSecond;
  config.warmup = 0;
  ScenarioResult result = RunScenario(config);
  MetricsRegistry registry;
  result.PublishTo(&registry, "scenario");
  EXPECT_TRUE(registry.Contains("scenario.latency.mean_ms"));
  EXPECT_TRUE(registry.Contains("scenario.exec.data_steps"));
  std::string json = Render(registry);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
}

// A spilling join scenario must surface the storage tier's gauges under
// the same snapshot prefix, and the snapshot must stay strict JSON with
// them present.
TEST(PublishToJsonTest, StorageGaugesRideTheSnapshot) {
  ScenarioConfig config;
  config.shape = QueryShape::kJoin;
  config.horizon = 20 * kSecond;
  config.warmup = 0;
  config.join_window = 4 * kSecond;
  config.state_spill_dir =
      ::testing::TempDir() + "/dsms_json_storage_blocks";
  config.state_mem_budget = 2048;
  ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.storage.spills, 0u);
  MetricsRegistry registry;
  result.PublishTo(&registry, "scenario");
  EXPECT_TRUE(registry.Contains("scenario.storage.hot_bytes"));
  EXPECT_TRUE(registry.Contains("scenario.storage.spills"));
  EXPECT_TRUE(registry.Contains("scenario.storage.loads"));
  EXPECT_TRUE(registry.Contains("scenario.storage.purged_blocks"));
  EXPECT_TRUE(registry.Contains("scenario.storage.index_probes"));
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
  config.horizon = 10 * kSecond;
  config.warmup = 0;
  config.trace_path = path;
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
