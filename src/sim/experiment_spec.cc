#include "sim/experiment_spec.h"

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/value.h"
#include "exec/dfs_executor.h"
#include "exec/greedy_memory_executor.h"
#include "exec/round_robin_executor.h"
#include "exec/sharded_executor.h"
#include "metrics/stats_report.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "recovery/recovery_manager.h"
#include "sim/arrival_process.h"
#include "sim/simulation.h"
#include "sim/trace_loader.h"

namespace dsms {
namespace {

/// A tokenized experiment statement: `type key=value ...` with an optional
/// leading name token (feed/heartbeat/fault have one; the rest do not).
struct ExpStatement {
  int line = 0;
  std::string type;
  std::string name;
  std::map<std::string, std::string> args;
};

/// The shape of one experiment statement type. Keys outside `keys` are a
/// parse error: a misspelled or retired key must never fall back to its
/// default without a word.
struct StatementSpec {
  std::string type;
  bool has_name;
  /// May appear more than once (feed/heartbeat/fault/netfault).
  bool repeatable;
  std::vector<std::string> keys;
};

const std::vector<StatementSpec>& StatementSpecs() {
  static const std::vector<StatementSpec> specs = {
      {"feed", true, true,
       {"process", "rate", "burst_rate", "idle_rate", "burst_len", "idle_len",
        "trace", "seed", "payload", "lo", "hi", "fields"}},
      {"heartbeat", true, true, {"period", "phase"}},
      {"fault", true, true,
       {"kind", "start", "duration", "factor", "prob", "magnitude", "period",
        "seed"}},
      {"run", false, false,
       {"horizon", "warmup", "ets", "executor", "quantum", "ets_min_interval",
        "lease", "buffer_cap", "overload", "shards", "mode", "violations"}},
      {"batch", false, false, {"size"}},
      {"trace", false, false, {"path", "capacity"}},
      {"wal", false, false,
       {"dir", "sync", "sync_interval_bytes", "segment_bytes"}},
      {"checkpoint", false, false, {"horizon", "keep"}},
      {"crash", false, false, {"at"}},
      {"state", false, false, {"mem_budget", "spill_dir", "granularity"}},
      {"netfault", false, true,
       {"kind", "at", "seed", "count", "chunk", "gap", "bytes", "stale"}},
  };
  return specs;
}

/// The experiment statement type `line` starts with; null for plan lines.
const StatementSpec* FindStatementSpec(std::string_view line) {
  const std::string_view type = line.substr(0, line.find(' '));
  for (const StatementSpec& spec : StatementSpecs()) {
    if (spec.type == type) return &spec;
  }
  return nullptr;
}

Status ParseExpStatement(int line_number, std::string_view line,
                         const StatementSpec& spec, ExpStatement* out) {
  std::vector<std::string> tokens;
  for (const std::string& piece : StrSplit(line, ' ')) {
    std::string_view token = StripWhitespace(piece);
    if (!token.empty()) tokens.emplace_back(token);
  }
  size_t arg_start = spec.has_name ? 2 : 1;
  if (tokens.size() < arg_start) {
    return InvalidArgumentError(
        StrFormat("line %d: malformed statement", line_number));
  }
  out->line = line_number;
  out->type = tokens[0];
  if (spec.has_name) out->name = tokens[1];
  for (size_t i = arg_start; i < tokens.size(); ++i) {
    size_t eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      return InvalidArgumentError(StrFormat(
          "line %d: malformed argument '%s'", line_number, tokens[i].c_str()));
    }
    std::string key = tokens[i].substr(0, eq);
    DSMS_RETURN_IF_ERROR(
        CheckStatementKey(line_number, spec.type, key, spec.keys));
    out->args[std::move(key)] = tokens[i].substr(eq + 1);
  }
  return OkStatus();
}

Status GetArgDouble(const ExpStatement& s, const std::string& key,
                    double default_value, bool required, double* out) {
  auto it = s.args.find(key);
  if (it == s.args.end()) {
    if (required) {
      return InvalidArgumentError(
          StrFormat("line %d: missing %s=", s.line, key.c_str()));
    }
    *out = default_value;
    return OkStatus();
  }
  if (!ParseDouble(it->second, out)) {
    return InvalidArgumentError(
        StrFormat("line %d: bad number for %s", s.line, key.c_str()));
  }
  return OkStatus();
}

Status GetArgInt(const ExpStatement& s, const std::string& key,
                 int64_t default_value, int64_t* out) {
  auto it = s.args.find(key);
  if (it == s.args.end()) {
    *out = default_value;
    return OkStatus();
  }
  if (!ParseInt64(it->second, out)) {
    return InvalidArgumentError(
        StrFormat("line %d: bad integer for %s", s.line, key.c_str()));
  }
  return OkStatus();
}

Status GetArgDuration(const ExpStatement& s, const std::string& key,
                      Duration default_value, Duration* out) {
  auto it = s.args.find(key);
  if (it == s.args.end()) {
    *out = default_value;
    return OkStatus();
  }
  Status status = ParseDuration(it->second, out);
  if (!status.ok()) {
    return InvalidArgumentError(
        StrFormat("line %d: %s", s.line, status.message().c_str()));
  }
  return OkStatus();
}

Status ParseFeed(const ExpStatement& s, FeedSpec* feed) {
  feed->source = s.name;
  if (s.args.count("trace") > 0) {
    feed->kind = FeedSpec::Kind::kTrace;
    feed->trace_path = s.args.at("trace");
  } else {
    auto it = s.args.find("process");
    std::string process = it == s.args.end() ? "poisson" : it->second;
    if (process == "poisson") {
      feed->kind = FeedSpec::Kind::kPoisson;
      DSMS_RETURN_IF_ERROR(GetArgDouble(s, "rate", 0, true, &feed->rate));
    } else if (process == "constant") {
      feed->kind = FeedSpec::Kind::kConstant;
      DSMS_RETURN_IF_ERROR(GetArgDouble(s, "rate", 0, true, &feed->rate));
    } else if (process == "bursty") {
      feed->kind = FeedSpec::Kind::kBursty;
      DSMS_RETURN_IF_ERROR(
          GetArgDouble(s, "burst_rate", 100, false, &feed->burst_rate));
      DSMS_RETURN_IF_ERROR(
          GetArgDouble(s, "idle_rate", 1, false, &feed->idle_rate));
      DSMS_RETURN_IF_ERROR(GetArgDuration(s, "burst_len",
                                          200 * kMillisecond,
                                          &feed->burst_length));
      DSMS_RETURN_IF_ERROR(
          GetArgDuration(s, "idle_len", 5 * kSecond, &feed->idle_length));
    } else {
      return InvalidArgumentError(StrFormat(
          "line %d: unknown process '%s'", s.line, process.c_str()));
    }
  }
  int64_t seed = 1;
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "seed", 1, &seed));
  feed->seed = static_cast<uint64_t>(seed);

  auto payload = s.args.find("payload");
  if (payload != s.args.end() && payload->second == "randint") {
    feed->payload = FeedSpec::Payload::kRandInt;
    DSMS_RETURN_IF_ERROR(GetArgInt(s, "lo", 0, &feed->randint_lo));
    DSMS_RETURN_IF_ERROR(GetArgInt(s, "hi", 100, &feed->randint_hi));
    int64_t fields = 1;
    DSMS_RETURN_IF_ERROR(GetArgInt(s, "fields", 1, &fields));
    feed->payload_fields = static_cast<int>(fields);
    if (feed->randint_lo > feed->randint_hi || feed->payload_fields < 1) {
      return InvalidArgumentError(
          StrFormat("line %d: bad randint payload spec", s.line));
    }
  } else if (payload != s.args.end() && payload->second != "seq") {
    return InvalidArgumentError(StrFormat("line %d: unknown payload '%s'",
                                          s.line, payload->second.c_str()));
  }
  return OkStatus();
}

Status ParseFault(const ExpStatement& s, FaultTargetSpec* fault) {
  fault->source = s.name;
  auto kind = s.args.find("kind");
  if (kind == s.args.end()) {
    return InvalidArgumentError(StrFormat("line %d: missing kind=", s.line));
  }
  Result<FaultKind> parsed = ParseFaultKind(kind->second);
  if (!parsed.ok()) {
    return InvalidArgumentError(
        StrFormat("line %d: %s", s.line, parsed.status().message().c_str()));
  }
  fault->spec.kind = *parsed;
  DSMS_RETURN_IF_ERROR(
      GetArgDuration(s, "start", fault->spec.start, &fault->spec.start));
  DSMS_RETURN_IF_ERROR(GetArgDuration(s, "duration", fault->spec.duration,
                                      &fault->spec.duration));
  int64_t factor = fault->spec.burst_factor;
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "factor", factor, &factor));
  if (factor < 1) {
    return InvalidArgumentError(
        StrFormat("line %d: factor must be >= 1", s.line));
  }
  fault->spec.burst_factor = static_cast<int>(factor);
  DSMS_RETURN_IF_ERROR(GetArgDouble(s, "prob", fault->spec.probability,
                                    false, &fault->spec.probability));
  DSMS_RETURN_IF_ERROR(GetArgDuration(s, "magnitude", fault->spec.magnitude,
                                      &fault->spec.magnitude));
  DSMS_RETURN_IF_ERROR(GetArgDuration(s, "period", fault->spec.punct_period,
                                      &fault->spec.punct_period));
  if (fault->spec.punct_period <= 0) {
    return InvalidArgumentError(
        StrFormat("line %d: period must be positive", s.line));
  }
  int64_t seed = static_cast<int64_t>(fault->spec.seed);
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "seed", seed, &seed));
  fault->spec.seed = static_cast<uint64_t>(seed);
  return OkStatus();
}

Status ParseRun(const ExpStatement& s, RunSpec* run) {
  DSMS_RETURN_IF_ERROR(
      GetArgDuration(s, "horizon", 600 * kSecond, &run->horizon));
  DSMS_RETURN_IF_ERROR(GetArgDuration(s, "warmup", 0, &run->warmup));
  DSMS_RETURN_IF_ERROR(GetArgDuration(s, "ets_min_interval", 0,
                                      &run->ets_min_interval));
  auto ets = s.args.find("ets");
  if (ets != s.args.end()) {
    if (ets->second == "on-demand") {
      run->ets = EtsMode::kOnDemand;
    } else if (ets->second == "none") {
      run->ets = EtsMode::kNone;
    } else {
      return InvalidArgumentError(
          StrFormat("line %d: bad ets= '%s'", s.line, ets->second.c_str()));
    }
  }
  auto executor = s.args.find("executor");
  if (executor != s.args.end()) {
    if (executor->second == "dfs") {
      run->executor = ExecutorKind::kDfs;
    } else if (executor->second == "round-robin") {
      run->executor = ExecutorKind::kRoundRobin;
    } else if (executor->second == "greedy-memory") {
      run->executor = ExecutorKind::kGreedyMemory;
    } else {
      return InvalidArgumentError(StrFormat(
          "line %d: bad executor= '%s'", s.line, executor->second.c_str()));
    }
  }
  int64_t quantum = 8;
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "quantum", 8, &quantum));
  if (quantum < 1) {
    return InvalidArgumentError(StrFormat("line %d: quantum must be >= 1",
                                          s.line));
  }
  run->quantum = static_cast<int>(quantum);
  DSMS_RETURN_IF_ERROR(GetArgDuration(s, "lease", 0, &run->lease));
  if (run->lease < 0) {
    return InvalidArgumentError(
        StrFormat("line %d: lease must be >= 0", s.line));
  }
  int64_t buffer_cap = 0;
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "buffer_cap", 0, &buffer_cap));
  if (buffer_cap < 0) {
    return InvalidArgumentError(
        StrFormat("line %d: buffer_cap must be >= 0", s.line));
  }
  run->buffer_cap = static_cast<size_t>(buffer_cap);
  auto overload = s.args.find("overload");
  if (overload != s.args.end()) {
    if (overload->second == "grow") {
      run->overload = OverloadPolicy::kGrow;
    } else if (overload->second == "block") {
      run->overload = OverloadPolicy::kBlockSource;
    } else if (overload->second == "shed") {
      run->overload = OverloadPolicy::kShedOldest;
    } else {
      return InvalidArgumentError(StrFormat(
          "line %d: bad overload= '%s' (expected grow|block|shed)", s.line,
          overload->second.c_str()));
    }
  }
  int64_t shards = 1;
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "shards", 1, &shards));
  if (shards < 1) {
    return InvalidArgumentError(
        StrFormat("line %d: shards must be >= 1", s.line));
  }
  run->shards = static_cast<int>(shards);
  if (run->shards > 1 && run->executor != ExecutorKind::kDfs) {
    return InvalidArgumentError(StrFormat(
        "line %d: shards=%d requires executor=dfs (only the DFS strategy "
        "shards)",
        s.line, run->shards));
  }
  auto mode = s.args.find("mode");
  if (mode != s.args.end()) {
    if (mode->second == "deterministic") {
      run->shard_mode = ShardMode::kDeterministic;
    } else if (mode->second == "parallel") {
      run->shard_mode = ShardMode::kParallel;
    } else {
      return InvalidArgumentError(StrFormat(
          "line %d: bad mode= '%s' (expected deterministic|parallel)", s.line,
          mode->second.c_str()));
    }
  }
  auto violations = s.args.find("violations");
  if (violations != s.args.end()) {
    if (violations->second == "count") {
      run->violations = ViolationPolicy::kCount;
    } else if (violations->second == "drop") {
      run->violations = ViolationPolicy::kDropLate;
    } else if (violations->second == "quarantine") {
      run->violations = ViolationPolicy::kQuarantine;
    } else {
      return InvalidArgumentError(StrFormat(
          "line %d: bad violations= '%s' (expected count|drop|quarantine)",
          s.line, violations->second.c_str()));
    }
  }
  return OkStatus();
}

Status ParseBatch(const ExpStatement& s, RunSpec* run) {
  int64_t size = 0;
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "size", 0, &size));
  if (size < 1) {
    return InvalidArgumentError(
        StrFormat("line %d: missing or non-positive size=", s.line));
  }
  run->batch = static_cast<size_t>(size);
  return OkStatus();
}

Status ParseTrace(const ExpStatement& s, TraceSpec* trace) {
  auto path = s.args.find("path");
  if (path == s.args.end() || path->second.empty()) {
    return InvalidArgumentError(StrFormat("line %d: missing path=", s.line));
  }
  trace->path = path->second;
  int64_t capacity = static_cast<int64_t>(trace->capacity);
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "capacity", capacity, &capacity));
  if (capacity < 1) {
    return InvalidArgumentError(
        StrFormat("line %d: capacity must be >= 1", s.line));
  }
  trace->capacity = static_cast<size_t>(capacity);
  return OkStatus();
}

Status ParseWal(const ExpStatement& s, RecoverySpec* recovery) {
  recovery->wal = true;
  auto dir = s.args.find("dir");
  if (dir == s.args.end() || dir->second.empty()) {
    return InvalidArgumentError(StrFormat("line %d: missing dir=", s.line));
  }
  recovery->dir = dir->second;
  auto sync = s.args.find("sync");
  if (sync != s.args.end()) {
    if (sync->second == "none") {
      recovery->sync = WalSyncPolicy::kNone;
    } else if (sync->second == "interval") {
      recovery->sync = WalSyncPolicy::kInterval;
    } else if (sync->second == "every_frame") {
      recovery->sync = WalSyncPolicy::kEveryFrame;
    } else {
      return InvalidArgumentError(StrFormat(
          "line %d: bad sync= '%s' (expected none|interval|every_frame)",
          s.line, sync->second.c_str()));
    }
  }
  int64_t sync_interval =
      static_cast<int64_t>(recovery->sync_interval_bytes);
  DSMS_RETURN_IF_ERROR(
      GetArgInt(s, "sync_interval_bytes", sync_interval, &sync_interval));
  if (sync_interval < 1) {
    return InvalidArgumentError(
        StrFormat("line %d: sync_interval_bytes must be >= 1", s.line));
  }
  recovery->sync_interval_bytes = static_cast<uint64_t>(sync_interval);
  int64_t segment = static_cast<int64_t>(recovery->segment_bytes);
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "segment_bytes", segment, &segment));
  if (segment < 1) {
    return InvalidArgumentError(
        StrFormat("line %d: segment_bytes must be >= 1", s.line));
  }
  recovery->segment_bytes = static_cast<uint64_t>(segment);
  return OkStatus();
}

Status ParseCheckpoint(const ExpStatement& s, RecoverySpec* recovery) {
  recovery->checkpoint = true;
  DSMS_RETURN_IF_ERROR(
      GetArgDuration(s, "horizon", 0, &recovery->checkpoint_horizon));
  if (recovery->checkpoint_horizon <= 0) {
    return InvalidArgumentError(
        StrFormat("line %d: missing or non-positive horizon=", s.line));
  }
  int64_t keep = recovery->keep;
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "keep", keep, &keep));
  if (keep < 1) {
    return InvalidArgumentError(
        StrFormat("line %d: keep must be >= 1", s.line));
  }
  recovery->keep = static_cast<int>(keep);
  return OkStatus();
}

/// Parses "4096", "64k", "16m", "2g" (binary multiples, suffix
/// case-insensitive) into bytes.
bool ParseByteSize(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  std::string digits = text;
  uint64_t multiplier = 1;
  const char last = digits.back();
  if (last == 'k' || last == 'K') {
    multiplier = 1024;
  } else if (last == 'm' || last == 'M') {
    multiplier = 1024 * 1024;
  } else if (last == 'g' || last == 'G') {
    multiplier = 1024 * 1024 * 1024;
  }
  if (multiplier != 1) digits.pop_back();
  int64_t value = 0;
  if (!ParseInt64(digits, &value) || value < 0) return false;
  *out = static_cast<uint64_t>(value) * multiplier;
  return true;
}

Status ParseState(const ExpStatement& s, StorageSpec* storage) {
  storage->enabled = true;
  auto budget = s.args.find("mem_budget");
  if (budget == s.args.end() ||
      !ParseByteSize(budget->second, &storage->mem_budget) ||
      storage->mem_budget == 0) {
    return InvalidArgumentError(StrFormat(
        "line %d: missing or bad mem_budget= (bytes, k/m/g suffix ok)",
        s.line));
  }
  auto dir = s.args.find("spill_dir");
  if (dir == s.args.end() || dir->second.empty()) {
    return InvalidArgumentError(
        StrFormat("line %d: missing spill_dir=", s.line));
  }
  storage->spill_dir = dir->second;
  DSMS_RETURN_IF_ERROR(
      GetArgDuration(s, "granularity", kSecond, &storage->granularity));
  if (storage->granularity <= 0) {
    return InvalidArgumentError(
        StrFormat("line %d: granularity must be positive", s.line));
  }
  return OkStatus();
}

Status ParseCrash(const ExpStatement& s, RecoverySpec* recovery) {
  Duration at = 0;
  DSMS_RETURN_IF_ERROR(GetArgDuration(s, "at", 0, &at));
  if (at <= 0) {
    return InvalidArgumentError(
        StrFormat("line %d: missing or non-positive at=", s.line));
  }
  recovery->crash_at = at;
  return OkStatus();
}

Status ParseNetFault(const ExpStatement& s, NetFaultSpec* fault) {
  auto kind = s.args.find("kind");
  if (kind == s.args.end()) {
    return InvalidArgumentError(
        StrFormat("line %d: missing kind=", s.line));
  }
  std::optional<NetFaultKind> parsed = ParseNetFaultKind(kind->second);
  if (!parsed.has_value() || *parsed == NetFaultKind::kNone) {
    return InvalidArgumentError(StrFormat(
        "line %d: bad kind= '%s' (expected split|coalesce|slowloris|rst|"
        "half-open|reconnect-storm|dup-hello|garbage)",
        s.line, kind->second.c_str()));
  }
  fault->kind = *parsed;
  Duration at = 0;
  DSMS_RETURN_IF_ERROR(GetArgDuration(s, "at", 0, &at));
  if (at < 0) {
    return InvalidArgumentError(
        StrFormat("line %d: at must be non-negative", s.line));
  }
  fault->at = at;
  int64_t seed = static_cast<int64_t>(fault->seed);
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "seed", seed, &seed));
  fault->seed = static_cast<uint64_t>(seed);
  int64_t count = fault->count;
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "count", count, &count));
  if (count < 1) {
    return InvalidArgumentError(
        StrFormat("line %d: count must be >= 1", s.line));
  }
  fault->count = static_cast<int>(count);
  int64_t chunk = static_cast<int64_t>(fault->chunk);
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "chunk", chunk, &chunk));
  if (chunk < 0) {
    return InvalidArgumentError(
        StrFormat("line %d: chunk must be non-negative", s.line));
  }
  fault->chunk = static_cast<size_t>(chunk);
  DSMS_RETURN_IF_ERROR(GetArgDuration(s, "gap", fault->gap, &fault->gap));
  if (fault->gap < 0) {
    return InvalidArgumentError(
        StrFormat("line %d: gap must be non-negative", s.line));
  }
  int64_t bytes = static_cast<int64_t>(fault->bytes);
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "bytes", bytes, &bytes));
  if (bytes < 1) {
    return InvalidArgumentError(
        StrFormat("line %d: bytes must be >= 1", s.line));
  }
  fault->bytes = static_cast<size_t>(bytes);
  int64_t stale = fault->stale;
  DSMS_RETURN_IF_ERROR(GetArgInt(s, "stale", stale, &stale));
  if (stale < 0) {
    return InvalidArgumentError(
        StrFormat("line %d: stale must be non-negative", s.line));
  }
  fault->stale = static_cast<int>(stale);
  return OkStatus();
}

}  // namespace

Simulation::PayloadFn MakeFeedPayload(const FeedSpec& feed) {
  if (feed.payload == FeedSpec::Payload::kSequence) {
    return Simulation::SequencePayload();
  }
  auto rng = std::make_shared<Pcg32>(feed.seed * 977 + 5);
  int64_t lo = feed.randint_lo;
  int64_t hi = feed.randint_hi;
  int fields = feed.payload_fields;
  return [rng, lo, hi, fields](uint64_t, Timestamp) {
    std::vector<Value> values;
    values.reserve(static_cast<size_t>(fields));
    for (int i = 0; i < fields; ++i) values.emplace_back(rng->NextInt(lo, hi));
    return values;
  };
}

Result<std::unique_ptr<ArrivalProcess>> MakeArrivalProcess(
    const FeedSpec& feed) {
  switch (feed.kind) {
    case FeedSpec::Kind::kPoisson:
      if (feed.rate <= 0) {
        return InvalidArgumentError("feed " + feed.source +
                                    ": rate must be positive");
      }
      return std::unique_ptr<ArrivalProcess>(
          std::make_unique<PoissonProcess>(feed.rate, feed.seed));
    case FeedSpec::Kind::kConstant:
      if (feed.rate <= 0) {
        return InvalidArgumentError("feed " + feed.source +
                                    ": rate must be positive");
      }
      return std::unique_ptr<ArrivalProcess>(
          std::make_unique<ConstantRateProcess>(feed.rate));
    case FeedSpec::Kind::kBursty:
      return std::unique_ptr<ArrivalProcess>(std::make_unique<BurstyProcess>(
          feed.burst_rate, feed.idle_rate, feed.burst_length,
          feed.idle_length, feed.seed));
    case FeedSpec::Kind::kTrace: {
      Result<std::vector<Timestamp>> trace =
          LoadArrivalTrace(feed.trace_path);
      if (!trace.ok()) return trace.status();
      return std::unique_ptr<ArrivalProcess>(
          std::make_unique<TraceProcess>(*trace));
    }
  }
  return InternalError("unreachable feed kind");
}

Result<Experiment> ParseExperiment(std::string_view text) {
  return ParseExperiment(text, /*require_feeds=*/true);
}

Result<Experiment> ParseExperiment(std::string_view text,
                                   bool require_feeds) {
  std::vector<std::string> plan_lines;
  std::map<std::string, std::vector<ExpStatement>> statements;

  int line_number = 0;
  for (const std::string& raw_line : StrSplit(text, '\n')) {
    ++line_number;
    std::string_view line = raw_line;
    size_t comment = line.find('#');
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    const StatementSpec* spec = FindStatementSpec(stripped);
    if (spec == nullptr) {
      plan_lines.push_back(raw_line);
      continue;
    }
    ExpStatement statement;
    DSMS_RETURN_IF_ERROR(
        ParseExpStatement(line_number, stripped, *spec, &statement));
    statements[spec->type].push_back(std::move(statement));
  }
  for (const StatementSpec& spec : StatementSpecs()) {
    const std::vector<ExpStatement>& found = statements[spec.type];
    if (!spec.repeatable && found.size() > 1) {
      return InvalidArgumentError(StrFormat("line %d: duplicate %s statement",
                                            found[1].line,
                                            spec.type.c_str()));
    }
  }

  Result<ParsedPlan> plan = ParsePlan(StrJoin(plan_lines, "\n"));
  if (!plan.ok()) return plan.status();

  Experiment experiment;
  experiment.plan = std::move(*plan);

  auto check_stream = [&experiment](const ExpStatement& s) -> Status {
    Operator* op = experiment.plan.Find(s.name);
    if (op == nullptr || dynamic_cast<Source*>(op) == nullptr) {
      return InvalidArgumentError(StrFormat(
          "line %d: '%s' does not name a stream", s.line, s.name.c_str()));
    }
    return OkStatus();
  };

  for (const ExpStatement& s : statements["feed"]) {
    DSMS_RETURN_IF_ERROR(check_stream(s));
    FeedSpec feed;
    DSMS_RETURN_IF_ERROR(ParseFeed(s, &feed));
    experiment.feeds.push_back(std::move(feed));
  }
  for (const ExpStatement& s : statements["heartbeat"]) {
    DSMS_RETURN_IF_ERROR(check_stream(s));
    HeartbeatSpec heartbeat;
    heartbeat.source = s.name;
    DSMS_RETURN_IF_ERROR(
        GetArgDuration(s, "period", kSecond, &heartbeat.period));
    if (heartbeat.period <= 0) {
      return InvalidArgumentError(
          StrFormat("line %d: period must be positive", s.line));
    }
    DSMS_RETURN_IF_ERROR(GetArgDuration(s, "phase", 0, &heartbeat.phase));
    experiment.heartbeats.push_back(heartbeat);
  }
  for (const ExpStatement& s : statements["fault"]) {
    DSMS_RETURN_IF_ERROR(check_stream(s));
    FaultTargetSpec fault;
    fault.source = s.name;
    DSMS_RETURN_IF_ERROR(ParseFault(s, &fault));
    experiment.faults.push_back(std::move(fault));
  }
  // The statements below appear at most once (checked above).
  for (const ExpStatement& s : statements["run"]) {
    DSMS_RETURN_IF_ERROR(ParseRun(s, &experiment.run));
  }
  for (const ExpStatement& s : statements["batch"]) {
    DSMS_RETURN_IF_ERROR(ParseBatch(s, &experiment.run));
  }
  for (const ExpStatement& s : statements["trace"]) {
    DSMS_RETURN_IF_ERROR(ParseTrace(s, &experiment.trace));
  }
  for (const ExpStatement& s : statements["wal"]) {
    DSMS_RETURN_IF_ERROR(ParseWal(s, &experiment.recovery));
  }
  for (const ExpStatement& s : statements["checkpoint"]) {
    DSMS_RETURN_IF_ERROR(ParseCheckpoint(s, &experiment.recovery));
    if (!experiment.recovery.wal) {
      return InvalidArgumentError(StrFormat(
          "line %d: checkpoint requires a wal statement", s.line));
    }
  }
  for (const ExpStatement& s : statements["crash"]) {
    DSMS_RETURN_IF_ERROR(ParseCrash(s, &experiment.recovery));
  }
  for (const ExpStatement& s : statements["state"]) {
    DSMS_RETURN_IF_ERROR(ParseState(s, &experiment.storage));
  }
  for (const ExpStatement& s : statements["netfault"]) {
    NetFaultSpec fault;
    DSMS_RETURN_IF_ERROR(ParseNetFault(s, &fault));
    experiment.netfaults.push_back(fault);
  }
  if (require_feeds && experiment.feeds.empty()) {
    return InvalidArgumentError("experiment declares no feeds");
  }
  return experiment;
}

Result<std::unique_ptr<Executor>> BuildExecutor(Experiment* experiment,
                                                VirtualClock* clock,
                                                ExecConfig base,
                                                RecoveryManager* recovery) {
  QueryGraph* graph = experiment->plan.graph.get();
  const RunSpec& run = experiment->run;
  // Only the DFS strategy shards: its schedule is what deterministic mode
  // replicates.
  if (run.shards > 1 && run.executor != ExecutorKind::kDfs) {
    return InvalidArgumentError(StrFormat(
        "shards=%d requires executor=dfs (only the DFS strategy shards)",
        run.shards));
  }
  if (run.buffer_cap > 0) graph->SetBufferBound(run.buffer_cap, run.overload);
  if (experiment->storage.enabled) {
    StorageConfig storage_config;
    storage_config.mem_budget = experiment->storage.mem_budget;
    storage_config.spill_dir = experiment->storage.spill_dir;
    storage_config.granularity = experiment->storage.granularity;
    storage_config.overload = run.overload;
    DSMS_RETURN_IF_ERROR(graph->ConfigureStateStore(storage_config));
  }
  // After the store (the restored manifest and spilled-block descriptors
  // claim their block files against it) and before the executor (its
  // constructor scans the restored buffers to seed its ready queue).
  if (recovery != nullptr) recovery->RestoreGraph(graph, clock);

  ExecConfig config = std::move(base);
  config.ets.mode = run.ets;
  config.ets.min_interval = run.ets_min_interval;
  config.lease.duration = run.lease;
  config.batch_size = run.batch;
  config.shards = run.shards;
  config.shard_mode = run.shard_mode;
  std::unique_ptr<Executor> executor;
  switch (run.executor) {
    case ExecutorKind::kDfs:
      if (run.shards > 1) {
        executor = std::make_unique<ShardedExecutor>(graph, clock, config);
      } else {
        executor = std::make_unique<DfsExecutor>(graph, clock, config);
      }
      break;
    case ExecutorKind::kRoundRobin:
      executor = std::make_unique<RoundRobinExecutor>(graph, clock, config,
                                                      run.quantum);
      break;
    case ExecutorKind::kGreedyMemory:
      executor = std::make_unique<GreedyMemoryExecutor>(graph, clock, config);
      break;
  }
  if (recovery != nullptr) {
    recovery->RestoreExecutor(executor.get());
    DSMS_RETURN_IF_ERROR(recovery->AttachSinks(graph));
  }
  return executor;
}

ExperimentReport AssembleReport(const QueryGraph& graph,
                                const Executor& executor, Timestamp end_time,
                                const QueueSizeTracker& queues,
                                const OrderValidator& validator) {
  ExperimentReport report;
  report.end_time = end_time;
  for (Sink* sink : graph.sinks()) {
    SinkReport sr;
    sr.name = sink->name();
    sr.tuples = sink->data_delivered();
    sr.mean_latency_ms = sink->latency().mean_ms();
    sr.p99_latency_ms = sink->latency().p99_us() / 1000.0;
    report.sinks.push_back(std::move(sr));
  }
  report.peak_queue_total = queues.peak_total();
  report.ets_generated = executor.ets_generated();
  for (Source* source : graph.sources()) {
    if (source->degraded()) report.degraded = true;
  }
  report.shed_tuples = graph.TotalShedTuples();
  report.quarantined = validator.quarantined();
  report.dropped_late = validator.dropped();
  report.buffer_order_violations = validator.violations();
  report.max_buffer_hwm = graph.MaxBufferHighWaterMark();
  const FrontierTracker& frontier = executor.frontier();
  report.frontier_violations = frontier.violations();
  report.frontier_lease_expiries = frontier.lease_expiries();
  report.frontier_revivals = frontier.revivals();
  report.frontier_quarantines = frontier.quarantines();
  report.frontier_transitions = frontier.transitions();
  report.frontier_quarantined_now =
      frontier.CountInState(SourceHealth::kQuarantined);
  report.frontier_degraded_now =
      frontier.num_participants() -
      frontier.CountInState(SourceHealth::kHealthy);
  report.frontier_bound = frontier.CheckpointFrontier();
  if (auto* sharded = dynamic_cast<const ShardedExecutor*>(&executor)) {
    report.shards_used = static_cast<uint64_t>(sharded->num_shards());
    report.shard_hops = sharded->shard_hops();
    report.shard_epochs = sharded->epochs();
  }
  if (graph.state_store() != nullptr) {
    report.storage = graph.state_store()->stats();
  }
  report.exec = executor.stats();
  report.operator_stats = OperatorStatsString(graph);
  report.robustness = RobustnessReportString(graph, &validator);
  return report;
}

Result<ExperimentReport> RunExperiment(Experiment* experiment) {
  QueryGraph* graph = experiment->plan.graph.get();
  if (graph == nullptr || !graph->validated()) {
    return FailedPreconditionError("experiment has no validated plan");
  }

  VirtualClock clock;
  ExecConfig base;
  std::unique_ptr<Tracer> tracer;
  if (!experiment->trace.path.empty()) {
    tracer = std::make_unique<Tracer>(&clock, experiment->trace.capacity);
    base.tracer = tracer.get();
  }
  Result<std::unique_ptr<Executor>> built =
      BuildExecutor(experiment, &clock, base);
  if (!built.ok()) return built.status();
  std::unique_ptr<Executor> executor = std::move(*built);

  Simulation sim(graph, executor.get(), &clock);
  if (tracer != nullptr) sim.AttachTracer(tracer.get());
  sim.set_violation_policy(experiment->run.violations);
  for (const FeedSpec& feed : experiment->feeds) {
    auto* source = dynamic_cast<Source*>(experiment->plan.Find(feed.source));
    DSMS_CHECK(source != nullptr);  // Checked during parse.
    Result<std::unique_ptr<ArrivalProcess>> process =
        MakeArrivalProcess(feed);
    if (!process.ok()) return process.status();
    sim.AddFeed(source, std::move(*process), MakeFeedPayload(feed),
                FeedJitterSeed(feed));
  }
  for (const HeartbeatSpec& heartbeat : experiment->heartbeats) {
    auto* source =
        dynamic_cast<Source*>(experiment->plan.Find(heartbeat.source));
    DSMS_CHECK(source != nullptr);
    sim.AddHeartbeat(source, heartbeat.period, heartbeat.phase);
  }
  for (const FaultTargetSpec& fault : experiment->faults) {
    auto* source =
        dynamic_cast<Source*>(experiment->plan.Find(fault.source));
    DSMS_CHECK(source != nullptr);
    if (IsDiskFault(fault.spec.kind) && graph->state_store() == nullptr) {
      return InvalidArgumentError(
          "disk faults require a state statement (no state store configured)");
    }
    sim.InjectFault(source, fault.spec);
  }

  sim.Run(experiment->run.horizon, experiment->run.warmup);

  ExperimentReport report =
      AssembleReport(*graph, *executor, clock.now(), sim.queue_tracker(),
                     sim.order_validator());
  report.fault_events = sim.fault_events();
  if (tracer != nullptr) WriteTrace(*tracer, experiment->trace);
  return report;
}

void WriteTrace(const Tracer& tracer, const TraceSpec& spec) {
  std::ofstream out(spec.path, std::ios::out | std::ios::trunc);
  if (out) {
    tracer.WriteChromeTrace(out);
  } else {
    DSMS_LOG(Error) << "cannot write trace to " << spec.path;
  }
}

void ExperimentReport::PublishTo(MetricsRegistry* registry) const {
  DSMS_CHECK(registry != nullptr);
  registry->SetGauge("experiment.end_time_s", DurationToSeconds(end_time));
  for (const SinkReport& sink : sinks) {
    const std::string prefix = "sink." + sink.name;
    registry->SetCounter(prefix + ".tuples", sink.tuples);
    registry->SetGauge(prefix + ".mean_latency_ms", sink.mean_latency_ms);
    registry->SetGauge(prefix + ".p99_latency_ms", sink.p99_latency_ms);
  }
  registry->SetCounter("experiment.peak_queue_total",
                       static_cast<uint64_t>(peak_queue_total));
  registry->SetCounter("experiment.ets_generated", ets_generated);
  registry->SetCounter("experiment.fault_events", fault_events);
  registry->SetGauge("experiment.degraded", degraded ? 1.0 : 0.0);
  registry->SetCounter("experiment.shed_tuples", shed_tuples);
  registry->SetCounter("experiment.quarantined", quarantined);
  registry->SetCounter("experiment.dropped_late", dropped_late);
  registry->SetCounter("experiment.buffer_order_violations",
                       buffer_order_violations);
  registry->SetCounter("experiment.max_buffer_hwm", max_buffer_hwm);
  registry->SetCounter("experiment.frontier.violations", frontier_violations);
  registry->SetCounter("experiment.frontier.lease_expiries",
                       frontier_lease_expiries);
  registry->SetCounter("experiment.frontier.revivals", frontier_revivals);
  registry->SetCounter("experiment.frontier.quarantines",
                       frontier_quarantines);
  registry->SetCounter("experiment.frontier.transitions",
                       frontier_transitions);
  registry->SetGauge("experiment.frontier.quarantined_now",
                     static_cast<double>(frontier_quarantined_now));
  registry->SetGauge("experiment.frontier.degraded_now",
                     static_cast<double>(frontier_degraded_now));
  registry->SetGauge("experiment.frontier.bound",
                     static_cast<double>(frontier_bound));
  registry->SetGauge("exec.shard.shards", static_cast<double>(shards_used));
  registry->SetCounter("exec.shard.hops", shard_hops);
  registry->SetCounter("exec.shard.epochs", shard_epochs);
  storage.PublishTo(registry, "storage");
  exec.PublishTo(registry, "exec");
}

}  // namespace dsms
