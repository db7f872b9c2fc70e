// The workloads and the pieces they share: per-record sink outputs and
// their comparison against a reference.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "operators/sink.h"

namespace perfbench {

/// Each runs for Options::seconds and fills the metrics `report` declares:
/// the end-to-end ones, or with Options::trace the per-layer ones.
void RunUnionWalBlast(const Options& options, Report* report);
void RunUnionPaced(const Options& options, Report* report);
void RunJoinSpill(const Options& options, Report* report);

/// Per-layer numbers of the sharded executor's parallel mode: the union
/// query as four pairs through Simulation on one shard and at shards=4
/// mode=parallel (exec.shard_speedup, sim.shards4_rps), with the
/// single-shard run as the oracle.
void MeasureShardedJob(const Options& options, Report* report);

/// What each input record produced at the sinks. Record ids index the
/// arrays; several sinks may write them concurrently (parallel sharded
/// runs) because every record reaches at most one sink.
struct Outputs {
  explicit Outputs(size_t records)
      : ts(records, -1), count(records, 0), emit_ns(records, 0) {}
  /// Output timestamp of the record's (last) emission; -1 when none.
  std::vector<int64_t> ts;
  std::vector<uint32_t> count;
  /// Wall time of the emission.
  std::vector<int64_t> emit_ns;
};

/// One sink's own view of its output stream; touched only by the thread
/// stepping that sink.
struct SinkStream {
  SeqDigest seq;
  SetDigest set;
  /// Emissions carrying an id outside the input.
  uint64_t unknown = 0;
  int64_t last_emit_ns = 0;
  int64_t last_ts = INT64_MIN;
  /// An output timestamp lower than the one before it.
  bool regressed = false;
};

/// Installs a callback on `sink` recording each output (record id in
/// value 0) into `outputs` and `stream`; with `spans`, each emission is a
/// `sink.emit` span.
void RecordSink(dsms::Sink* sink, Outputs* outputs, SinkStream* stream,
                SpanLog* spans = nullptr);

/// Records whose sink output differs from the reference: `expected[id]` is
/// the reference output timestamp, -1 for a record that must not appear.
/// With `compare_ts` off only presence is compared.
uint64_t FailedRecords(const Outputs& outputs,
                       const std::vector<int64_t>& expected, bool compare_ts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
