// The sharded executor's parallel mode and the offline Simulation driver,
// measured in union_wal_blast's traced run: the same filter -> union query
// as four independent pairs, run through Simulation once on one shard (DFS,
// the reference) and once at shards=4 mode=parallel (four worker threads).
//
// This job is not a bounded end-to-end workload of its own: every record
// costs a superstep that wakes four threads, so on a shared 4-vCPU VM its
// wall time swings threefold with CPU steal from run to run.
#include <cstdio>
#include <string>

#include "common/random.h"
#include "stack.h"
#include "workloads.h"

namespace perfbench {

using namespace dsms;

namespace {

constexpr int kPairs = 4;

/// Pair i has a dense stream A<i> and a sparse stream B<i>, declared in
/// that order, so their stream ids are 2(i-1) and 2(i-1)+1.
std::string ShardsPlan() {
  std::string plan;
  for (int i = 1; i <= kPairs; ++i) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "stream A%d ts=internal\n"
                  "stream B%d ts=internal\n"
                  "filter FA%d in=A%d field=1 op=lt value=95\n"
                  "filter FB%d in=B%d field=1 op=lt value=95\n"
                  "union U%d in=FA%d,FB%d\n"
                  "sink O%d in=U%d\n",
                  i, i, i, i, i, i, i, i, i, i, i);
    plan += buf;
  }
  return plan + "run ets=on-demand\n";
}

/// Poisson arrivals over all pairs, one record per arrival instant; within
/// a pair about one record in 10^4 is sparse, as in the union workloads.
std::vector<ScheduledFrame> MakeShardsInput(uint64_t seed, size_t records) {
  std::vector<ScheduledFrame> frames;
  frames.reserve(records);
  Pcg32 rng(seed, 17);
  Timestamp t = 0;
  for (size_t id = 0; id < records; ++id) {
    t += rng.NextExponentialGap(100000.0);
    const int pair = static_cast<int>(rng.NextBelow(kPairs));
    ScheduledFrame entry;
    entry.time = t;
    entry.frame.stream_id = 2 * pair + (rng.NextBernoulli(1e-4) ? 1 : 0);
    entry.frame.arrival_hint = t;
    entry.frame.values = {Value(static_cast<int64_t>(id)),
                          Value(static_cast<int64_t>(rng.NextBelow(100)))};
    frames.push_back(std::move(entry));
  }
  return frames;
}

struct ShardsRun {
  explicit ShardsRun(size_t records) : out(records) {}
  Outputs out;
  SinkStream sinks[kPairs];
  SimResult result;
};

void RunJob(const std::string& plan, const std::vector<ScheduledFrame>& frames,
            int shards, ShardsRun* run) {
  run->result = Simulate(
      plan, frames, shards,
      shards > 1 ? ShardMode::kParallel : ShardMode::kDeterministic,
      [&](QueryGraph* graph) {
        const std::vector<Sink*> sinks = graph->sinks();
        for (int i = 0; i < kPairs; ++i) {
          RecordSink(sinks[static_cast<size_t>(i)], &run->out,
                     &run->sinks[i]);
        }
      });
}

}  // namespace

void MeasureShardedJob(const Options& options, Report* report) {
  const size_t records = options.tiny ? 500 : 1500;
  const std::string plan = ShardsPlan();
  const std::vector<ScheduledFrame> frames =
      MakeShardsInput(options.seed, records);
  ShardsRun single(records);
  RunJob(plan, frames, 1, &single);
  ShardsRun parallel(records);
  RunJob(plan, frames, 4, &parallel);

  // Each sink's delivered multiset must equal the single-shard run's, with
  // every record carrying the same timestamp.
  report->Check(single.result.buffered == 0 && parallel.result.buffered == 0,
                "sharded job left records in arcs");
  for (int i = 0; i < kPairs; ++i) {
    report->Check(parallel.sinks[i].set == single.sinks[i].set,
                  "a parallel-mode sink differs from the 1-shard run");
  }
  report->Check(FailedRecords(parallel.out, single.out.ts, true) == 0,
                "parallel mode delivered other records than one shard");
  report->Set("exec.shard_speedup",
              single.result.run_s / parallel.result.run_s);
  report->Set("sim.shards4_rps",
              static_cast<double>(records) / parallel.result.run_s);
}

}  // namespace perfbench
