// One engine stack built through the library's public API, the way
// streamets_serve builds it: plan parse, state store, WAL, a zero-cost DFS
// (or sharded) executor, and an IngestServer. Plus the two in-process
// drivers the oracles and the traced run use.
#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "exec/executor.h"
#include "harness.h"
#include "net/feed_schedule.h"
#include "net/ingest_server.h"
#include "recovery/recovery_manager.h"
#include "sim/experiment_spec.h"

namespace perfbench {

struct StackConfig {
  /// Plan plus `run`, `state` and `wal` statements, as a plan file holds
  /// them.
  std::string text;
  dsms::IngestClock::Mode clock = dsms::IngestClock::Mode::kFrameDriven;
  /// Wall-clock mode: serve this long. Frame-driven mode ends when the
  /// feeder disconnects and the engine is drained.
  dsms::Duration horizon = 0;
  /// Bind and listen (IngestServer::Start). Off for in-process drivers.
  bool listen = true;
};

class Stack {
 public:
  /// Builds and (optionally) starts a stack. With a `wal` statement in the
  /// text, opens the recovery manager on its directory; a directory holding
  /// a previous run's log is recovered by ReplayWal(). With `spans`, the
  /// WAL open is a `recovery.open` span.
  static dsms::Result<std::unique_ptr<Stack>> Build(const StackConfig& config,
                                                   SpanLog* spans = nullptr);

  dsms::QueryGraph* graph() { return experiment_.plan.graph.get(); }
  dsms::Executor* executor() { return executor_.get(); }
  dsms::IngestServer* server() { return server_.get(); }
  dsms::RecoveryManager* recovery() { return recovery_.get(); }
  dsms::VirtualClock* clock() { return &clock_; }
  dsms::Operator* Find(const std::string& name) const {
    return experiment_.plan.Find(name);
  }
  /// Wall seconds Build() took (the setup_s sample).
  double setup_s() const { return setup_s_; }

  /// Recovery: replays the WAL found by Open() and drains the engine.
  dsms::Status ReplayWal();

  /// Data tuples still sitting in any arc (must be 0 after a drained run).
  uint64_t BufferedData() const;

 private:
  Stack() = default;

  dsms::Experiment experiment_;
  dsms::VirtualClock clock_;
  std::unique_ptr<dsms::RecoveryManager> recovery_;
  std::unique_ptr<dsms::Executor> executor_;
  std::unique_ptr<dsms::IngestServer> server_;
  double setup_s_ = 0;
};

/// Sink callback installer: called once per sink before the run starts.
using AttachSinks = std::function<void(dsms::QueryGraph*)>;

struct SimResult {
  /// Plan parse, executor and Simulation construction.
  double setup_s = 0;
  /// Simulation::Run.
  double run_s = 0;
  /// Data tuples left in arcs after the run (must be 0).
  uint64_t buffered = 0;
  dsms::ExecStats stats;
};

/// Runs `frames` through an in-process Simulation of `text` under the zero
/// cost model, each frame delivered at its arrival hint, on `shards` shards
/// in `mode`. `attach` sees the graph before the run starts.
SimResult Simulate(const std::string& text,
                   const std::vector<dsms::ScheduledFrame>& frames, int shards,
                   dsms::ShardMode mode, const AttachSinks& attach);

/// The server's frame-driven loop in one thread, over the encoded byte
/// stream a feeder would send: FrameDecoder::Feed in 64 KiB reads, Next per
/// frame, WAL append, Source::Ingest*, RunStep until idle. Every call is a
/// span when `spans` is non-null. Returns wall seconds; `*frames` receives
/// the frames driven.
double DriveInProcess(Stack* stack, const std::string& bytes, SpanLog* spans,
                      uint64_t* frames);

/// Every frame of `frames` encoded back to back (length prefixes
/// included), as FeedClient puts them on the wire; `*encode_ns` receives
/// the time spent in EncodeFrame.
std::string EncodeAll(const std::vector<dsms::ScheduledFrame>& frames,
                      int64_t* encode_ns);

/// FrameDecoder::Feed in 64 KiB reads plus Next per frame over `bytes`:
/// nanoseconds per frame.
double DecodeNsPerFrame(const std::string& bytes);

/// Wall-clock buffer waits of the traced run, by arc class: `source_out`
/// (out of a source), `iwp_in` (into a union or join, where idle-waiting
/// holds tuples) and `sink_in` (into a sink). Must outlive the graph's last
/// push: declare it before the stack it is attached to.
class ArcWaits {
 public:
  void Attach(dsms::QueryGraph* graph);
  /// Sets buffer.<class>.wait_p50_us and wait_p99_us.
  void Publish(Report* report) const;

 private:
  struct Arc {
    bool source_out = false;
    bool iwp_in = false;
    bool sink_in = false;
    std::unique_ptr<WallWaitListener> listener;
  };
  std::vector<Arc> arcs_;
};

/// Record id carried in value 0 of every data frame and output tuple.
inline int64_t RecordId(const dsms::Tuple& tuple, int index = 0) {
  return tuple.value(index).int64_value();
}

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
