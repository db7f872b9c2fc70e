#ifndef DSMS_EXEC_SHARDED_EXECUTOR_H_
#define DSMS_EXEC_SHARDED_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/ready_tracker.h"
#include "core/stream_buffer.h"
#include "exec/dfs_executor.h"
#include "exec/executor.h"
#include "exec/shard_partitioner.h"
#include "graph/query_graph.h"
#include "operators/operator.h"

namespace dsms {

/// Sharded multicore execution engine (docs/execution_model.md, "Sharded
/// execution"). The query graph is hash-partitioned across N shards by
/// source stream id (ShardPartitioner); every shard owns a contiguous-by-id
/// slice of the operator table and its own step accounting. Punctuation and
/// ETS flow across shard boundaries along the graph's own arcs — a
/// cross-shard arc carries them shard-to-shard, and the fan-in operator's
/// TSM registers perform the min-frontier merge that preserves IWP ordering
/// end to end. Every operator holds a could-result-in subscription on the
/// frontier tracker for its ancestor streams, so lease/quarantine semantics
/// and CheckpointFrontier() work unchanged under partitioning.
///
/// Two scheduling modes (ShardMode):
///
///  - kDeterministic: the DFS loop plus shard bookkeeping. RunStep is
///    DfsExecutor::RunStep, with the DFS executor's own ready set, run on
///    one thread with a ShardLedger attached: it counts each step on its
///    operator's shard, each NOS transition that crosses a shard boundary
///    (one shard hop / kShardHop event), and each idle return as a
///    virtual-time epoch barrier at which the driver delivers the next
///    external events to every shard. The ledger never steers, so sink
///    output, traces and ExecStats are byte-identical to DfsExecutor at any
///    shard count.
///
///  - kParallel: one free-running std::thread per shard, bulk-synchronous.
///    Only this mode builds per-shard ReadyTrackers, SPSC hop queues, the
///    BufferDiverter wiring and the listener notify mutex. Each RunStep() is
///    one superstep: workers drain their inbound lock-free SPSC hop queues
///    (cross-shard arcs divert producer pushes into these queues; the
///    consumer shard applies the buffer bookkeeping on its own thread), then
///    round-robin their local candidates until the whole fleet is quiescent.
///    At the barrier the main thread merges per-shard stats, advances the
///    virtual clock by the *maximum* per-shard cost (shards burn virtual CPU
///    concurrently), and takes the executor's idle path (ETS sweep, lease
///    expiry). Not byte-identical to the scalar schedule; conservation and
///    ordering invariants hold, and the mode is TSan-clean.
///
/// Checkpoints serialize per-shard executor blobs through
/// ExportStrategyState (cursor, epoch/hop counters, per-shard step counts);
/// restore requires the same shard count and mode.
class ShardedExecutor : public DfsExecutor, private BufferDiverter {
 public:
  /// `config.shards` >= 2 selects this executor; `config.shard_mode` picks
  /// the discipline, `config.shard_seed` seeds the per-shard Pcg32 streams
  /// (shard s draws from Pcg32(shard_seed ^ s) — deterministic at any shard
  /// count from one seed, which is how DSMS_TEST_SEED reproduces
  /// chaos-matrix failures identically).
  ShardedExecutor(QueryGraph* graph, VirtualClock* clock, ExecConfig config);
  ~ShardedExecutor() override;

  bool RunStep() override;

  const ShardPlan& plan() const { return plan_; }
  ShardMode mode() const { return mode_; }
  int num_shards() const { return plan_.num_shards; }

  /// Shard-boundary crossings: NOS transitions between operators of
  /// different shards (deterministic) or tuples through hop queues
  /// (parallel). The exec.shard.hops metric.
  uint64_t shard_hops() const { return ledger_.hops; }
  /// Epoch barriers passed: idle returns (deterministic) or supersteps
  /// (parallel). The exec.shard.epochs metric.
  uint64_t epochs() const { return ledger_.epochs; }
  /// Operator steps executed on `shard`.
  uint64_t shard_steps(int shard) const {
    return ledger_.steps[static_cast<size_t>(shard)];
  }

 protected:
  std::vector<int64_t> ExportStrategyState() const override;
  void ImportStrategyState(const std::vector<int64_t>& state) override;

 private:
  /// Per-shard execution clock for parallel workers: virtual time is the
  /// epoch's start plus the cost this shard has accumulated this superstep.
  class ShardClock : public ExecContext {
   public:
    Timestamp now() const override { return epoch_start_ + cost_; }
    void Reset(Timestamp epoch_start) {
      epoch_start_ = epoch_start;
      cost_ = 0;
    }
    void Charge(Duration cost) { cost_ += cost; }
    Duration cost() const { return cost_; }

   private:
    Timestamp epoch_start_ = 0;
    Duration cost_ = 0;
  };

  /// Lock-free SPSC ring for one cross-shard arc, with a producer-local
  /// spill so a full ring can never deadlock the producer (the spill is
  /// retried before every later push to keep the arc FIFO).
  struct HopQueue {
    static constexpr size_t kRingSize = 1024;  // power of two
    std::vector<Tuple> slots{std::vector<Tuple>(kRingSize)};
    std::atomic<uint64_t> head{0};  // consumer side
    std::atomic<uint64_t> tail{0};  // producer side
    std::vector<Tuple> spill;       // producer side only
    size_t spill_head = 0;
    StreamBuffer* buffer = nullptr;  // destination arc
    int consumer_op = -1;
    int from_shard = 0;
    int to_shard = 0;

    bool TryPush(Tuple&& tuple);
    bool TryPop(Tuple* tuple);
  };

  /// Mutable per-shard state. Workers touch only their own entry during a
  /// superstep; the main thread merges at the barrier.
  struct ShardState {
    ExecStats stats;       // merged into Executor::stats_ at the barrier
    ShardClock ctx;        // parallel-mode execution context
    Duration cost = 0;     // virtual CPU burned this superstep
    uint64_t steps = 0;    // operator steps this superstep
    uint64_t hops_in = 0;  // tuples delivered from inbound queues
    int cursor = 0;        // round-robin position over local candidates
    Pcg32 rng;             // idle-backoff jitter: Pcg32(shard_seed ^ shard)
  };

  // --- parallel mode ---
  bool RunSuperstep();
  void EnsureWorkers();
  void WorkerLoop(int shard);
  void RunShardSuperstep(int shard);
  bool FlushSpill(HopQueue* queue);
  bool DrainInbound(int shard);
  bool StepOneCandidate(int shard);
  void StepOperator(int shard, Operator* op);
  bool ShardHasLocalWork(int shard) const;

  // BufferDiverter: producer-side interception of cross-shard pushes.
  bool Divert(StreamBuffer* buffer, Tuple&& tuple) override;

  ShardPlan plan_;
  ShardMode mode_;
  /// Step, hop and epoch counts of both modes: the DFS loop fills it in
  /// deterministic mode, the superstep barrier in parallel mode.
  ShardLedger ledger_;

  // Parallel-mode machinery, built only for kParallel. Workers are spawned
  // lazily on the first superstep and joined in the destructor.

  /// Per-shard candidate sets. Every buffer notifies the tracker of its
  /// consumer's shard, so each tracker holds exactly the global candidate
  /// set restricted to that shard.
  std::vector<ReadyTracker> shard_trackers_;
  std::vector<ShardState> shard_state_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<HopQueue>> hop_queues_;
  std::vector<HopQueue*> queue_of_buffer_;      // by buffer id; null = local
  std::vector<std::vector<HopQueue*>> inbound_;  // by shard
  std::vector<std::vector<HopQueue*>> outbound_;  // by shard
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  uint64_t epoch_go_ = 0;        // under barrier_mutex_
  int workers_done_ = 0;         // under barrier_mutex_
  bool shutdown_ = false;        // under barrier_mutex_
  std::atomic<bool> superstep_done_{false};
  std::atomic<int> idle_workers_{0};
  std::atomic<uint64_t> hops_pushed_{0};
  std::atomic<uint64_t> hops_popped_{0};
  Timestamp epoch_start_ = 0;
  /// Serializes global listener dispatch (QueueSizeTracker, OrderValidator,
  /// tracer-fed listeners) across shard threads; installed on every buffer
  /// in parallel mode.
  std::mutex notify_mutex_;
};

}  // namespace dsms

#endif  // DSMS_EXEC_SHARDED_EXECUTOR_H_
