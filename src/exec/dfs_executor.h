#ifndef DSMS_EXEC_DFS_EXECUTOR_H_
#define DSMS_EXEC_DFS_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "exec/executor.h"
#include "graph/query_graph.h"
#include "operators/operator.h"

namespace dsms {

/// The depth-first execution strategy of Section 3.1 — "basically equivalent
/// to a first-in-first-out strategy: tuples are sent to the next operator
/// down the path as soon as they are produced" — implemented with the three
/// Next-Operator-Selection rules:
///
///   Forward:   if yield then next := succ
///   Encore:    else if more then next := self
///   Backtrack: else next := pred_j (the predecessor feeding the blocking
///              input) and repeat the NOS step on pred_j
///
/// extended with on-demand ETS generation when backtracking reaches an empty
/// source while an idle-waiting operator holds blocked data (Section 4).
///
/// Differences from the paper's presentation, both behaviour-preserving:
///  - sink nodes are schedulable operators here, so the "last operator
///    before the Sink ignores Forward" special case falls out naturally
///    (Forward enters the sink, which drains via Encore);
///  - when a blocked component is re-activated by the scheduler after time
///    passed, the executor resumes the pending backtrack at the blocking
///    source directly (TryEtsSweep) instead of replaying the walk.
///
/// Deterministic sharding (exec/sharded_executor.h) runs this same loop with
/// a ShardLedger attached; the ledger only counts, it never steers.
class DfsExecutor : public Executor {
 public:
  DfsExecutor(QueryGraph* graph, VirtualClock* clock, ExecConfig config);

  bool RunStep() override;

  /// Operator the DFS cursor is parked on; -1 when idle (and always -1 for
  /// a parallel-mode ShardedExecutor, which has no global cursor).
  int current() const { return current_; }

 protected:
  /// Shard bookkeeping the DFS loop keeps while a ledger is attached: per-
  /// shard step counts, NOS transitions that cross a shard boundary (each
  /// recorded as a kShardHop trace event), and one epoch per idle return.
  struct ShardLedger {
    /// Shard of each operator, indexed by operator id (ShardPlan::op_shard).
    const std::vector<int>* op_shard = nullptr;
    std::vector<uint64_t> steps;
    uint64_t hops = 0;
    uint64_t epochs = 0;

    /// Counts `from_op`'s step on its shard, and a hop when the next
    /// operator `to_op` (-1: none) lives on another shard.
    void NoteStep(int from_op, int to_op, Tracer* tracer);
  };

  std::vector<int64_t> ExportStrategyState() const override {
    return {current_};
  }
  void ImportStrategyState(const std::vector<int64_t>& state) override {
    if (state.size() == 1) current_ = static_cast<int>(state[0]);
  }

  int current_ = -1;
  /// Attached by ShardedExecutor in deterministic mode; null otherwise, and
  /// then the loop pays one predictable branch per step for it.
  ShardLedger* shards_ = nullptr;

 private:
  /// Scans for an operator with processable input (a component whose source
  /// buffers received tuples, or leftover work). Returns -1 if none.
  int FindWork();

  /// Next-Operator-Selection after `op` stepped with `result`: Forward,
  /// Encore or Backtrack. Returns the next operator's id, or -1 when
  /// control returns to the scheduler.
  int SelectNext(Operator* op, const StepResult& result);
};

}  // namespace dsms

#endif  // DSMS_EXEC_DFS_EXECUTOR_H_
