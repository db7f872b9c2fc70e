#include "exec/dfs_executor.h"

#include "common/check.h"
#include "obs/tracer.h"

namespace dsms {

DfsExecutor::DfsExecutor(QueryGraph* graph, VirtualClock* clock,
                         ExecConfig config)
    : Executor(graph, clock, config) {}

int DfsExecutor::FindWork() {
  ++stats_.work_scans;
  if (!use_ready_queue()) {
    for (const auto& op : graph_->operators()) {
      if (op->HasWork()) return op->id();
    }
    return -1;
  }
  // Only operators with a non-empty input can have work (sources never do);
  // probing candidates in id order selects the same operator the full scan
  // would.
  for (int id = ready_.NextCandidate(0); id >= 0;
       id = ready_.NextCandidate(id + 1)) {
    if (graph_->op(id)->HasWork()) return id;
  }
  return -1;
}

void DfsExecutor::ShardLedger::NoteStep(int from_op, int to_op,
                                        Tracer* tracer) {
  const int from = (*op_shard)[static_cast<size_t>(from_op)];
  ++steps[static_cast<size_t>(from)];
  if (to_op < 0) return;
  const int to = (*op_shard)[static_cast<size_t>(to_op)];
  if (from == to) return;
  ++hops;
  if (tracer != nullptr) tracer->RecordShardHop(to_op, from, to);
}

bool DfsExecutor::RunStep() {
  if (current_ < 0) {
    current_ = FindWork();
    if (current_ < 0) {
      Operator* resumed = ResumeWhenIdle();
      if (resumed == nullptr) {
        if (shards_ != nullptr) ++shards_->epochs;
        return false;
      }
      current_ = resumed->id();
    }
  }

  Operator* op = graph_->op(current_);
  const StepResult result = ExecuteStep(op);
  current_ = SelectNext(op, result);
  if (shards_ != nullptr) shards_->NoteStep(op->id(), current_, tracer_);
  return true;
}

int DfsExecutor::SelectNext(Operator* op, const StepResult& result) {
  if (result.yield && op->num_outputs() > 0) {
    const int next = FirstSuccessorWithInput(op)->id();  // Forward
    if (tracer_ != nullptr) {
      tracer_->RecordNosRule(op->id(), NosRule::kForward, next);
    }
    return next;
  }
  if (result.more) {
    if (tracer_ != nullptr) {
      tracer_->RecordNosRule(op->id(), NosRule::kEncore, op->id());
    }
    return op->id();  // Encore: next := self
  }
  // A source relay step with nothing buffered has nothing upstream to visit.
  if (op->num_inputs() == 0) return -1;
  Operator* next =
      BacktrackToWork(op, result.blocked_input, result.idle_waiting);
  return next == nullptr ? -1 : next->id();
}

}  // namespace dsms
