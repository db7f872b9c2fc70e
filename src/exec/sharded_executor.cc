#include "exec/sharded_executor.h"

#include <utility>

#include "common/check.h"

namespace dsms {

const char* ShardModeToString(ShardMode mode) {
  switch (mode) {
    case ShardMode::kDeterministic:
      return "deterministic";
    case ShardMode::kParallel:
      return "parallel";
  }
  return "unknown";
}

ShardedExecutor::ShardedExecutor(QueryGraph* graph, VirtualClock* clock,
                                 ExecConfig config)
    : DfsExecutor(graph, clock, config),
      plan_(ShardPartitioner::Partition(*graph, config.shards)),
      mode_(config.shard_mode) {
  ledger_.op_shard = &plan_.op_shard;
  ledger_.steps.assign(static_cast<size_t>(plan_.num_shards), 0);

  // Per-operator could-result-in subscriptions: every operator registers its
  // ancestor stream set with the frontier tracker, so lease/quarantine
  // evidence and CouldResultInBound() map onto the shard topology.
  for (const auto& op : graph_->operators()) {
    frontier_.SubscribeCouldResultIn(
        op->id(), plan_.upstream_streams[static_cast<size_t>(op->id())]);
  }

  if (mode_ == ShardMode::kDeterministic) {
    // The DFS loop with its own ready set picks exactly what the
    // single-shard executor picks; the ledger only counts.
    shards_ = &ledger_;
    return;
  }

  shard_state_.resize(static_cast<size_t>(plan_.num_shards));
  for (int s = 0; s < plan_.num_shards; ++s) {
    shard_state_[static_cast<size_t>(s)].rng =
        Pcg32(config.shard_seed ^ static_cast<uint64_t>(s));
  }
  // Re-home every buffer from the base executor's global tracker onto the
  // tracker of its consumer's shard. All input buffers of one operator land
  // on one tracker, so each shard tracker holds exactly the global candidate
  // set restricted to that shard.
  if (use_ready_queue()) {
    shard_trackers_.resize(static_cast<size_t>(plan_.num_shards));
    for (auto& tracker : shard_trackers_) {
      tracker.Reset(graph_->num_operators());
    }
    for (int b = 0; b < graph_->num_buffers(); ++b) {
      StreamBuffer* buffer = graph_->buffer(b);
      const int consumer = graph_->consumer_of(b);
      if (consumer < 0) continue;
      ReadyTracker* tracker =
          &shard_trackers_[static_cast<size_t>(plan_.op_shard[consumer])];
      buffer->set_ready_tracker(tracker, consumer);
      if (!buffer->empty()) tracker->NoteFilled(consumer);
    }
  }

  queue_of_buffer_.assign(static_cast<size_t>(graph_->num_buffers()),
                          nullptr);
  inbound_.resize(static_cast<size_t>(plan_.num_shards));
  outbound_.resize(static_cast<size_t>(plan_.num_shards));
  for (int b : plan_.cross_arcs) {
    auto queue = std::make_unique<HopQueue>();
    queue->buffer = graph_->buffer(b);
    queue->consumer_op = graph_->consumer_of(b);
    queue->from_shard = plan_.op_shard[graph_->producer_of(b)];
    queue->to_shard = plan_.op_shard[queue->consumer_op];
    queue_of_buffer_[static_cast<size_t>(b)] = queue.get();
    outbound_[static_cast<size_t>(queue->from_shard)].push_back(queue.get());
    inbound_[static_cast<size_t>(queue->to_shard)].push_back(queue.get());
    queue->buffer->set_diverter(this);
    hop_queues_.push_back(std::move(queue));
  }
  // Global listeners (QueueSizeTracker, OrderValidator, trace feeds) are
  // shared across shard threads; serialize their dispatch on every arc.
  for (int b = 0; b < graph_->num_buffers(); ++b) {
    graph_->buffer(b)->set_notify_mutex(&notify_mutex_);
  }
}

ShardedExecutor::~ShardedExecutor() {
  if (mode_ == ShardMode::kDeterministic) return;
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(barrier_mutex_);
      shutdown_ = true;
    }
    barrier_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }
  // Undo the wiring this executor installed; buffers outlive the executor.
  for (int b = 0; b < graph_->num_buffers(); ++b) {
    StreamBuffer* buffer = graph_->buffer(b);
    buffer->set_notify_mutex(nullptr);
    if (buffer->diverter() == this) buffer->set_diverter(nullptr);
    ReadyTracker* tracker = buffer->ready_tracker();
    for (const ReadyTracker& mine : shard_trackers_) {
      if (tracker == &mine) {
        buffer->set_ready_tracker(nullptr, -1);
        break;
      }
    }
  }
}

bool ShardedExecutor::RunStep() {
  if (mode_ == ShardMode::kParallel) return RunSuperstep();
  return DfsExecutor::RunStep();
}

// --- parallel mode -----------------------------------------------------------

bool ShardedExecutor::HopQueue::TryPush(Tuple&& tuple) {
  const uint64_t t = tail.load(std::memory_order_relaxed);
  const uint64_t h = head.load(std::memory_order_acquire);
  if (t - h >= kRingSize) return false;  // full; tuple left intact
  slots[t & (kRingSize - 1)] = std::move(tuple);
  tail.store(t + 1, std::memory_order_release);
  return true;
}

bool ShardedExecutor::HopQueue::TryPop(Tuple* tuple) {
  const uint64_t h = head.load(std::memory_order_relaxed);
  const uint64_t t = tail.load(std::memory_order_acquire);
  if (h == t) return false;
  *tuple = std::move(slots[h & (kRingSize - 1)]);
  head.store(h + 1, std::memory_order_release);
  return true;
}

bool ShardedExecutor::Divert(StreamBuffer* buffer, Tuple&& tuple) {
  HopQueue* queue = queue_of_buffer_[static_cast<size_t>(buffer->id())];
  if (queue == nullptr) return false;
  // FIFO: once anything has spilled, everything spills until the spill has
  // drained back into the ring.
  if (queue->spill_head < queue->spill.size() ||
      !queue->TryPush(std::move(tuple))) {
    queue->spill.push_back(std::move(tuple));
  }
  hops_pushed_.fetch_add(1, std::memory_order_seq_cst);
  return true;
}

bool ShardedExecutor::FlushSpill(HopQueue* queue) {
  bool any = false;
  while (queue->spill_head < queue->spill.size() &&
         queue->TryPush(std::move(queue->spill[queue->spill_head]))) {
    ++queue->spill_head;
    any = true;
  }
  if (queue->spill_head == queue->spill.size() && !queue->spill.empty()) {
    queue->spill.clear();
    queue->spill_head = 0;
  }
  return any;
}

bool ShardedExecutor::DrainInbound(int shard) {
  ShardState& st = shard_state_[static_cast<size_t>(shard)];
  bool any = false;
  for (HopQueue* queue : inbound_[static_cast<size_t>(shard)]) {
    Tuple tuple;
    while (queue->TryPop(&tuple)) {
      // Consumer-side completion of the diverted push: full buffer
      // bookkeeping runs here, on the shard that owns the buffer.
      queue->buffer->DeliverDiverted(std::move(tuple));
      hops_popped_.fetch_add(1, std::memory_order_seq_cst);
      ++st.hops_in;
      any = true;
    }
  }
  return any;
}

bool ShardedExecutor::ShardHasLocalWork(int shard) const {
  for (const HopQueue* queue : outbound_[static_cast<size_t>(shard)]) {
    if (queue->spill_head < queue->spill.size()) return true;
  }
  for (const HopQueue* queue : inbound_[static_cast<size_t>(shard)]) {
    if (queue->head.load(std::memory_order_acquire) !=
        queue->tail.load(std::memory_order_acquire)) {
      return true;
    }
  }
  if (use_ready_queue()) {
    const ReadyTracker& tracker = shard_trackers_[static_cast<size_t>(shard)];
    for (int id = tracker.NextCandidate(0); id >= 0;
         id = tracker.NextCandidate(id + 1)) {
      if (graph_->op(id)->HasWork()) return true;
    }
    return false;
  }
  for (int id : plan_.shard_ops[static_cast<size_t>(shard)]) {
    if (graph_->op(id)->HasWork()) return true;
  }
  return false;
}

bool ShardedExecutor::StepOneCandidate(int shard) {
  ShardState& st = shard_state_[static_cast<size_t>(shard)];
  if (use_ready_queue()) {
    const ReadyTracker& tracker = shard_trackers_[static_cast<size_t>(shard)];
    const int first = tracker.NextCandidateCyclic(st.cursor);
    if (first < 0) return false;
    int id = first;
    while (true) {
      Operator* op = graph_->op(id);
      if (op->HasWork()) {
        StepOperator(shard, op);
        st.cursor = id + 1;
        return true;
      }
      id = tracker.NextCandidateCyclic(id + 1);
      if (id < 0 || id == first) return false;
    }
  }
  const auto& ops = plan_.shard_ops[static_cast<size_t>(shard)];
  const size_t n = ops.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = (static_cast<size_t>(st.cursor) + i) % n;
    Operator* op = graph_->op(ops[pos]);
    if (op->HasWork()) {
      StepOperator(shard, op);
      st.cursor = static_cast<int>((pos + 1) % n);
      return true;
    }
  }
  return false;
}

void ShardedExecutor::StepOperator(int shard, Operator* op) {
  ShardState& st = shard_state_[static_cast<size_t>(shard)];
  const StepResult result = op->Step(st.ctx);
  st.ctx.Charge(ClassifyStep(config_.costs, result, &st.stats).cost);
  ++st.steps;
}

void ShardedExecutor::WorkerLoop(int shard) {
  uint64_t seen_epoch = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(barrier_mutex_);
      barrier_cv_.wait(
          lock, [&] { return shutdown_ || epoch_go_ > seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_go_;
    }
    RunShardSuperstep(shard);
    {
      std::lock_guard<std::mutex> lock(barrier_mutex_);
      ++workers_done_;
    }
    barrier_cv_.notify_all();
  }
}

void ShardedExecutor::RunShardSuperstep(int shard) {
  ShardState& st = shard_state_[static_cast<size_t>(shard)];
  st.stats = ExecStats();
  st.ctx.Reset(epoch_start_);
  st.cost = 0;
  st.steps = 0;
  st.hops_in = 0;
  bool announced_idle = false;
  while (!superstep_done_.load(std::memory_order_acquire)) {
    if (ShardHasLocalWork(shard)) {
      // Clear the idle flag BEFORE acting: the main thread must never
      // observe an all-idle fleet while a worker is mid-delivery.
      if (announced_idle) {
        idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
        announced_idle = false;
      }
      for (HopQueue* queue : outbound_[static_cast<size_t>(shard)]) {
        FlushSpill(queue);
      }
      DrainInbound(shard);
      StepOneCandidate(shard);
    } else {
      if (!announced_idle) {
        idle_workers_.fetch_add(1, std::memory_order_seq_cst);
        announced_idle = true;
      }
      // Jittered backoff so idle shards do not hammer one cache line in
      // lockstep; the per-shard Pcg32 stream keeps it reproducible.
      const uint32_t spins = 16 + (st.rng.NextUint32() & 63u);
      for (uint32_t i = 0; i < spins; ++i) {
      }
      std::this_thread::yield();
    }
  }
  if (announced_idle) idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
  st.cost = st.ctx.cost();
}

void ShardedExecutor::EnsureWorkers() {
  if (!workers_.empty()) return;
  workers_.reserve(static_cast<size_t>(plan_.num_shards));
  for (int s = 0; s < plan_.num_shards; ++s) {
    workers_.emplace_back(&ShardedExecutor::WorkerLoop, this, s);
  }
}

bool ShardedExecutor::RunSuperstep() {
  EnsureWorkers();
  epoch_start_ = clock_->now();
  superstep_done_.store(false, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    workers_done_ = 0;
    ++epoch_go_;
  }
  barrier_cv_.notify_all();

  // Quiescence: every worker idle AND every diverted tuple delivered. Once
  // both hold, no worker can wake again (new local work only arrives through
  // hop deliveries, and those are all accounted), so the superstep is over.
  while (true) {
    if (idle_workers_.load(std::memory_order_seq_cst) == plan_.num_shards &&
        hops_pushed_.load(std::memory_order_seq_cst) ==
            hops_popped_.load(std::memory_order_seq_cst) &&
        idle_workers_.load(std::memory_order_seq_cst) == plan_.num_shards) {
      superstep_done_.store(true, std::memory_order_seq_cst);
      break;
    }
    std::this_thread::yield();
  }
  {
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    barrier_cv_.wait(lock, [&] { return workers_done_ == plan_.num_shards; });
  }

  // Barrier: merge per-shard accounting and advance virtual time by the
  // MAXIMUM per-shard cost — the shards burned their virtual CPU
  // concurrently, which is exactly the multicore speedup the bench measures.
  Duration max_cost = 0;
  uint64_t steps = 0;
  for (int s = 0; s < plan_.num_shards; ++s) {
    ShardState& st = shard_state_[static_cast<size_t>(s)];
    stats_.data_steps += st.stats.data_steps;
    stats_.punctuation_steps += st.stats.punctuation_steps;
    stats_.empty_steps += st.stats.empty_steps;
    ledger_.steps[static_cast<size_t>(s)] += st.steps;
    steps += st.steps;
    ledger_.hops += st.hops_in;
    if (st.cost > max_cost) max_cost = st.cost;
  }
  if (max_cost > 0) clock_->Advance(max_cost);
  ++ledger_.epochs;
  if (steps > 0) return true;

  // Quiescent superstep: the scalar idle path runs on the main thread while
  // the workers are parked at the barrier. ETS generated here lands in
  // source output buffers (or hop queues, when the arc crosses shards) and
  // is consumed by the next superstep.
  return ResumeWhenIdle() != nullptr;
}

// --- checkpoint support ------------------------------------------------------

namespace {
constexpr int64_t kShardStateVersion = 1;
}  // namespace

std::vector<int64_t> ShardedExecutor::ExportStrategyState() const {
  // [version, num_shards, mode, cursor, epochs, hops, per-shard step counts]
  std::vector<int64_t> state;
  state.reserve(6 + static_cast<size_t>(plan_.num_shards));
  state.push_back(kShardStateVersion);
  state.push_back(plan_.num_shards);
  state.push_back(static_cast<int64_t>(mode_));
  state.push_back(current_);
  state.push_back(static_cast<int64_t>(ledger_.epochs));
  state.push_back(static_cast<int64_t>(ledger_.hops));
  for (uint64_t steps : ledger_.steps) {
    state.push_back(static_cast<int64_t>(steps));
  }
  return state;
}

void ShardedExecutor::ImportStrategyState(const std::vector<int64_t>& state) {
  DSMS_CHECK_EQ(state.size(), 6u + static_cast<size_t>(plan_.num_shards));
  DSMS_CHECK_EQ(state[0], kShardStateVersion);
  // A checkpoint taken at shards=N only restores at the same N and mode: the
  // partitioning (and therefore the per-shard blobs) is part of the image.
  DSMS_CHECK_EQ(state[1], static_cast<int64_t>(plan_.num_shards));
  DSMS_CHECK_EQ(state[2], static_cast<int64_t>(mode_));
  current_ = static_cast<int>(state[3]);
  ledger_.epochs = static_cast<uint64_t>(state[4]);
  ledger_.hops = static_cast<uint64_t>(state[5]);
  for (int s = 0; s < plan_.num_shards; ++s) {
    ledger_.steps[static_cast<size_t>(s)] =
        static_cast<uint64_t>(state[6 + static_cast<size_t>(s)]);
  }
}

}  // namespace dsms
