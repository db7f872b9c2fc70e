#ifndef DSMS_RECOVERY_CHECKPOINT_H_
#define DSMS_RECOVERY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"

namespace dsms {

/// A complete, self-contained snapshot of engine state at a punctuation-
/// aligned cut. Sections are opaque length-prefixed blobs written by the
/// components that own the state (operators, buffers, executor, server), so
/// the checkpoint layer needs no knowledge of their internals.
struct CheckpointImage {
  uint64_t checkpoint_id = 0;
  /// Virtual clock at the instant the checkpoint was taken.
  Timestamp clock_now = 0;
  /// The punctuation frontier (minimum promised bound across sources) that
  /// triggered this checkpoint.
  Timestamp frontier = kMinTimestamp;
  /// WAL index replay starts from after loading this checkpoint.
  uint64_t wal_replay_from = 0;
  /// Operator state blobs keyed by operator id.
  std::vector<std::pair<int32_t, std::string>> operator_blobs;
  /// Buffer content blobs keyed by buffer id.
  std::vector<std::pair<int32_t, std::string>> buffer_blobs;
  /// Executor state (ExecStats, EtsGate, strategy cursor, frontier tracker
  /// state including its lease fire times).
  std::string executor_blob;
  /// IngestServer state (connection reports, skew trackers, validator).
  std::string net_blob;
  /// StateStore manifest (block-id allocator; spilled block *contents* are
  /// referenced by id from operator blobs, not copied — see
  /// docs/state_store.md). Empty when no state store is configured.
  std::string storage_blob;
  /// Frames made durable per wire stream id (the resume protocol's acks).
  std::vector<std::pair<int32_t, uint64_t>> durable_seqs;
  /// Durable sink byte offsets keyed by sink name.
  std::vector<std::pair<std::string, uint64_t>> sink_offsets;
};

/// Atomically writes `image` as `checkpoint-<id>.ckpt` in `dir`
/// (write-temp + fsync + rename — a crash mid-write leaves only an ignored
/// .tmp file), then prunes old checkpoints keeping the newest `keep`.
/// File layout: magic "DSMSCKP2", u64 body length, u32 crc32(body), body.
Status WriteCheckpointFile(const std::string& dir,
                           const CheckpointImage& image, int keep);

/// Loads the newest checkpoint in `dir` whose CRC validates, falling back
/// to earlier ones when the newest is corrupt (`*fallbacks` counts how many
/// were rejected on the way; pass nullptr to ignore). NotFound when the
/// directory holds no valid checkpoint; FailedPrecondition, naming the
/// file, when the search reaches a DSMSCKP1 (previous layout) checkpoint.
Result<CheckpointImage> LoadLatestCheckpoint(const std::string& dir,
                                             uint64_t* fallbacks);

}  // namespace dsms

#endif  // DSMS_RECOVERY_CHECKPOINT_H_
