#ifndef DSMS_STORAGE_BLOCK_FILE_H_
#define DSMS_STORAGE_BLOCK_FILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "core/tuple.h"

namespace dsms {

/// Payload of one spilled state block: the full insertion sequence of the
/// block's bucket. Files are immutable — a block is only ever written once
/// (when first evicted), read back (whole, or one key's rows at a time) and
/// unlinked whole; the live expiry prefix is operator metadata kept outside
/// the file, so load/evict cycles never rewrite it.
struct BlockFileContents {
  uint64_t block_id = 0;
  Timestamp bucket_start = 0;
  Timestamp bucket_end = 0;
  Timestamp min_ts = kMaxTimestamp;
  Timestamp max_ts = kMinTimestamp;
  std::vector<Tuple> rows;
};

/// Where one group of rows lives in a block file. A keyed group holds every
/// row whose key hashes to `key_hash`; the unkeyed group holds the rows the
/// index cannot key. `offset` counts from the first byte after the header.
struct BlockGroupEntry {
  uint64_t key_hash = 0;
  uint32_t offset = 0;
  uint32_t length = 0;
  uint32_t crc = 0;  // crc32 of the group's bytes
};

/// The header of a block file: enough to read any one key's rows with a
/// single pread. Kept in memory on a block while its file is valid.
struct BlockDirectory {
  uint64_t block_id = 0;
  uint32_t nrows = 0;
  /// File offset of the first group (magic, length, crc and header).
  uint32_t groups_start = 0;
  /// One entry per distinct key hash, sorted by hash.
  std::vector<BlockGroupEntry> keyed;
  /// Rows without a usable key; length 0 when every row is keyed.
  BlockGroupEntry unkeyed;

  /// The keyed group of `key_hash`, or null when the block has no such row.
  const BlockGroupEntry* Find(uint64_t key_hash) const;
  /// Deterministic in-memory size, for the storage.directory_bytes gauge.
  uint64_t MemoryBytes() const;
};

/// One row of a group read, with its position in the block's insertion
/// sequence (what the expiry prefix is measured against).
struct BlockRow {
  uint32_t position = 0;
  Tuple tuple;
};

/// "<dir>/block-<id 20 digits>.blk".
std::string BlockFilePath(const std::string& dir, uint64_t block_id);

/// Parses a directory entry name of the layout above; false for foreign
/// files (orphan GC uses this to skip anything it does not own).
bool ParseBlockFileName(const std::string& name, uint64_t* block_id);

/// Atomically writes `block` as its canonical file in `dir` (write-temp +
/// fsync + rename, same discipline as checkpoints): a crash mid-write leaves
/// only an ignored .tmp file, never a half block under the final name.
///
/// The file is clustered by key. `key_groups` maps each key hash to the
/// positions of its rows in insertion order (the block's hash index); rows
/// it does not name form one trailing unkeyed group, so an unkeyed table
/// writes a single group. Layout:
///
///   magic "DSMSBLK2" | u32 header length | u32 crc32(header) | header |
///   groups
///   header: u64 block id | i64 bucket start, bucket end, min ts, max ts |
///           u32 rows | u32 keyed groups |
///           keyed entries {u64 key hash, u32 offset, u32 length, u32 crc},
///           sorted by hash | the unkeyed entry, same shape
///   group:  per row, u32 insertion position | tuple
///
/// The header CRC and the per-group CRCs together cover every byte after
/// the fixed prefix. Returns the directory that was written.
Result<BlockDirectory> WriteBlockFile(
    const std::string& dir, const BlockFileContents& block,
    const std::map<uint64_t, std::vector<uint32_t>>& key_groups);

/// Reads and CRC-validates a whole block file, rows back in insertion
/// order. Loads are fail-stop: a corrupt block means the durable tier lied,
/// and no graceful answer exists that preserves byte-identical replay. A
/// file of the retired DSMSBLK1 layout is rejected by name.
Result<BlockFileContents> ReadBlockFile(const std::string& path);

/// Reads and CRC-validates only the header of a block file.
Result<BlockDirectory> ReadBlockDirectory(const std::string& path);

/// Reads one group of `directory`'s file with one pread and checks its
/// CRC. Rows come back in insertion order.
Result<std::vector<BlockRow>> ReadBlockGroup(const std::string& path,
                                             const BlockDirectory& directory,
                                             const BlockGroupEntry& group);

/// All block files in `dir` as (id, full path), sorted by id. Missing
/// directory is an empty listing, not an error.
Status ListBlockFiles(const std::string& dir,
                      std::vector<std::pair<uint64_t, std::string>>* out);

}  // namespace dsms

#endif  // DSMS_STORAGE_BLOCK_FILE_H_
