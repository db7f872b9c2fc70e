// Unit tests for the spillable time-partitioned state store
// (src/storage/): the key-clustered block file format and its CRC guarding,
// StateTable append/probe/expire semantics (insertion order, keyed probes
// via the per-block hash indexes), budget-driven eviction and load-back
// equivalence, keyed reads of spilled blocks (one key's rows, no load),
// O(1) whole-block purge of spilled state, checkpoint manifest round trips
// with block-referencing descriptors, orphan-file GC, per-checkpoint file
// pinning, and injected disk faults (stall charging, spill-failure
// shedding).

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/tuple.h"
#include "core/value.h"
#include "obs/metrics_registry.h"
#include "recovery/state_codec.h"
#include "sim/fault_injector.h"
#include "storage/block_file.h"
#include "storage/state_store.h"

namespace dsms {
namespace {

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

/// A per-test scratch directory, wiped before use so reruns start clean.
std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/dsms_storage_" + tag;
  for (const std::string& name : ListDir(dir)) {
    std::remove((dir + "/" + name).c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

Tuple Row(Timestamp ts, int64_t key, int64_t payload = 0) {
  return Tuple::MakeData(ts, {Value(key), Value(payload)});
}

std::vector<Tuple> ProbeAll(StateTable& table, Timestamp lo, Timestamp hi,
                            const Value* key = nullptr) {
  std::vector<Tuple> rows;
  table.Probe(lo, hi, key, [&](const Tuple& t) { rows.push_back(t); });
  return rows;
}

std::vector<std::string> Render(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  for (const Tuple& t : rows) out.push_back(t.ToString());
  return out;
}

/// XORs one byte of `path` at `offset` (negative: from the end).
void FlipByte(const std::string& path, long offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const auto whence = offset < 0 ? std::ios::end : std::ios::beg;
  char byte = 0;
  f.seekg(offset, whence);
  f.get(byte);
  f.seekp(offset, whence);
  f.put(static_cast<char>(byte ^ 0xff));
}

/// The block files of `dir`, sorted by id.
std::vector<std::string> BlockFiles(const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> files;
  EXPECT_TRUE(ListBlockFiles(dir, &files).ok());
  std::vector<std::string> paths;
  for (const auto& [id, path] : files) paths.push_back(path);
  return paths;
}

// --- block files ---

TEST(BlockFileTest, RoundTrip) {
  std::string dir = FreshDir("blockfile");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  BlockFileContents contents;
  contents.block_id = 7;
  contents.bucket_start = 0;
  contents.bucket_end = kSecond;
  contents.min_ts = 10;
  contents.max_ts = 13;
  contents.rows.push_back(Row(10, 1, 100));
  contents.rows.push_back(Row(11, 2, 200));
  contents.rows.push_back(Row(12, 1, 300));
  contents.rows.push_back(Row(13, 3, 400));
  // Rows 0 and 2 share a key hash, row 1 has its own, row 3 is unkeyed.
  const std::map<uint64_t, std::vector<uint32_t>> groups = {{9, {0, 2}},
                                                            {5, {1}}};
  Result<BlockDirectory> written = WriteBlockFile(dir, contents, groups);
  ASSERT_TRUE(written.ok()) << written.status();
  ASSERT_EQ(written->keyed.size(), 2u);
  EXPECT_EQ(written->keyed[0].key_hash, 5u);  // sorted by hash
  EXPECT_EQ(written->keyed[1].key_hash, 9u);
  EXPECT_GT(written->unkeyed.length, 0u);
  EXPECT_EQ(written->Find(4), nullptr);

  // A whole read restores insertion order and the metadata.
  const std::string path = BlockFilePath(dir, 7);
  Result<BlockFileContents> loaded = ReadBlockFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->block_id, 7u);
  EXPECT_EQ(loaded->bucket_end, kSecond);
  EXPECT_EQ(loaded->min_ts, 10);
  EXPECT_EQ(loaded->max_ts, 13);
  EXPECT_EQ(Render(loaded->rows), Render(contents.rows));

  // The header read back equals the directory the writer returned.
  Result<BlockDirectory> directory = ReadBlockDirectory(path);
  ASSERT_TRUE(directory.ok()) << directory.status();
  EXPECT_EQ(directory->block_id, 7u);
  EXPECT_EQ(directory->nrows, 4u);
  EXPECT_EQ(directory->groups_start, written->groups_start);
  ASSERT_EQ(directory->keyed.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(directory->keyed[i].offset, written->keyed[i].offset);
    EXPECT_EQ(directory->keyed[i].length, written->keyed[i].length);
    EXPECT_EQ(directory->keyed[i].crc, written->keyed[i].crc);
  }

  // One group read returns that hash's rows with their positions.
  Result<std::vector<BlockRow>> group =
      ReadBlockGroup(path, *directory, *directory->Find(9));
  ASSERT_TRUE(group.ok()) << group.status();
  ASSERT_EQ(group->size(), 2u);
  EXPECT_EQ((*group)[0].position, 0u);
  EXPECT_EQ((*group)[1].position, 2u);
  EXPECT_EQ((*group)[1].tuple.ToString(), contents.rows[2].ToString());
}

TEST(BlockFileTest, UnkeyedBlockIsOneGroup) {
  std::string dir = FreshDir("blockunkeyed");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  BlockFileContents contents;
  contents.block_id = 2;
  for (int i = 0; i < 5; ++i) contents.rows.push_back(Row(i, i, i));
  Result<BlockDirectory> written = WriteBlockFile(dir, contents, {});
  ASSERT_TRUE(written.ok());
  EXPECT_TRUE(written->keyed.empty());
  EXPECT_EQ(written->unkeyed.offset, 0u);
  Result<BlockFileContents> loaded = ReadBlockFile(BlockFilePath(dir, 2));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(Render(loaded->rows), Render(contents.rows));
}

TEST(BlockFileTest, CorruptionIsDetected) {
  std::string dir = FreshDir("blockcorrupt");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  BlockFileContents contents;
  contents.block_id = 1;
  contents.rows.push_back(Row(10, 1, 100));
  contents.rows.push_back(Row(11, 2, 200));
  const std::string path = BlockFilePath(dir, 1);
  Result<BlockDirectory> written =
      WriteBlockFile(dir, contents, {{1, {0}}, {2, {1}}});
  ASSERT_TRUE(written.ok());
  // Flip one byte of the last group; its CRC must catch it, on a whole
  // read and on a read of that group alone.
  FlipByte(path, -1);
  Result<BlockFileContents> whole = ReadBlockFile(path);
  ASSERT_FALSE(whole.ok());
  EXPECT_NE(whole.status().message().find("group crc"), std::string::npos);
  EXPECT_FALSE(ReadBlockGroup(path, *written, *written->Find(2)).ok());
  EXPECT_TRUE(ReadBlockGroup(path, *written, *written->Find(1)).ok());
  FlipByte(path, -1);
  ASSERT_TRUE(ReadBlockFile(path).ok());

  // Flip one byte of the header (the block id); the header CRC catches it.
  FlipByte(path, 16);
  Result<BlockDirectory> directory = ReadBlockDirectory(path);
  ASSERT_FALSE(directory.ok());
  EXPECT_NE(directory.status().message().find("header crc"),
            std::string::npos);
  EXPECT_FALSE(ReadBlockFile(path).ok());

  // A truncated file never reads.
  ASSERT_EQ(::truncate(path.c_str(), 12), 0);
  EXPECT_FALSE(ReadBlockFile(path).ok());
  EXPECT_FALSE(ReadBlockDirectory(path).ok());
}

// Files of the retired single-CRC layout are refused by name rather than
// misread or reported as foreign.
TEST(BlockFileTest, RetiredLayoutIsRejectedByName) {
  std::string dir = FreshDir("blockv1");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  const std::string path = BlockFilePath(dir, 4);
  {
    std::ofstream out(path, std::ios::binary);
    out << "DSMSBLK1" << std::string(40, '\0');
  }
  Result<BlockFileContents> whole = ReadBlockFile(path);
  ASSERT_FALSE(whole.ok());
  EXPECT_NE(whole.status().message().find("DSMSBLK1"), std::string::npos)
      << whole.status();
  Result<BlockDirectory> directory = ReadBlockDirectory(path);
  ASSERT_FALSE(directory.ok());
  EXPECT_NE(directory.status().message().find("DSMSBLK1"), std::string::npos);
}

TEST(BlockFileTest, ListSkipsForeignFiles) {
  std::string dir = FreshDir("blocklist");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  BlockFileContents contents;
  contents.block_id = 3;
  ASSERT_TRUE(WriteBlockFile(dir, contents, {}).ok());
  contents.block_id = 1;
  ASSERT_TRUE(WriteBlockFile(dir, contents, {}).ok());
  std::ofstream(dir + "/notes.txt") << "not a block";
  std::vector<std::pair<uint64_t, std::string>> files;
  ASSERT_TRUE(ListBlockFiles(dir, &files).ok());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].first, 1u);
  EXPECT_EQ(files[1].first, 3u);
}

// --- standalone StateTable (no store: hot-only) ---

TEST(StateTableTest, ProbeBandInInsertionOrder) {
  StateTable table;
  table.set_name("t");
  // Out-of-bucket-order appends still preserve per-probe insertion order.
  table.Append(Row(2500, 1));
  table.Append(Row(500, 2));
  table.Append(Row(1500, 3));
  EXPECT_EQ(table.size(), 3u);
  std::vector<Tuple> rows = ProbeAll(table, 0, 3000);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].value(0).int64_value(), 1);
  EXPECT_EQ(rows[1].value(0).int64_value(), 2);
  EXPECT_EQ(rows[2].value(0).int64_value(), 3);
  // Band [1000, 2000] hits only the middle bucket's row.
  rows = ProbeAll(table, 1000, 2000);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value(0).int64_value(), 3);
}

TEST(StateTableTest, KeyedProbeUsesIndexAndReverifiesEquality) {
  StateTable table;
  table.set_key_field(0);
  for (int i = 0; i < 100; ++i) {
    table.Append(Row(/*ts=*/i * 10, /*key=*/i % 5, /*payload=*/i));
  }
  Value key(static_cast<int64_t>(3));
  std::vector<Tuple> rows = ProbeAll(table, 0, 1000, &key);
  ASSERT_EQ(rows.size(), 20u);
  for (const Tuple& t : rows) EXPECT_EQ(t.value(0).int64_value(), 3);
  // Insertion order within the key.
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].value(1).int64_value(),
              rows[i].value(1).int64_value());
  }
  EXPECT_GT(table.index_probes(), 0u);
  EXPECT_EQ(table.index_hits(), 20u);
}

TEST(StateTableTest, ExpireStopsAtFirstLiveRow) {
  StateTable table;
  // Same bucket, but the first row is the newest: prefix-stop expiry (the
  // deque semantics the operators rely on) must keep everything.
  table.Append(Row(900, 1));
  table.Append(Row(100, 2));
  table.Expire(/*cutoff=*/500);
  EXPECT_EQ(table.size(), 2u);
  // Now a cutoff above both expires both.
  table.Expire(1000);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(ProbeAll(table, 0, 10000).empty());
}

TEST(StateTableTest, ExpireDropsWholeBlocks) {
  StateTable table;
  for (int i = 0; i < 10; ++i) {
    table.Append(Row(i * kSecond + kSecond / 2, i));
  }
  EXPECT_EQ(table.num_blocks(), 10u);
  table.Expire(5 * kSecond);
  EXPECT_EQ(table.size(), 5u);
  EXPECT_LE(table.num_blocks(), 6u);
  std::vector<Tuple> rows = ProbeAll(table, 0, 100 * kSecond);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].value(0).int64_value(), 5);
}

// --- spilling under a store ---

struct SpillRig {
  explicit SpillRig(const std::string& tag, uint64_t budget = 256,
                    OverloadPolicy overload = OverloadPolicy::kBlockSource) {
    config.mem_budget = budget;
    config.spill_dir = FreshDir(tag);
    config.granularity = kSecond;
    config.overload = overload;
    store = std::make_unique<StateStore>(config);
    EXPECT_TRUE(store->Init().ok());
    table.set_name("t");
    table.set_key_field(0);
    table.Bind(store.get(), nullptr);
  }

  /// Fills `n` one-row buckets; with a 256-byte budget most seal + spill.
  void Fill(int n) {
    for (int i = 0; i < n; ++i) {
      table.Append(Row(i * kSecond + 1, i % 5, i));
      table.MaybeEvict();
    }
  }

  StorageConfig config;
  std::unique_ptr<StateStore> store;
  StateTable table;
};

TEST(StateStoreTest, SpillsColdBlocksUnderBudgetAndLoadsBack) {
  SpillRig rig("spill");
  rig.Fill(50);
  EXPECT_GT(rig.table.num_spilled_blocks(), 0u);
  EXPECT_LE(rig.table.hot_bytes(), rig.config.mem_budget);
  EXPECT_EQ(rig.table.size(), 50u);
  // Block files exist on disk.
  EXPECT_EQ(ListDir(rig.config.spill_dir).size(),
            rig.table.num_spilled_blocks());

  // A full probe loads everything back, contents and order intact.
  std::vector<Tuple> rows = ProbeAll(rig.table, 0, 100 * kSecond);
  ASSERT_EQ(rows.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rows[i].value(1).int64_value(), i);
  }
  StorageStats stats = rig.store->stats();
  EXPECT_GT(stats.spills, 0u);
  EXPECT_GT(stats.loads, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(StateStoreTest, EvictionPicksOldestSealedBlocksFirst) {
  SpillRig rig("evictorder");
  rig.Fill(20);
  // The oldest sealed blocks (farthest below the frontier) must be the
  // spilled ones; the newest stay resident.
  std::vector<Tuple> newest = ProbeAll(rig.table, 19 * kSecond, 20 * kSecond);
  ASSERT_EQ(newest.size(), 1u);
  StorageStats before = rig.store->stats();
  // Probing only the newest (resident) band must not trigger any load.
  StorageStats after = rig.store->stats();
  EXPECT_EQ(before.loads, after.loads);
}

TEST(StateStoreTest, KeyedProbeEquivalentToUnbudgetedTable) {
  SpillRig rig("equiv");
  StateTable reference;
  reference.set_key_field(0);
  for (int i = 0; i < 80; ++i) {
    Tuple t = Row(i * 200 * kMillisecond, i % 7, i);
    rig.table.Append(t);
    rig.table.MaybeEvict();
    reference.Append(std::move(t));
  }
  for (int k = 0; k < 7; ++k) {
    Value key(static_cast<int64_t>(k));
    std::vector<Tuple> got = ProbeAll(rig.table, kSecond, 12 * kSecond, &key);
    std::vector<Tuple> want =
        ProbeAll(reference, kSecond, 12 * kSecond, &key);
    ASSERT_EQ(got.size(), want.size()) << "key " << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].ToString(), want[i].ToString());
    }
  }
}

// Keyed probes of spilled blocks read one key's group instead of loading
// the block, and deliver exactly what an unbudgeted table does: for present
// and absent keys, wide and narrow bands, and a block whose expiry prefix
// advanced while it was still resident.
TEST(StateStoreTest, KeyedReadsOfSpilledBlocksMatchUnbudgetedReference) {
  SpillRig rig("keyread");
  StateTable reference;
  reference.set_key_field(0);
  for (int i = 0; i < 60; ++i) {
    Tuple t = Row(i * 100 * kMillisecond, i % 7, i);
    rig.table.Append(t);
    reference.Append(std::move(t));
    if (i == 14) {
      // The first block (rows 0-9) is sealed and still resident: expire
      // rows 0-3 before it spills.
      rig.table.Expire(350 * kMillisecond);
      reference.Expire(350 * kMillisecond);
    }
    if (i >= 14) rig.table.MaybeEvict();
  }
  // Ten rows per block, every key in every block; all but the tail spilled.
  const uint64_t spilled = rig.table.num_spilled_blocks();
  ASSERT_EQ(spilled, rig.table.num_blocks() - 1);
  ASSERT_EQ(rig.table.size(), reference.size());

  uint64_t key_reads = 0;
  for (int k = 0; k < 10; ++k) {
    SCOPED_TRACE(k);
    Value key(static_cast<int64_t>(k));
    const bool present = k < 7;
    EXPECT_EQ(Render(ProbeAll(rig.table, 0, 10 * kSecond, &key)),
              Render(ProbeAll(reference, 0, 10 * kSecond, &key)));
    key_reads += present ? spilled : 0;
    EXPECT_EQ(rig.store->stats().key_reads, key_reads);
    // [250 ms, 1.25 s] overlaps the first two blocks and starts inside the
    // first one's expired prefix.
    EXPECT_EQ(Render(ProbeAll(rig.table, 250 * kMillisecond,
                              1250 * kMillisecond, &key)),
              Render(ProbeAll(reference, 250 * kMillisecond,
                              1250 * kMillisecond, &key)));
    key_reads += present ? 2 : 0;
    EXPECT_EQ(rig.store->stats().key_reads, key_reads);
  }
  StorageStats stats = rig.store->stats();
  EXPECT_EQ(stats.loads, 0u);
  EXPECT_EQ(stats.evictions, stats.spills);
  EXPECT_EQ(rig.table.num_spilled_blocks(), spilled);

  // An unkeyed probe still loads whole blocks, back in insertion order.
  EXPECT_EQ(Render(ProbeAll(rig.table, 0, 10 * kSecond)),
            Render(ProbeAll(reference, 0, 10 * kSecond)));
  EXPECT_EQ(rig.store->stats().loads, spilled);
}

// A row whose key field is out of range is not indexed: it is written to
// the unkeyed group, reaches unkeyed probes in insertion order, and never
// reaches keyed ones.
TEST(StateStoreTest, UnkeyableRowsReachOnlyUnkeyedProbes) {
  SpillRig rig("unkeyable");
  StateTable reference;
  rig.table.set_key_field(2);
  reference.set_key_field(2);
  for (int i = 0; i < 40; ++i) {
    const Timestamp ts = i * 250 * kMillisecond;
    Tuple t = i % 4 == 0
                  ? Row(ts, i % 3, i)  // two values: key field 2 missing
                  : Tuple::MakeData(ts, {Value(static_cast<int64_t>(i)),
                                         Value(static_cast<int64_t>(i)),
                                         Value(static_cast<int64_t>(i % 3))});
    rig.table.Append(t);
    rig.table.MaybeEvict();
    reference.Append(std::move(t));
  }
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  for (int k = 0; k < 3; ++k) {
    Value key(static_cast<int64_t>(k));
    std::vector<Tuple> got = ProbeAll(rig.table, 0, 20 * kSecond, &key);
    EXPECT_EQ(Render(got), Render(ProbeAll(reference, 0, 20 * kSecond, &key)));
    for (const Tuple& t : got) EXPECT_EQ(t.num_values(), 3);
  }
  EXPECT_EQ(rig.store->stats().loads, 0u);
  EXPECT_GT(rig.store->stats().key_reads, 0u);
  std::vector<Tuple> all = ProbeAll(rig.table, 0, 20 * kSecond);
  EXPECT_EQ(all.size(), 40u);
  EXPECT_EQ(Render(all), Render(ProbeAll(reference, 0, 20 * kSecond)));
}

TEST(StateStoreDeathTest, FlippedGroupByteIsFailStop) {
  SpillRig rig("deathgroup");
  rig.Fill(20);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  // Block 1 holds the single row of key 0 at t = 1 us; its only group ends
  // the file.
  FlipByte(BlockFiles(rig.config.spill_dir).front(), -1);
  Value key(static_cast<int64_t>(0));
  EXPECT_DEATH(ProbeAll(rig.table, 0, kSecond / 2, &key),
               "block group crc mismatch");
}

TEST(StateStoreDeathTest, FlippedHeaderByteIsFailStop) {
  SpillRig rig("deathheader");
  rig.Fill(20);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  StateWriter table_w;
  rig.table.SaveState(table_w);
  FlipByte(BlockFiles(rig.config.spill_dir).front(), 16);
  // Restored from descriptors, the table holds no directory yet: the first
  // keyed read fetches the header and must refuse it.
  StateStore store2(rig.config);
  ASSERT_TRUE(store2.Init().ok());
  StateTable restored;
  restored.set_key_field(0);
  restored.Bind(&store2, nullptr);
  StateReader table_r(table_w.data());
  restored.LoadState(table_r);
  Value key(static_cast<int64_t>(0));
  EXPECT_DEATH(ProbeAll(restored, 0, kSecond / 2, &key),
               "block header crc mismatch");
}

TEST(StateStoreTest, ExpirePurgesSpilledBlocksWithoutLoading) {
  SpillRig rig("purge");
  rig.Fill(30);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  uint64_t loads_before = rig.store->stats().loads;
  rig.table.Expire(25 * kSecond);
  EXPECT_EQ(rig.table.size(), 5u);
  // Whole-block purge: no file was read to drop spilled blocks...
  EXPECT_EQ(rig.store->stats().loads, loads_before);
  EXPECT_GT(rig.store->stats().purged_blocks, 0u);
  // ...and their files are gone (only still-spilled blocks remain).
  EXPECT_EQ(ListDir(rig.config.spill_dir).size(),
            rig.table.num_spilled_blocks());
}

TEST(StateStoreTest, ClearReleasesEverything) {
  SpillRig rig("clear");
  rig.Fill(30);
  rig.table.Clear();
  EXPECT_EQ(rig.table.size(), 0u);
  EXPECT_EQ(rig.table.num_blocks(), 0u);
  EXPECT_TRUE(ListDir(rig.config.spill_dir).empty());
}

// --- checkpoint manifest, descriptors, GC ---

TEST(StateStoreTest, SaveLoadRoundTripsSpilledStateByReference) {
  SpillRig rig("ckpt");
  rig.Fill(40);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  std::vector<Tuple> want = ProbeAll(rig.table, 0, 100 * kSecond);
  // Spill again: the equivalence probe above loaded blocks back.
  rig.table.MaybeEvict();

  StateWriter manifest_w;
  rig.store->SaveManifest(manifest_w);
  StateWriter table_w;
  rig.table.SaveState(table_w);
  // A spilled-state checkpoint is O(hot): far smaller than the full rows.
  StateWriter full_w;
  StateTable hot_copy;
  hot_copy.set_key_field(0);
  for (const Tuple& t : want) hot_copy.Append(t);
  hot_copy.SaveState(full_w);
  EXPECT_LT(table_w.data().size(), full_w.data().size());

  // Restore into a fresh store over the same spill dir (the recovery path:
  // manifest first, then table state, then orphan GC).
  StorageConfig config2 = rig.config;
  StateStore store2(config2);
  ASSERT_TRUE(store2.Init().ok());
  StateReader manifest_r(manifest_w.data());
  store2.RestoreManifest(manifest_r);
  StateTable restored;
  restored.set_key_field(0);
  restored.Bind(&store2, nullptr);
  StateReader table_r(table_w.data());
  restored.LoadState(table_r);
  store2.GcOrphanFiles();

  std::vector<Tuple> got = ProbeAll(restored, 0, 100 * kSecond);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ToString(), want[i].ToString());
  }
}

// A table restored from checkpoint descriptors holds no directories; its
// first keyed read of each block fetches the header, and the answers equal
// the original table's without ever loading a block.
TEST(StateStoreTest, RestoredTableAnswersKeyedProbesThroughLazyDirectory) {
  SpillRig rig("lazydir");
  rig.Fill(40);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  std::vector<std::vector<std::string>> want;
  for (int k = 0; k < 6; ++k) {  // key 5 is absent
    Value key(static_cast<int64_t>(k));
    want.push_back(Render(ProbeAll(rig.table, 0, 100 * kSecond, &key)));
  }
  StateWriter manifest_w;
  rig.store->SaveManifest(manifest_w);
  StateWriter table_w;
  rig.table.SaveState(table_w);

  StateStore store2(rig.config);
  ASSERT_TRUE(store2.Init().ok());
  StateReader manifest_r(manifest_w.data());
  store2.RestoreManifest(manifest_r);
  StateTable restored;
  restored.set_key_field(0);
  restored.Bind(&store2, nullptr);
  StateReader table_r(table_w.data());
  restored.LoadState(table_r);
  store2.GcOrphanFiles();
  EXPECT_EQ(store2.stats().directory_bytes, 0u);

  for (int k = 0; k < 6; ++k) {
    Value key(static_cast<int64_t>(k));
    EXPECT_EQ(Render(ProbeAll(restored, 0, 100 * kSecond, &key)), want[k])
        << "key " << k;
  }
  StorageStats stats = store2.stats();
  EXPECT_EQ(stats.loads, 0u);
  EXPECT_EQ(stats.key_reads, rig.store->stats().key_reads);
  EXPECT_EQ(stats.directory_bytes, rig.store->stats().directory_bytes);
}

TEST(StateStoreTest, GcRemovesOrphanFilesAndKeepsClaimed) {
  SpillRig rig("gc");
  rig.Fill(40);
  ASSERT_GT(rig.table.num_spilled_blocks(), 2u);
  StateWriter table_w;
  rig.table.SaveState(table_w);
  size_t files = ListDir(rig.config.spill_dir).size();

  // A second incarnation that restores nothing: every file is an orphan.
  {
    StateStore fresh(rig.config);
    ASSERT_TRUE(fresh.Init().ok());
    StateTable t2;
    t2.Bind(&fresh, nullptr);
    fresh.GcOrphanFiles();
    EXPECT_TRUE(ListDir(rig.config.spill_dir).empty());
  }

  // Re-create the files and restore properly: all claimed files survive.
  rig.table.Clear();
  SpillRig rig2("gc2");
  rig2.Fill(40);
  StateWriter w2;
  rig2.table.SaveState(w2);
  files = ListDir(rig2.config.spill_dir).size();
  StateStore store3(rig2.config);
  ASSERT_TRUE(store3.Init().ok());
  StateTable t3;
  t3.set_key_field(0);
  t3.Bind(&store3, nullptr);
  StateReader r2(w2.data());
  t3.LoadState(r2);
  store3.GcOrphanFiles();
  EXPECT_EQ(ListDir(rig2.config.spill_dir).size(), files);
}

TEST(StateStoreTest, CheckpointPinsFilesUntilPruned) {
  SpillRig rig("pins");
  rig.Fill(20);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  // Checkpoint 1 references all currently spilled blocks.
  rig.store->OnCheckpoint(/*checkpoint_id=*/1, /*keep=*/2);
  size_t files_at_ckpt1 = ListDir(rig.config.spill_dir).size();

  // The blocks expire: their files must survive while checkpoint 1 is
  // retained (a restore from it would need them)...
  rig.table.Expire(100 * kSecond);
  EXPECT_EQ(rig.table.size(), 0u);
  EXPECT_EQ(ListDir(rig.config.spill_dir).size(), files_at_ckpt1);

  // ...and go away once keep-N pruning drops checkpoint 1.
  rig.store->OnCheckpoint(2, 2);
  rig.store->OnCheckpoint(3, 2);
  rig.store->OnCheckpoint(4, 2);
  EXPECT_TRUE(ListDir(rig.config.spill_dir).empty());
}

TEST(StateStoreTest, RestoredClaimsStayPinnedUntilNextCheckpoint) {
  SpillRig rig("restorepin");
  rig.Fill(20);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  StateWriter manifest_w;
  rig.store->SaveManifest(manifest_w);
  StateWriter table_w;
  rig.table.SaveState(table_w);

  // Incarnation 2 restores the image, then everything it restored expires
  // before any new checkpoint is written. The image on disk still
  // references those block files, so they must survive: incarnation 3
  // (a second crash) restores the same image again.
  StateStore store2(rig.config);
  ASSERT_TRUE(store2.Init().ok());
  StateReader manifest_r(manifest_w.data());
  store2.RestoreManifest(manifest_r);
  StateTable restored;
  restored.set_key_field(0);
  restored.Bind(&store2, nullptr);
  StateReader table_r(table_w.data());
  restored.LoadState(table_r);
  store2.PinRestoredClaims(/*checkpoint_id=*/7);
  store2.GcOrphanFiles();
  const size_t files_after_restore = ListDir(rig.config.spill_dir).size();
  ASSERT_GT(files_after_restore, 0u);

  restored.Expire(100 * kSecond);
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_EQ(ListDir(rig.config.spill_dir).size(), files_after_restore);

  {
    StateStore store3(rig.config);
    ASSERT_TRUE(store3.Init().ok());
    StateReader mr(manifest_w.data());
    store3.RestoreManifest(mr);
    StateTable again;
    again.set_key_field(0);
    again.Bind(&store3, nullptr);
    StateReader tr(table_w.data());
    again.LoadState(tr);
    store3.PinRestoredClaims(7);
    store3.GcOrphanFiles();
    EXPECT_EQ(ProbeAll(again, 0, 100 * kSecond).size(), 20u);
  }

  // Once the next checkpoint lands and keep-N prunes the restored image's
  // pin, the deferred unlinks finally run.
  store2.OnCheckpoint(/*checkpoint_id=*/8, /*keep=*/1);
  EXPECT_TRUE(ListDir(rig.config.spill_dir).empty());
}

// --- disk faults ---

TEST(StateStoreTest, DiskStallChargesVirtualTime) {
  SpillRig rig("stall");
  rig.Fill(30);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);

  FaultSpec fault;
  fault.kind = FaultKind::kDiskStall;
  fault.start = 0;
  fault.duration = 1000 * kSecond;
  fault.magnitude = 5 * kMillisecond;
  rig.store->ArmFault(fault, /*run_seed=*/42);

  rig.table.BeginStep(/*now=*/kSecond);
  std::vector<Tuple> rows = ProbeAll(rig.table, 0, 100 * kSecond);
  EXPECT_EQ(rows.size(), 30u);  // stalls delay, never corrupt
  Duration stalled = rig.table.TakeStall();
  EXPECT_GT(stalled, 0);
  EXPECT_EQ(stalled % (5 * kMillisecond), 0);
  EXPECT_EQ(rig.table.TakeStall(), 0);  // drained
  EXPECT_GT(rig.store->fault_events(), 0u);
  EXPECT_GT(rig.store->stats().stalls, 0u);
}

TEST(StateStoreTest, DiskStallChargesKeyedReads) {
  SpillRig rig("stallkey");
  rig.Fill(30);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);
  FaultSpec fault;
  fault.kind = FaultKind::kDiskStall;
  fault.start = 0;
  fault.duration = 1000 * kSecond;
  fault.magnitude = 5 * kMillisecond;
  rig.store->ArmFault(fault, /*run_seed=*/42);

  rig.table.BeginStep(/*now=*/kSecond);
  Value key(static_cast<int64_t>(2));
  EXPECT_EQ(ProbeAll(rig.table, 0, 100 * kSecond, &key).size(), 6u);
  StorageStats stats = rig.store->stats();
  EXPECT_EQ(stats.loads, 0u);
  ASSERT_GT(stats.key_reads, 0u);
  EXPECT_EQ(stats.stalls, stats.key_reads);
  EXPECT_EQ(rig.table.TakeStall(),
            static_cast<Duration>(stats.key_reads) * 5 * kMillisecond);
}

TEST(StateStoreTest, EvictionStallIsChargedToCallerNotVictim) {
  SpillRig rig("stallcaller");
  // A second table holding the oldest (and therefore first-evicted) blocks,
  // all hot: no MaybeEvict between appends.
  StateTable victim;
  victim.set_name("victim");
  victim.set_key_field(0);
  victim.Bind(rig.store.get(), nullptr);
  for (int i = 0; i < 10; ++i) victim.Append(Row(i * kSecond + 1, i));

  FaultSpec fault;
  fault.kind = FaultKind::kDiskStall;
  fault.start = kSecond;
  fault.duration = 1000 * kSecond;
  fault.magnitude = 5 * kMillisecond;
  rig.store->ArmFault(fault, /*run_seed=*/42);

  // Only the caller's step is inside the fault window; the victim table
  // never begins a step (its now_ stays 0, outside the window). The spill
  // penalties must land on the caller — the step actually running — not on
  // the table that happened to own the evicted blocks.
  rig.table.BeginStep(/*now=*/2 * kSecond);
  for (int i = 0; i < 10; ++i) {
    rig.table.Append(Row(100 * kSecond + i, i));
    rig.table.MaybeEvict();
  }
  EXPECT_GT(rig.store->stats().spills, 0u);
  EXPECT_GT(rig.table.TakeStall(), 0);
  EXPECT_EQ(victim.TakeStall(), 0);
}

TEST(StateStoreTest, WideProbeEvictsBehindToStayNearBudget) {
  SpillRig rig("evictbehind");
  rig.Fill(50);
  ASSERT_GT(rig.table.num_spilled_blocks(), 0u);

  // A probe spanning the whole window loads every spilled block, but must
  // not accumulate them: each is dropped again once delivered (its file is
  // still valid, so the re-drop is free), bounding peak residency by the
  // budget plus the block in flight.
  std::vector<Tuple> rows = ProbeAll(rig.table, 0, 100 * kSecond);
  ASSERT_EQ(rows.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rows[i].value(1).int64_value(), i);
  }
  const uint64_t one_row = EstimateTupleBytes(Row(0, 0, 0));
  EXPECT_LE(rig.table.hot_bytes(), rig.config.mem_budget + one_row);

  // The blocks are reloadable: a second pass delivers everything again.
  rows = ProbeAll(rig.table, 0, 100 * kSecond);
  EXPECT_EQ(rows.size(), 50u);
  EXPECT_LE(rig.table.hot_bytes(), rig.config.mem_budget + one_row);
}

TEST(StateStoreTest, DiskFailShedsUnderShedPolicy) {
  SpillRig rig("shed", /*budget=*/256, OverloadPolicy::kShedOldest);
  FaultSpec fault;
  fault.kind = FaultKind::kDiskFail;
  fault.start = 0;
  fault.duration = 1000 * kSecond;
  fault.probability = 1.0;  // every spill write fails
  rig.store->ArmFault(fault, 42);
  rig.table.BeginStep(kSecond);
  rig.Fill(30);
  StorageStats stats = rig.store->stats();
  EXPECT_GT(stats.spill_failures, 0u);
  EXPECT_GT(stats.shed_rows, 0u);
  EXPECT_LT(rig.table.size(), 30u);       // rows were shed
  EXPECT_LE(rig.table.hot_bytes(), 256u);  // but the budget held
}

TEST(StateStoreTest, DiskFailBlocksPolicyKeepsStateHotOverBudget) {
  SpillRig rig("holdhot", /*budget=*/256, OverloadPolicy::kBlockSource);
  FaultSpec fault;
  fault.kind = FaultKind::kDiskFail;
  fault.start = 0;
  fault.duration = 1000 * kSecond;
  fault.probability = 1.0;
  rig.store->ArmFault(fault, 42);
  rig.table.BeginStep(kSecond);
  rig.Fill(30);
  // Nothing shed: the store degrades to in-memory (over budget) until the
  // disk heals.
  EXPECT_EQ(rig.table.size(), 30u);
  EXPECT_GT(rig.store->stats().spill_failures, 0u);
  EXPECT_EQ(rig.store->stats().shed_rows, 0u);
  std::vector<Tuple> rows = ProbeAll(rig.table, 0, 100 * kSecond);
  EXPECT_EQ(rows.size(), 30u);
}

// --- metrics surface ---

TEST(StateStoreTest, StatsPublishToRegistry) {
  SpillRig rig("metrics");
  rig.Fill(30);
  (void)ProbeAll(rig.table, 0, 100 * kSecond);
  Value key(static_cast<int64_t>(1));
  (void)ProbeAll(rig.table, 0, 100 * kSecond, &key);
  StorageStats stats = rig.store->stats();
  EXPECT_GT(stats.hot_bytes + stats.spilled_bytes, 0u);
  EXPECT_EQ(stats.blocks_resident + stats.blocks_spilled,
            rig.table.num_blocks());
  EXPECT_GT(stats.key_reads, 0u);
  EXPECT_GT(stats.directory_bytes, 0u);
  MetricsRegistry registry;
  stats.PublishTo(&registry, "storage");
  EXPECT_EQ(registry.GetCounter("storage.key_reads")->value(),
            stats.key_reads);
  EXPECT_EQ(registry.GetGauge("storage.directory_bytes")->value(),
            static_cast<double>(stats.directory_bytes));
  EXPECT_TRUE(registry.Contains("storage.loads"));
}

// --- helpers ---

TEST(StateStoreHelpersTest, EstimateTupleBytesIsDeterministic) {
  Tuple t = Row(123, 4, 5);
  EXPECT_EQ(EstimateTupleBytes(t), EstimateTupleBytes(t));
  EXPECT_GT(EstimateTupleBytes(t), 0u);
}

TEST(StateStoreHelpersTest, HashValueConsistentWithEquality) {
  EXPECT_EQ(HashValue(Value(static_cast<int64_t>(7))),
            HashValue(Value(static_cast<int64_t>(7))));
  EXPECT_NE(HashValue(Value(static_cast<int64_t>(7))),
            HashValue(Value(static_cast<int64_t>(8))));
  EXPECT_EQ(HashValue(Value(1.5)), HashValue(Value(1.5)));
  EXPECT_EQ(HashValue(Value("abc")), HashValue(Value("abc")));
}

}  // namespace
}  // namespace dsms
