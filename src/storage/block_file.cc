#include "storage/block_file.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "recovery/crc32.h"
#include "recovery/state_codec.h"

namespace dsms {
namespace {

constexpr char kBlockMagic[8] = {'D', 'S', 'M', 'S', 'B', 'L', 'K', '2'};
/// The pre-clustering layout (one CRC over the whole row sequence). Named
/// so a spill directory left by an older build fails with a clear message.
constexpr char kRetiredMagic[8] = {'D', 'S', 'M', 'S', 'B', 'L', 'K', '1'};
/// Magic, u32 header length, u32 header crc.
constexpr size_t kPrefixBytes = 16;
/// One directory entry: u64 key hash, u32 offset, length and crc.
constexpr size_t kEntryBytes = 20;

class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

void PutEntry(StateWriter& w, const BlockGroupEntry& entry) {
  w.U64(entry.key_hash);
  w.U32(entry.offset);
  w.U32(entry.length);
  w.U32(entry.crc);
}

BlockGroupEntry GetEntry(StateReader& r) {
  BlockGroupEntry entry;
  entry.key_hash = r.U64();
  entry.offset = r.U32();
  entry.length = r.U32();
  entry.crc = r.U32();
  return entry;
}

/// Decodes a header and checks that its groups tile the group region in
/// directory order (keyed groups by ascending hash, then the unkeyed one).
bool DecodeHeader(const std::string& bytes, BlockFileContents* meta,
                  BlockDirectory* directory) {
  StateReader r(bytes);
  meta->block_id = r.U64();
  meta->bucket_start = r.Ts();
  meta->bucket_end = r.Ts();
  meta->min_ts = r.Ts();
  meta->max_ts = r.Ts();
  directory->block_id = meta->block_id;
  directory->nrows = r.U32();
  const uint32_t nkeyed = r.U32();
  if (!r.ok() || nkeyed > r.remaining() / kEntryBytes) return false;
  directory->keyed.clear();
  directory->keyed.reserve(nkeyed);
  uint64_t next_offset = 0;
  for (uint32_t i = 0; i < nkeyed; ++i) {
    BlockGroupEntry entry = GetEntry(r);
    if (entry.offset != next_offset) return false;
    if (i > 0 && entry.key_hash <= directory->keyed.back().key_hash) {
      return false;
    }
    next_offset += entry.length;
    directory->keyed.push_back(entry);
  }
  directory->unkeyed = GetEntry(r);
  return r.ok() && r.remaining() == 0 &&
         directory->unkeyed.offset == next_offset;
}

/// Decodes one group's rows, checking that positions ascend (insertion
/// order) and stay inside the block.
bool DecodeGroup(const char* data, size_t size, uint32_t nrows,
                 std::vector<BlockRow>* rows) {
  StateReader r(data, size);
  while (r.ok() && r.remaining() > 0) {
    BlockRow row;
    row.position = r.U32();
    row.tuple = r.Tup();
    if (!r.ok() || row.position >= nrows) return false;
    if (!rows->empty() && row.position <= rows->back().position) return false;
    rows->push_back(std::move(row));
  }
  return r.ok();
}

Status PreadFully(int fd, const std::string& path, uint64_t offset,
                  size_t size, std::string* out) {
  out->resize(size);
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::pread(fd, out->data() + done, size - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return InternalError(
          StrFormat("read %s: %s", path.c_str(), strerror(errno)));
    }
    if (n == 0) {
      return InternalError(StrFormat("%s: truncated block", path.c_str()));
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

Result<int> OpenForRead(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return InternalError(
        StrFormat("open %s: %s", path.c_str(), strerror(errno)));
  }
  return fd;
}

/// Reads and checks the fixed prefix and the header of an open block file,
/// and that the file ends exactly where its last group does.
Status ReadHeader(int fd, const std::string& path, BlockFileContents* meta,
                  BlockDirectory* directory) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return InternalError(
        StrFormat("stat %s: %s", path.c_str(), strerror(errno)));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < kPrefixBytes) {
    return InternalError(StrFormat("%s: not a block file", path.c_str()));
  }
  std::string prefix;
  DSMS_RETURN_IF_ERROR(PreadFully(fd, path, 0, kPrefixBytes, &prefix));
  if (memcmp(prefix.data(), kRetiredMagic, sizeof(kRetiredMagic)) == 0) {
    return InternalError(StrFormat(
        "%s: DSMSBLK1 block file; that layout is no longer readable "
        "(spill files must be DSMSBLK2)",
        path.c_str()));
  }
  if (memcmp(prefix.data(), kBlockMagic, sizeof(kBlockMagic)) != 0) {
    return InternalError(StrFormat("%s: not a block file", path.c_str()));
  }
  StateReader lengths(prefix.data() + sizeof(kBlockMagic), 8);
  const uint32_t header_len = lengths.U32();
  const uint32_t header_crc = lengths.U32();
  if (kPrefixBytes + header_len > file_size) {
    return InternalError(StrFormat("%s: truncated block", path.c_str()));
  }
  std::string header;
  DSMS_RETURN_IF_ERROR(
      PreadFully(fd, path, kPrefixBytes, header_len, &header));
  if (Crc32(header.data(), header.size()) != header_crc) {
    return InternalError(
        StrFormat("%s: block header crc mismatch", path.c_str()));
  }
  if (!DecodeHeader(header, meta, directory)) {
    return InternalError(
        StrFormat("%s: malformed block header", path.c_str()));
  }
  directory->groups_start = static_cast<uint32_t>(kPrefixBytes + header_len);
  const uint64_t groups_end = uint64_t{directory->groups_start} +
                              directory->unkeyed.offset +
                              directory->unkeyed.length;
  if (groups_end != file_size) {
    return InternalError(StrFormat("%s: truncated block", path.c_str()));
  }
  return OkStatus();
}

}  // namespace

const BlockGroupEntry* BlockDirectory::Find(uint64_t key_hash) const {
  auto it = std::lower_bound(
      keyed.begin(), keyed.end(), key_hash,
      [](const BlockGroupEntry& e, uint64_t h) { return e.key_hash < h; });
  return it != keyed.end() && it->key_hash == key_hash ? &*it : nullptr;
}

uint64_t BlockDirectory::MemoryBytes() const {
  return sizeof(BlockDirectory) + keyed.size() * sizeof(BlockGroupEntry);
}

std::string BlockFilePath(const std::string& dir, uint64_t block_id) {
  return StrFormat("%s/block-%020llu.blk", dir.c_str(),
                   static_cast<unsigned long long>(block_id));
}

bool ParseBlockFileName(const std::string& name, uint64_t* block_id) {
  // "block-" + 20 digits + ".blk"
  if (name.size() != 6 + 20 + 4) return false;
  if (name.compare(0, 6, "block-") != 0) return false;
  if (name.compare(26, 4, ".blk") != 0) return false;
  uint64_t v = 0;
  for (size_t i = 6; i < 26; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *block_id = v;
  return true;
}

Result<BlockDirectory> WriteBlockFile(
    const std::string& dir, const BlockFileContents& block,
    const std::map<uint64_t, std::vector<uint32_t>>& key_groups) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return InternalError(
        StrFormat("mkdir %s: %s", dir.c_str(), strerror(errno)));
  }
  const size_t nrows = block.rows.size();
  BlockDirectory directory;
  directory.block_id = block.block_id;
  directory.nrows = static_cast<uint32_t>(nrows);
  StateWriter groups;
  auto add_group = [&](uint64_t key_hash,
                       const std::vector<uint32_t>& positions) {
    BlockGroupEntry entry;
    entry.key_hash = key_hash;
    entry.offset = static_cast<uint32_t>(groups.data().size());
    for (uint32_t position : positions) {
      groups.U32(position);
      groups.Tup(block.rows[position]);
    }
    const size_t end = groups.data().size();
    DSMS_CHECK_LE(end, std::numeric_limits<uint32_t>::max());
    entry.length = static_cast<uint32_t>(end - entry.offset);
    entry.crc = Crc32(groups.data().data() + entry.offset, entry.length);
    return entry;
  };
  std::vector<bool> keyed(nrows, false);
  for (const auto& [key_hash, positions] : key_groups) {
    for (uint32_t position : positions) {
      DSMS_CHECK_LT(position, nrows);
      keyed[position] = true;
    }
    directory.keyed.push_back(add_group(key_hash, positions));
  }
  std::vector<uint32_t> unkeyed;
  for (uint32_t i = 0; i < nrows; ++i) {
    if (!keyed[i]) unkeyed.push_back(i);
  }
  directory.unkeyed = add_group(0, unkeyed);

  StateWriter header;
  header.U64(block.block_id);
  header.Ts(block.bucket_start);
  header.Ts(block.bucket_end);
  header.Ts(block.min_ts);
  header.Ts(block.max_ts);
  header.U32(directory.nrows);
  header.U32(static_cast<uint32_t>(directory.keyed.size()));
  for (const BlockGroupEntry& entry : directory.keyed) PutEntry(header, entry);
  PutEntry(header, directory.unkeyed);
  directory.groups_start =
      static_cast<uint32_t>(kPrefixBytes + header.data().size());

  std::string bytes(kBlockMagic, sizeof(kBlockMagic));
  StateWriter prefix;
  prefix.U32(static_cast<uint32_t>(header.data().size()));
  prefix.U32(Crc32(header.data().data(), header.data().size()));
  bytes += prefix.data();
  bytes += header.data();
  bytes += groups.data();

  const std::string final_path = BlockFilePath(dir, block.block_id);
  const std::string tmp_path = final_path + ".tmp";
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) {
    return InternalError(
        StrFormat("open %s: %s", tmp_path.c_str(), strerror(errno)));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return InternalError(
          StrFormat("write %s: %s", tmp_path.c_str(), strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  // The block must be durable before the rename publishes it: checkpoints
  // reference spilled blocks by id, so a visible-but-unflushed block would
  // break the kill -9 recovery contract the same way a torn checkpoint
  // would.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return InternalError(StrFormat("fsync: %s", strerror(errno)));
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return InternalError(
        StrFormat("rename %s: %s", final_path.c_str(), strerror(errno)));
  }
  return directory;
}

Result<BlockFileContents> ReadBlockFile(const std::string& path) {
  Result<int> opened = OpenForRead(path);
  if (!opened.ok()) return opened.status();
  ScopedFd fd(*opened);
  BlockFileContents block;
  BlockDirectory directory;
  DSMS_RETURN_IF_ERROR(ReadHeader(fd.get(), path, &block, &directory));
  std::string groups;
  DSMS_RETURN_IF_ERROR(PreadFully(
      fd.get(), path, directory.groups_start,
      size_t{directory.unkeyed.offset} + directory.unkeyed.length, &groups));
  // Scatter every group's rows back to their insertion positions.
  std::vector<Tuple> rows(directory.nrows);
  std::vector<bool> filled(directory.nrows, false);
  size_t placed = 0;
  std::vector<BlockRow> group_rows;
  auto place = [&](const BlockGroupEntry& entry) {
    const char* data = groups.data() + entry.offset;
    if (Crc32(data, entry.length) != entry.crc) {
      return InternalError(
          StrFormat("%s: block group crc mismatch", path.c_str()));
    }
    group_rows.clear();
    if (!DecodeGroup(data, entry.length, directory.nrows, &group_rows)) {
      return InternalError(
          StrFormat("%s: malformed block group", path.c_str()));
    }
    for (BlockRow& row : group_rows) {
      if (filled[row.position]) {
        return InternalError(
            StrFormat("%s: malformed block group", path.c_str()));
      }
      filled[row.position] = true;
      rows[row.position] = std::move(row.tuple);
      ++placed;
    }
    return OkStatus();
  };
  for (const BlockGroupEntry& entry : directory.keyed) {
    DSMS_RETURN_IF_ERROR(place(entry));
  }
  DSMS_RETURN_IF_ERROR(place(directory.unkeyed));
  if (placed != directory.nrows) {
    return InternalError(StrFormat("%s: malformed block body", path.c_str()));
  }
  block.rows = std::move(rows);
  return block;
}

Result<BlockDirectory> ReadBlockDirectory(const std::string& path) {
  Result<int> opened = OpenForRead(path);
  if (!opened.ok()) return opened.status();
  ScopedFd fd(*opened);
  BlockFileContents meta;
  BlockDirectory directory;
  DSMS_RETURN_IF_ERROR(ReadHeader(fd.get(), path, &meta, &directory));
  return directory;
}

Result<std::vector<BlockRow>> ReadBlockGroup(const std::string& path,
                                             const BlockDirectory& directory,
                                             const BlockGroupEntry& group) {
  Result<int> opened = OpenForRead(path);
  if (!opened.ok()) return opened.status();
  ScopedFd fd(*opened);
  std::string bytes;
  DSMS_RETURN_IF_ERROR(PreadFully(fd.get(), path,
                                  uint64_t{directory.groups_start} +
                                      group.offset,
                                  group.length, &bytes));
  if (Crc32(bytes.data(), bytes.size()) != group.crc) {
    return InternalError(
        StrFormat("%s: block group crc mismatch", path.c_str()));
  }
  std::vector<BlockRow> rows;
  if (!DecodeGroup(bytes.data(), bytes.size(), directory.nrows, &rows)) {
    return InternalError(StrFormat("%s: malformed block group", path.c_str()));
  }
  return rows;
}

Status ListBlockFiles(const std::string& dir,
                      std::vector<std::pair<uint64_t, std::string>>* out) {
  out->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return OkStatus();
    return InternalError(
        StrFormat("opendir %s: %s", dir.c_str(), strerror(errno)));
  }
  while (dirent* entry = ::readdir(d)) {
    uint64_t id = 0;
    if (ParseBlockFileName(entry->d_name, &id)) {
      out->emplace_back(id, dir + "/" + entry->d_name);
    }
  }
  ::closedir(d);
  std::sort(out->begin(), out->end());
  return OkStatus();
}

}  // namespace dsms
