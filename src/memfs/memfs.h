// In-memory inode filesystem: the storage backend exported by the simulated
// NFS server (stands in for the paper's server-side ext3 export).
//
// Supports regular files, directories, and hard links with POSIX-ish
// semantics: link counts, mtime/ctime maintenance, monotonically increasing
// inode numbers (never reused, so a stale NFS handle reliably maps to
// ESTALE), and deterministic readdir ordering.
//
// File bytes live in 32 KB refcounted blocks (common/block.h). A WRITE whose
// data covers a whole block keeps the sender's block itself, and a READ
// inside one block hands out a slice of it, so the server shares blocks with
// the caches instead of holding its own copy.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/block.h"
#include "common/expected.h"
#include "common/types.h"

namespace gvfs::memfs {

using InodeId = std::uint64_t;

enum class FsError {
  kNoEnt,     // no such file or directory
  kExist,     // name already exists
  kNotDir,    // path component is not a directory
  kIsDir,     // operation not valid on a directory
  kNotEmpty,  // directory not empty
  kStale,     // inode id no longer exists
  kInval,     // invalid argument
};

const char* FsErrorName(FsError e);

enum class FileType { kRegular, kDirectory };

struct InodeAttr {
  FileType type = FileType::kRegular;
  std::uint32_t mode = 0644;
  std::uint32_t nlink = 1;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t size = 0;
  InodeId fileid = 0;
  SimTime atime = 0;
  SimTime mtime = 0;
  SimTime ctime = 0;
};

struct DirEntry {
  std::string name;
  InodeId inode = 0;
  std::uint64_t cookie = 0;  // opaque resume position for the *next* call
};

struct ReadResult {
  Bytes data;
  bool eof = false;
};

/// Zero-copy read result: a slice of the stored block when the range lies
/// in one block, else a freshly assembled block.
struct BlockReadResult {
  BlockRef data;
  bool eof = false;
};

/// Requested attribute changes; unset fields are left alone.
struct SetAttrRequest {
  std::optional<std::uint32_t> mode;
  std::optional<std::uint64_t> size;  // truncate/extend
  std::optional<SimTime> mtime;
};

template <typename T>
using FsResult = Expected<T, FsError>;

class MemFs {
 public:
  /// `clock` supplies timestamps for ctime/mtime/atime; it must outlive the
  /// filesystem (pass the simulation clock).
  explicit MemFs(const SimTime* clock);

  InodeId root() const { return root_; }

  FsResult<InodeAttr> GetAttr(InodeId id) const;
  FsResult<InodeAttr> SetAttr(InodeId id, const SetAttrRequest& req);

  FsResult<InodeId> Lookup(InodeId dir, const std::string& name) const;

  FsResult<InodeId> Create(InodeId dir, const std::string& name, std::uint32_t mode);
  FsResult<InodeId> Mkdir(InodeId dir, const std::string& name, std::uint32_t mode);

  /// Unlinks a regular file name (decrements link count; frees at zero).
  FsResult<void> Remove(InodeId dir, const std::string& name);
  /// Removes an empty directory.
  FsResult<void> Rmdir(InodeId dir, const std::string& name);

  FsResult<void> Rename(InodeId from_dir, const std::string& from_name,
                        InodeId to_dir, const std::string& to_name);

  /// Hard link: adds `name` in `dir` referring to existing regular file.
  FsResult<void> Link(InodeId file, InodeId dir, const std::string& name);

  /// Copies the bytes out (setup and verification paths).
  FsResult<ReadResult> Read(InodeId id, std::uint64_t offset, std::uint32_t count) const;
  /// The READ data path: shares the stored block when it can.
  FsResult<BlockReadResult> ReadBlock(InodeId id, std::uint64_t offset,
                                      std::uint32_t count) const;

  /// Returns the file size after the write.
  FsResult<std::uint64_t> Write(InodeId id, std::uint64_t offset, const Bytes& data);
  /// The WRITE data path: a write covering a whole stored block adopts (a
  /// slice of) `data` as that block; partial writes copy on write.
  FsResult<std::uint64_t> WriteBlock(InodeId id, std::uint64_t offset,
                                     const BlockRef& data);

  /// Lists entries starting after `cookie` (0 = from the beginning), at most
  /// max_entries. Deterministic (name-sorted) order.
  FsResult<std::vector<DirEntry>> ReadDir(InodeId dir, std::uint64_t cookie,
                                          std::uint32_t max_entries) const;

  /// Convenience for tests/workload setup: resolves an absolute slash path.
  FsResult<InodeId> ResolvePath(const std::string& path) const;

  /// Total logical bytes of file content (the sum of file sizes; FSSTAT).
  std::uint64_t TotalBytes() const { return total_bytes_; }
  std::uint64_t InodeCount() const { return inodes_.size(); }

  /// Files are stored as refs to blocks of this many bytes.
  static constexpr std::uint64_t kBlockSize = 32 * 1024;

 private:
  /// A regular file's bytes: block i holds file bytes [i * kBlockSize,
  /// (i + 1) * kBlockSize). A block may store fewer bytes than that range
  /// (or be empty): bytes past its end, up to the file size, read as zero.
  struct Inode {
    InodeAttr attr;
    std::vector<BlockRef> blocks;            // regular files
    std::map<std::string, InodeId> entries;  // directories
  };

  SimTime Now() const { return *clock_; }

  Inode* Find(InodeId id);
  const Inode* Find(InodeId id) const;
  FsResult<Inode*> FindDir(InodeId id);
  FsResult<const Inode*> FindDir(InodeId id) const;

  InodeId NewInode(FileType type, std::uint32_t mode);
  void TouchDir(Inode& dir);
  void Unref(InodeId id);

  /// Sets a file's size: drops or trims blocks past a smaller size; a
  /// larger size reads as zeros until written.
  void Resize(Inode& node, std::uint64_t size);
  /// Copies file bytes [offset, offset + out.size()) into `out`.
  static void CopyOut(const Inode& node, std::uint64_t offset, std::uint8_t* out,
                      std::size_t len);
  /// Stores `data` at `offset`. `shared`, when non-null, holds the same
  /// bytes as `data`; whole-block writes then adopt slices of it.
  FsResult<std::uint64_t> WriteRange(InodeId id, std::uint64_t offset, ByteView data,
                                     const BlockRef* shared);

  const SimTime* clock_;
  std::map<InodeId, std::unique_ptr<Inode>> inodes_;
  InodeId next_id_ = 1;
  InodeId root_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace gvfs::memfs
