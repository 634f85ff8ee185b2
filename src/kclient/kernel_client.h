// Kernel NFSv3 client emulation.
//
// Models the client-side machinery whose WAN cost the paper measures:
//  - attribute cache with a fixed revalidation period (`actimeo`, paper: 30 s)
//    or disabled entirely (`noac`),
//  - lookup (dnlc) cache whose entries are validated against the cached
//    directory mtime,
//  - a block page cache (32 KB blocks) invalidated when a file's server
//    mtime changes,
//  - close-to-open semantics: GETATTR revalidation on open, write-back of
//    dirty pages (WRITE + COMMIT) on close.
//
// The same class is used for native NFS (pointed at the remote server) and
// for GVFS (pointed at the local user-level proxy client).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "common/block.h"
#include "common/expected.h"
#include "common/types.h"
#include "kclient/vfs.h"
#include "nfs3/client.h"
#include "nfs3/proto.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace gvfs::kclient {

struct MountOptions {
  MountOptions() = default;
  MountOptions(const MountOptions&) = default;
  MountOptions(MountOptions&&) noexcept = default;
  MountOptions& operator=(const MountOptions&) = default;
  MountOptions& operator=(MountOptions&&) noexcept = default;

  /// Attribute cache validity period (actimeo). Ignored when noac is set.
  Duration attr_timeout = Seconds(30);
  /// Disable the attribute cache entirely ("-o noac").
  bool noac = false;
  /// Close-to-open consistency: revalidate attributes on open, flush on close.
  bool close_to_open = true;
  /// READ/WRITE transfer size.
  std::uint32_t io_size = 32 * 1024;
  /// Bounded client memory caches (the proxy's disk cache is much larger —
  /// the asymmetry the paper exploits).
  std::size_t max_attr_entries = 512;
  std::size_t max_dnlc_entries = 512;
  // The paper's clients are 256 MB VMs; the page cache gets a fraction.
  std::size_t max_cached_bytes = 160ull * 1024 * 1024;
  /// RPC knobs applied to every call. Defaults to hard-mount semantics
  /// (generous retransmission) as in the paper's setup.
  rpc::CallOptions rpc = HardMountRpc();

  static rpc::CallOptions HardMountRpc() {
    rpc::CallOptions opts;
    opts.max_retries = 100;
    return opts;
  }
};

/// Client-side cache counters, used by tests and the experiment harnesses.
struct ClientStats {
  std::uint64_t attr_hits = 0;
  std::uint64_t attr_misses = 0;
  std::uint64_t dnlc_hits = 0;
  std::uint64_t dnlc_misses = 0;
  std::uint64_t page_hits = 0;
  std::uint64_t page_misses = 0;
};

class KernelClient : public Vfs {
 public:
  KernelClient(sim::Scheduler& sched, rpc::RpcNode& node, net::Address server,
               nfs3::Fh root, MountOptions options = {});

  // --- POSIX-ish surface (paths are absolute within the mount, "/a/b") ---

  sim::Task<VfsResult<Fd>> Open(std::string path, OpenFlags flags) override;
  sim::Task<VfsResult<void>> Close(Fd fd) override;
  /// Reads up to `count` bytes at `offset`; short only at EOF.
  sim::Task<VfsResult<Bytes>> Read(Fd fd, std::uint64_t offset, std::uint32_t count) override;
  sim::Task<VfsResult<std::uint32_t>> Write(Fd fd, std::uint64_t offset,
                                            const Bytes& data) override;
  /// Flushes this file's dirty pages to the server (fsync).
  sim::Task<VfsResult<void>> Fsync(Fd fd);

  sim::Task<VfsResult<nfs3::Fattr>> Stat(std::string path) override;
  sim::Task<VfsResult<bool>> Exists(std::string path) override;
  sim::Task<VfsResult<void>> Unlink(std::string path) override;
  sim::Task<VfsResult<void>> Mkdir(std::string path) override;
  sim::Task<VfsResult<void>> Rmdir(std::string path) override;
  /// Hard link: new_path -> existing target.
  sim::Task<VfsResult<void>> Link(std::string target_path,
                                  std::string new_path) override;
  sim::Task<VfsResult<void>> Rename(std::string from, std::string to) override;
  sim::Task<VfsResult<std::vector<std::string>>> ReadDir(const std::string& path) override;

  // --- cache management / introspection ---

  /// Simulates `umount && mount` + dropped caches (cold start).
  void DropCaches();

  const ClientStats& stats() const { return stats_; }
  const MountOptions& options() const { return options_; }
  std::size_t CachedBytes() const { return cached_bytes_; }
  std::size_t OpenFileCount() const { return open_files_.size(); }

 private:
  struct AttrEntry {
    nfs3::Fattr attr;
    SimTime fetched_at = 0;
  };

  struct DnlcEntry {
    nfs3::Fh child;
    SimTime dir_mtime_seen = 0;
  };

  /// A page-cache block: shared with the WRITE that flushes it and the
  /// READ reply that filled it; application writes copy on write.
  struct CachedBlock {
    BlockRef data;
    bool dirty = false;
  };

  struct FileCache {
    SimTime mtime_seen = 0;
    std::uint64_t size_seen = 0;
    std::map<std::uint64_t, CachedBlock> blocks;  // block index -> block
  };

  struct OpenFile {
    nfs3::Fh fh;
    OpenFlags flags;
  };

  using DnlcKey = std::pair<nfs3::Fh, std::string>;

  // -- attribute cache --
  bool AttrFresh(const nfs3::Fh& fh) const;
  const nfs3::Fattr* CachedAttr(const nfs3::Fh& fh) const;
  /// Installs freshly fetched attributes; detects data-cache staleness.
  void StoreAttr(const nfs3::Fh& fh, const nfs3::Fattr& attr, bool own_write);
  void StoreAttr(const nfs3::Fh& fh, const nfs3::PostOpAttr& attr, bool own_write);
  void InvalidateAttr(const nfs3::Fh& fh);
  /// Returns fresh attributes, via cache or GETATTR RPC.
  sim::Task<VfsResult<nfs3::Fattr>> GetAttr(nfs3::Fh fh, bool force_fresh);

  // -- name cache --
  sim::Task<VfsResult<nfs3::Fh>> LookupChild(nfs3::Fh dir, std::string name);
  /// Resolves all components; on success the final Fh.
  sim::Task<VfsResult<nfs3::Fh>> ResolvePath(std::string path);
  /// Resolves the parent directory; returns (dir fh) and sets leaf name.
  sim::Task<VfsResult<nfs3::Fh>> ResolveParent(std::string path, std::string* leaf);
  void StoreDnlc(const nfs3::Fh& dir, const std::string& name, const nfs3::Fh& child);
  void DropDnlc(const nfs3::Fh& dir, const std::string& name);

  // -- page cache --
  void DropFileData(const nfs3::Fh& fh);
  void EvictIfNeeded();

  // -- write-back --
  sim::Task<VfsResult<void>> FlushFile(nfs3::Fh fh);

  static std::vector<std::string> SplitPath(const std::string& path);

  sim::Scheduler& sched_;
  nfs3::Nfs3Client client_;
  nfs3::Fh root_;
  MountOptions options_;

  std::map<nfs3::Fh, AttrEntry> attr_cache_;
  std::map<DnlcKey, DnlcEntry> dnlc_;
  std::map<nfs3::Fh, FileCache> file_cache_;
  std::size_t cached_bytes_ = 0;
  // LRU order of (fh, block) for eviction of clean blocks.
  std::list<std::pair<nfs3::Fh, std::uint64_t>> lru_;

  std::map<Fd, OpenFile> open_files_;
  Fd next_fd_ = 3;

  ClientStats stats_;
};

}  // namespace gvfs::kclient
