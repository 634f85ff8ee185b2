// The kernel NFSv3 server: serves the full procedure set over an RpcNode,
// backed by a MemFs export. Stands in for the paper's kernel nfsd; the GVFS
// proxy server (src/gvfs) forwards to it over the server host's loopback.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "memfs/memfs.h"
#include "nfs3/proto.h"
#include "rpc/rpc.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace gvfs::nfs3 {

struct ServerConfig {
  /// CPU + disk time charged per request before the reply is produced.
  Duration service_time = Microseconds(100);
  /// Additional service time per 32 KB block moved by READ/WRITE.
  Duration per_block_time = Microseconds(50);
  /// Filesystem id stamped into every handle this server hands out.
  std::uint64_t fsid = 1;
};

class Nfs3Server {
 public:
  /// Registers handlers for all supported procedures on `node`. The server
  /// must outlive the node's last in-flight request.
  Nfs3Server(sim::Scheduler& sched, memfs::MemFs& fs, rpc::RpcNode& node,
             ServerConfig config = {});

  /// The exported root handle clients mount.
  Fh RootFh() const { return FhFor(fs_.root()); }

  Fh FhFor(memfs::InodeId ino) const { return Fh{config_.fsid, ino}; }

  memfs::MemFs& fs() { return fs_; }
  const ServerConfig& config() const { return config_; }

  /// Total requests served, by procedure (server-side view).
  const rpc::StatsMap& served() const { return served_; }

 private:
  sim::Task<rpc::Body> HandleGetAttr(rpc::Body args);
  sim::Task<rpc::Body> HandleSetAttr(rpc::Body args);
  sim::Task<rpc::Body> HandleLookup(rpc::Body args);
  sim::Task<rpc::Body> HandleAccess(rpc::Body args);
  sim::Task<rpc::Body> HandleRead(rpc::Body args);
  sim::Task<rpc::Body> HandleWrite(rpc::Body args);
  sim::Task<rpc::Body> HandleCreate(rpc::Body args);
  sim::Task<rpc::Body> HandleMkdir(rpc::Body args);
  sim::Task<rpc::Body> HandleRemove(rpc::Body args);
  sim::Task<rpc::Body> HandleRmdir(rpc::Body args);
  sim::Task<rpc::Body> HandleRename(rpc::Body args);
  sim::Task<rpc::Body> HandleLink(rpc::Body args);
  sim::Task<rpc::Body> HandleReadDir(rpc::Body args);
  sim::Task<rpc::Body> HandleFsStat(rpc::Body args);
  sim::Task<rpc::Body> HandleCommit(rpc::Body args);

  /// Charges base service time (plus per-block time for `blocks` blocks).
  /// Returns the Sleep awaitable directly — a full coroutine frame per
  /// request just to forward one sleep would be pure overhead.
  sim::Sleep Service(std::uint64_t blocks = 0);

  PostOpAttr AttrOf(memfs::InodeId ino) const;

  sim::Scheduler& sched_;
  memfs::MemFs& fs_;
  ServerConfig config_;
  rpc::StatsMap served_;
};

}  // namespace gvfs::nfs3
