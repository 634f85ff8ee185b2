#include "afs/afs.h"

#include <algorithm>

#include "xdr/xdr.h"

namespace gvfs::afs {

using kclient::Fd;
using kclient::OpenFlags;
using kclient::VfsResult;
using nfs3::Status;

namespace {

constexpr rpc::CallOptions AfsRpc() {
  rpc::CallOptions opts;
  opts.max_retries = 20;
  return opts;
}

Bytes EncodePath(const std::string& path) {
  xdr::Encoder enc;
  enc.PutString(path);
  return enc.Take();
}

Bytes EncodePathData(const std::string& path, const Bytes& data) {
  xdr::Encoder enc;
  enc.PutString(path);
  enc.PutOpaque(data);
  return enc.Take();
}

Bytes EncodeTwoPaths(const std::string& a, const std::string& b) {
  xdr::Encoder enc;
  enc.PutString(a);
  enc.PutString(b);
  return enc.Take();
}

Bytes StatusReply(Status status) {
  xdr::Encoder enc;
  enc.PutU32(static_cast<std::uint32_t>(status));
  return enc.Take();
}

Bytes StatusAttrReply(Status status, const nfs3::Fattr& attr) {
  xdr::Encoder enc;
  enc.PutU32(static_cast<std::uint32_t>(status));
  attr.Encode(enc);
  return enc.Take();
}

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

AfsServer::AfsServer(sim::Scheduler& sched, memfs::MemFs& fs, rpc::RpcNode& node)
    : sched_(sched), fs_(fs), node_(node) {
  auto bind = [this, &node](AfsProc proc,
                            sim::Task<rpc::Body> (AfsServer::*method)(
                                rpc::CallContext, rpc::Body)) {
    node.RegisterHandler(kAfsProgram, proc,
                         [this, method](rpc::CallContext ctx, rpc::Body args) {
                           return (this->*method)(ctx, std::move(args));
                         });
  };
  bind(kFetchStatus, &AfsServer::HandleFetchStatus);
  bind(kFetchData, &AfsServer::HandleFetchData);
  bind(kStoreData, &AfsServer::HandleStoreData);
  bind(kCreateFile, &AfsServer::HandleCreate);
  bind(kRemoveFile, &AfsServer::HandleRemove);
  bind(kHardLink, &AfsServer::HandleLink);
  bind(kMakeDir, &AfsServer::HandleMkdir);
  bind(kRemoveDir, &AfsServer::HandleRmdir);
  bind(kListDir, &AfsServer::HandleListDir);
}

Expected<std::pair<memfs::InodeId, std::string>, Status> AfsServer::Parent(
    const std::string& path) const {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return Unexpected(Status::kInval);
  const std::string dir_path = path.substr(0, slash);
  const std::string leaf = path.substr(slash + 1);
  if (leaf.empty()) return Unexpected(Status::kInval);
  auto dir = dir_path.empty() ? memfs::FsResult<memfs::InodeId>(fs_.root())
                              : fs_.ResolvePath(dir_path);
  if (!dir) return Unexpected(nfs3::FromFsError(dir.error()));
  return std::pair{*dir, leaf};
}

void AfsServer::AddPromise(const std::string& path, net::Address client) {
  promises_[path].insert(client);
}

sim::Task<void> AfsServer::BreakPromises(std::string path, net::Address mutator) {
  auto it = promises_.find(path);
  if (it == promises_.end()) co_return;
  std::vector<net::Address> holders(it->second.begin(), it->second.end());
  it->second.clear();
  for (const auto& holder : holders) {
    if (holder == mutator) continue;
    ++stats_.callback_breaks;
    rpc::CallOptions opts;
    opts.label = "CBBREAK";
    opts.timeout = Seconds(2);
    opts.max_retries = 2;
    (void)co_await node_.Call(holder, kAfsProgram, kCallbackBreak,
                              EncodePath(path), std::move(opts));
  }
}

sim::Task<rpc::Body> AfsServer::HandleFetchStatus(rpc::CallContext ctx, rpc::Body args) {
  ++stats_.fetches;
  xdr::Decoder dec(args);
  auto path = dec.GetString();
  if (!path) co_return StatusReply(Status::kInval);
  const std::string p = path->Copy();
  AddPromise(p, ctx.caller);  // promise covers negative results too
  auto ino = fs_.ResolvePath(p);
  if (!ino) co_return StatusReply(nfs3::FromFsError(ino.error()));
  auto attr = fs_.GetAttr(*ino);
  if (!attr) co_return StatusReply(nfs3::FromFsError(attr.error()));
  co_return StatusAttrReply(Status::kOk, nfs3::ToFattr(*attr));
}

sim::Task<rpc::Body> AfsServer::HandleFetchData(rpc::CallContext ctx, rpc::Body args) {
  ++stats_.fetches;
  xdr::Decoder dec(args);
  auto path = dec.GetString();
  if (!path) co_return StatusReply(Status::kInval);
  const std::string p = path->Copy();
  AddPromise(p, ctx.caller);
  auto ino = fs_.ResolvePath(p);
  if (!ino) co_return StatusReply(nfs3::FromFsError(ino.error()));
  auto attr = fs_.GetAttr(*ino);
  if (!attr) co_return StatusReply(nfs3::FromFsError(attr.error()));
  auto data = fs_.Read(*ino, 0, static_cast<std::uint32_t>(attr->size));
  if (!data) co_return StatusReply(nfs3::FromFsError(data.error()));
  xdr::Encoder enc;
  enc.PutU32(static_cast<std::uint32_t>(Status::kOk));
  nfs3::ToFattr(*attr).Encode(enc);
  enc.PutOpaque(data->data);
  co_return enc.Take();
}

sim::Task<rpc::Body> AfsServer::HandleStoreData(rpc::CallContext ctx, rpc::Body args) {
  ++stats_.stores;
  xdr::Decoder dec(args);
  auto path = dec.GetString();
  auto data = path ? dec.GetOpaque()
                   : Expected<xdr::View, xdr::DecodeError>(
                         Unexpected(xdr::DecodeError::kTruncated));
  if (!path || !data) co_return StatusReply(Status::kInval);
  const std::string p = path->Copy();
  auto ino = fs_.ResolvePath(p);
  if (!ino) co_return StatusReply(nfs3::FromFsError(ino.error()));
  co_await BreakPromises(p, ctx.caller);
  memfs::SetAttrRequest trunc;
  trunc.size = 0;
  (void)fs_.SetAttr(*ino, trunc);
  auto written = fs_.Write(*ino, 0, data->Copy());
  if (!written) co_return StatusReply(nfs3::FromFsError(written.error()));
  co_return StatusReply(Status::kOk);
}

sim::Task<rpc::Body> AfsServer::HandleCreate(rpc::CallContext ctx, rpc::Body args) {
  xdr::Decoder dec(args);
  auto path = dec.GetString();
  if (!path) co_return StatusReply(Status::kInval);
  const std::string p = path->Copy();
  auto parent = Parent(p);
  if (!parent) co_return StatusReply(parent.error());
  co_await BreakPromises(p, ctx.caller);
  co_await BreakPromises(p.substr(0, p.find_last_of('/')), ctx.caller);
  auto created = fs_.Create(parent->first, parent->second, 0644);
  if (!created) co_return StatusReply(nfs3::FromFsError(created.error()));
  co_return StatusReply(Status::kOk);
}

sim::Task<rpc::Body> AfsServer::HandleRemove(rpc::CallContext ctx, rpc::Body args) {
  xdr::Decoder dec(args);
  auto path = dec.GetString();
  if (!path) co_return StatusReply(Status::kInval);
  const std::string p = path->Copy();
  auto parent = Parent(p);
  if (!parent) co_return StatusReply(parent.error());
  co_await BreakPromises(p, ctx.caller);
  co_await BreakPromises(p.substr(0, p.find_last_of('/')), ctx.caller);
  auto removed = fs_.Remove(parent->first, parent->second);
  if (!removed) co_return StatusReply(nfs3::FromFsError(removed.error()));
  co_return StatusReply(Status::kOk);
}

sim::Task<rpc::Body> AfsServer::HandleLink(rpc::CallContext ctx, rpc::Body args) {
  xdr::Decoder dec(args);
  auto target = dec.GetString();
  auto newpath = target ? dec.GetString()
                        : Expected<xdr::StrView, xdr::DecodeError>(
                              Unexpected(xdr::DecodeError::kTruncated));
  if (!target || !newpath) co_return StatusReply(Status::kInval);
  const std::string np = newpath->Copy();
  auto target_ino = fs_.ResolvePath(target->Copy());
  if (!target_ino) co_return StatusReply(nfs3::FromFsError(target_ino.error()));
  auto parent = Parent(np);
  if (!parent) co_return StatusReply(parent.error());
  co_await BreakPromises(np, ctx.caller);
  co_await BreakPromises(np.substr(0, np.find_last_of('/')), ctx.caller);
  auto linked = fs_.Link(*target_ino, parent->first, parent->second);
  if (!linked) co_return StatusReply(nfs3::FromFsError(linked.error()));
  co_return StatusReply(Status::kOk);
}

sim::Task<rpc::Body> AfsServer::HandleMkdir(rpc::CallContext ctx, rpc::Body args) {
  xdr::Decoder dec(args);
  auto path = dec.GetString();
  if (!path) co_return StatusReply(Status::kInval);
  const std::string p = path->Copy();
  auto parent = Parent(p);
  if (!parent) co_return StatusReply(parent.error());
  co_await BreakPromises(p, ctx.caller);
  auto made = fs_.Mkdir(parent->first, parent->second, 0755);
  if (!made) co_return StatusReply(nfs3::FromFsError(made.error()));
  co_return StatusReply(Status::kOk);
}

sim::Task<rpc::Body> AfsServer::HandleRmdir(rpc::CallContext ctx, rpc::Body args) {
  xdr::Decoder dec(args);
  auto path = dec.GetString();
  if (!path) co_return StatusReply(Status::kInval);
  const std::string p = path->Copy();
  auto parent = Parent(p);
  if (!parent) co_return StatusReply(parent.error());
  co_await BreakPromises(p, ctx.caller);
  auto removed = fs_.Rmdir(parent->first, parent->second);
  if (!removed) co_return StatusReply(nfs3::FromFsError(removed.error()));
  co_return StatusReply(Status::kOk);
}

sim::Task<rpc::Body> AfsServer::HandleListDir(rpc::CallContext ctx, rpc::Body args) {
  xdr::Decoder dec(args);
  auto path = dec.GetString();
  if (!path) co_return StatusReply(Status::kInval);
  const std::string p = path->Copy();
  AddPromise(p, ctx.caller);
  auto ino = p.empty() || p == "/" ? memfs::FsResult<memfs::InodeId>(fs_.root())
                                   : fs_.ResolvePath(p);
  if (!ino) co_return StatusReply(nfs3::FromFsError(ino.error()));
  auto entries = fs_.ReadDir(*ino, 0, 100000);
  if (!entries) co_return StatusReply(nfs3::FromFsError(entries.error()));
  xdr::Encoder enc;
  enc.PutU32(static_cast<std::uint32_t>(Status::kOk));
  enc.PutU32(static_cast<std::uint32_t>(entries->size()));
  for (const auto& entry : *entries) enc.PutString(entry.name);
  co_return enc.Take();
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

AfsClient::AfsClient(sim::Scheduler& sched, rpc::RpcNode& node, net::Address server)
    : sched_(sched), node_(node), server_(server) {
  node.RegisterHandler(kAfsProgram, kCallbackBreak,
                       [this](rpc::CallContext ctx, rpc::Body args) {
                         return HandleCallbackBreak(ctx, std::move(args));
                       });
}

sim::Task<rpc::Body> AfsClient::HandleCallbackBreak(rpc::CallContext, rpc::Body args) {
  ++breaks_received_;
  xdr::Decoder dec(args);
  auto path = dec.GetString();
  if (path) {
    const std::string p = path->Copy();
    status_cache_.erase(p);
    auto file = file_cache_.find(p);
    if (file != file_cache_.end()) file->second.valid = false;
  }
  co_return Bytes{};
}

sim::Task<VfsResult<AfsClient::CachedStatus>> AfsClient::FetchStatus(
    std::string path) {
  auto cached = status_cache_.find(path);
  if (cached != status_cache_.end()) {
    ++status_hits_;
    co_return cached->second;
  }
  rpc::CallOptions opts = AfsRpc();
  opts.label = "FETCHSTATUS";
  auto reply = co_await node_.Call(server_, kAfsProgram, kFetchStatus,
                                   EncodePath(path), std::move(opts));
  if (!reply) co_return Unexpected(Status::kIo);
  xdr::Decoder dec(*reply);
  auto status = dec.GetU32();
  if (!status) co_return Unexpected(Status::kIo);
  CachedStatus result;
  if (static_cast<Status>(*status) == Status::kOk) {
    auto attr = nfs3::Fattr::Decode(dec);
    if (!attr) co_return Unexpected(Status::kIo);
    result.exists = true;
    result.attr = *attr;
  } else if (static_cast<Status>(*status) != Status::kNoEnt) {
    co_return Unexpected(static_cast<Status>(*status));
  }
  status_cache_[path] = result;  // positive or negative, promise-backed
  co_return result;
}

sim::Task<VfsResult<Fd>> AfsClient::Open(std::string path, OpenFlags flags) {
  auto status = co_await FetchStatus(path);
  if (!status) co_return Unexpected(status.error());

  if (!status->exists) {
    if (!flags.create) co_return Unexpected(Status::kNoEnt);
    rpc::CallOptions opts = AfsRpc();
    opts.label = "CREATE";
    auto reply = co_await node_.Call(server_, kAfsProgram, kCreateFile,
                                     EncodePath(path), std::move(opts));
    if (!reply) co_return Unexpected(Status::kIo);
    xdr::Decoder dec(*reply);
    auto result = dec.GetU32();
    if (!result) co_return Unexpected(Status::kIo);
    if (static_cast<Status>(*result) != Status::kOk) {
      co_return Unexpected(static_cast<Status>(*result));
    }
    status_cache_.erase(path);
    file_cache_[path] = CachedFile{{}, true};
  } else if (flags.exclusive && flags.create) {
    co_return Unexpected(Status::kExist);
  } else {
    // Whole-file fetch on open (unless the cached copy is still promised).
    auto cached = file_cache_.find(path);
    if (cached == file_cache_.end() || !cached->second.valid) {
      rpc::CallOptions opts = AfsRpc();
      opts.label = "FETCHDATA";
      auto reply = co_await node_.Call(server_, kAfsProgram, kFetchData,
                                       EncodePath(path), std::move(opts));
      if (!reply) co_return Unexpected(Status::kIo);
      xdr::Decoder dec(*reply);
      auto result = dec.GetU32();
      if (!result) co_return Unexpected(Status::kIo);
      if (static_cast<Status>(*result) != Status::kOk) {
        co_return Unexpected(static_cast<Status>(*result));
      }
      auto attr = nfs3::Fattr::Decode(dec);
      auto data = dec.GetOpaque();
      if (!attr || !data) co_return Unexpected(Status::kIo);
      file_cache_[path] = CachedFile{data->Copy(), true};
    }
  }

  if (flags.truncate) {
    file_cache_[path].data.clear();
  }
  const Fd fd = next_fd_++;
  open_files_[fd] = OpenFile{path, flags.write, flags.truncate};
  co_return fd;
}

sim::Task<VfsResult<void>> AfsClient::Close(Fd fd) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Unexpected(Status::kInval);
  OpenFile file = it->second;
  open_files_.erase(it);
  if (file.dirty) {
    // Store-on-close: ship the whole file back.
    rpc::CallOptions opts = AfsRpc();
    opts.label = "STOREDATA";
    auto reply = co_await node_.Call(
        server_, kAfsProgram, kStoreData,
        EncodePathData(file.path, file_cache_[file.path].data), std::move(opts));
    if (!reply) co_return Unexpected(Status::kIo);
    status_cache_.erase(file.path);  // size/mtime changed
  }
  co_return Ok{};
}

sim::Task<VfsResult<Bytes>> AfsClient::Read(Fd fd, std::uint64_t offset,
                                            std::uint32_t count) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Unexpected(Status::kInval);
  const Bytes& data = file_cache_[it->second.path].data;
  if (offset >= data.size()) co_return Bytes{};
  const std::uint64_t end = std::min<std::uint64_t>(offset + count, data.size());
  co_return Bytes(data.begin() + static_cast<std::ptrdiff_t>(offset),
                  data.begin() + static_cast<std::ptrdiff_t>(end));
}

sim::Task<VfsResult<std::uint32_t>> AfsClient::Write(Fd fd, std::uint64_t offset,
                                                     const Bytes& data) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Unexpected(Status::kInval);
  if (!it->second.writable) co_return Unexpected(Status::kAccess);
  Bytes& dst = file_cache_[it->second.path].data;
  if (dst.size() < offset + data.size()) dst.resize(offset + data.size(), 0);
  std::copy(data.begin(), data.end(),
            dst.begin() + static_cast<std::ptrdiff_t>(offset));
  it->second.dirty = true;
  co_return static_cast<std::uint32_t>(data.size());
}

sim::Task<VfsResult<nfs3::Fattr>> AfsClient::Stat(std::string path) {
  auto status = co_await FetchStatus(std::move(path));
  if (!status) co_return Unexpected(status.error());
  if (!status->exists) co_return Unexpected(Status::kNoEnt);
  co_return status->attr;
}

sim::Task<VfsResult<bool>> AfsClient::Exists(std::string path) {
  auto status = co_await FetchStatus(std::move(path));
  if (!status) co_return Unexpected(status.error());
  co_return status->exists;
}

namespace {

/// Shared helper for the path-only mutation RPCs.
sim::Task<VfsResult<void>> PathOp(rpc::RpcNode* node, net::Address server,
                                  AfsProc proc, Bytes args, const char* label) {
  rpc::CallOptions opts = AfsRpc();
  opts.label = label;
  auto reply = co_await node->Call(server, kAfsProgram, proc, std::move(args), std::move(opts));
  if (!reply) co_return Unexpected(Status::kIo);
  xdr::Decoder dec(*reply);
  auto status = dec.GetU32();
  if (!status) co_return Unexpected(Status::kIo);
  if (static_cast<Status>(*status) != Status::kOk) {
    co_return Unexpected(static_cast<Status>(*status));
  }
  co_return Ok{};
}

}  // namespace

sim::Task<VfsResult<void>> AfsClient::Unlink(std::string path) {
  status_cache_.erase(path);
  file_cache_.erase(path);
  co_return co_await PathOp(&node_, server_, kRemoveFile, EncodePath(path), "REMOVE");
}

sim::Task<VfsResult<void>> AfsClient::Mkdir(std::string path) {
  co_return co_await PathOp(&node_, server_, kMakeDir, EncodePath(path), "MKDIR");
}

sim::Task<VfsResult<void>> AfsClient::Rmdir(std::string path) {
  status_cache_.erase(path);
  co_return co_await PathOp(&node_, server_, kRemoveDir, EncodePath(path), "RMDIR");
}

sim::Task<VfsResult<void>> AfsClient::Link(std::string target_path,
                                           std::string new_path) {
  status_cache_.erase(new_path);
  co_return co_await PathOp(&node_, server_, kHardLink,
                            EncodeTwoPaths(target_path, new_path), "LINK");
}

sim::Task<VfsResult<void>> AfsClient::Rename(std::string, std::string) {
  co_return Unexpected(Status::kNotSupp);
}

sim::Task<VfsResult<std::vector<std::string>>> AfsClient::ReadDir(
    const std::string& path) {
  rpc::CallOptions opts = AfsRpc();
  opts.label = "LISTDIR";
  auto reply =
      co_await node_.Call(server_, kAfsProgram, kListDir, EncodePath(path), std::move(opts));
  if (!reply) co_return Unexpected(Status::kIo);
  xdr::Decoder dec(*reply);
  auto status = dec.GetU32();
  if (!status) co_return Unexpected(Status::kIo);
  if (static_cast<Status>(*status) != Status::kOk) {
    co_return Unexpected(static_cast<Status>(*status));
  }
  auto count = dec.GetU32();
  if (!count) co_return Unexpected(Status::kIo);
  std::vector<std::string> names;
  names.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto name = dec.GetString();
    if (!name) co_return Unexpected(Status::kIo);
    names.push_back(name->Copy());
  }
  co_return names;
}

}  // namespace gvfs::afs
