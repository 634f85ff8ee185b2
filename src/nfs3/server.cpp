#include "nfs3/server.h"

#include <utility>

#include "common/logging.h"
#include "sim/sync.h"

namespace gvfs::nfs3 {
namespace {

constexpr std::uint64_t kBlockSize = 32 * 1024;

/// Encodes a status-only failure reply for any result type.
template <typename Res>
rpc::Body FailWith(Status status) {
  Res res;
  res.status = status;
  return Serialize(res);
}

}  // namespace

Nfs3Server::Nfs3Server(sim::Scheduler& sched, memfs::MemFs& fs, rpc::RpcNode& node,
                       ServerConfig config)
    : sched_(sched), fs_(fs), config_(config) {
  // The lambdas are not coroutines themselves; they forward to member
  // coroutines whose frames hold `this` plus moved-in args. The stats handle
  // is resolved once here, not per request.
  auto bind = [this, &node](Proc proc,
                            sim::Task<rpc::Body> (Nfs3Server::*method)(rpc::Body)) {
    const rpc::StatsMap::Handle stat = served_.Intern(ProcName(proc));
    node.RegisterHandler(kProgram, proc,
                         [this, stat, method](rpc::CallContext, rpc::Body args) {
                           served_.Count(stat, args.WireSize());
                           return (this->*method)(std::move(args));
                         });
  };
  bind(kGetAttr, &Nfs3Server::HandleGetAttr);
  bind(kSetAttr, &Nfs3Server::HandleSetAttr);
  bind(kLookup, &Nfs3Server::HandleLookup);
  bind(kAccess, &Nfs3Server::HandleAccess);
  bind(kRead, &Nfs3Server::HandleRead);
  bind(kWrite, &Nfs3Server::HandleWrite);
  bind(kCreate, &Nfs3Server::HandleCreate);
  bind(kMkdir, &Nfs3Server::HandleMkdir);
  bind(kRemove, &Nfs3Server::HandleRemove);
  bind(kRmdir, &Nfs3Server::HandleRmdir);
  bind(kRename, &Nfs3Server::HandleRename);
  bind(kLink, &Nfs3Server::HandleLink);
  bind(kReadDir, &Nfs3Server::HandleReadDir);
  bind(kFsStat, &Nfs3Server::HandleFsStat);
  bind(kCommit, &Nfs3Server::HandleCommit);
  node.RegisterHandler(kProgram, kNull,
                       [](rpc::CallContext, rpc::Body) -> sim::Task<rpc::Body> {
                         co_return rpc::Body{};
                       });
}

sim::Sleep Nfs3Server::Service(std::uint64_t blocks) {
  return sim::Sleep(sched_,
                    config_.service_time +
                        static_cast<Duration>(blocks) * config_.per_block_time);
}

PostOpAttr Nfs3Server::AttrOf(memfs::InodeId ino) const {
  auto attr = fs_.GetAttr(ino);
  if (!attr) return std::nullopt;
  return ToFattr(*attr);
}

sim::Task<rpc::Body> Nfs3Server::HandleGetAttr(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<GetAttrArgs>(args);
  if (!parsed) co_return FailWith<GetAttrRes>(Status::kBadHandle);
  GetAttrRes res;
  auto attr = fs_.GetAttr(parsed->object.ino);
  if (!attr) {
    res.status = FromFsError(attr.error());
  } else {
    res.attr = ToFattr(*attr);
  }
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleSetAttr(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<SetAttrArgs>(args);
  if (!parsed) co_return FailWith<SetAttrRes>(Status::kBadHandle);
  memfs::SetAttrRequest req;
  req.mode = parsed->mode;
  req.size = parsed->size;
  req.mtime = parsed->mtime;
  SetAttrRes res;
  auto attr = fs_.SetAttr(parsed->object.ino, req);
  if (!attr) {
    res.status = FromFsError(attr.error());
  } else {
    res.attr = ToFattr(*attr);
  }
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleLookup(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<LookupArgs>(args);
  if (!parsed) co_return FailWith<LookupRes>(Status::kBadHandle);
  LookupRes res;
  res.dir_attr = AttrOf(parsed->dir.ino);
  auto found = fs_.Lookup(parsed->dir.ino, parsed->name);
  if (!found) {
    res.status = FromFsError(found.error());
  } else {
    res.object = FhFor(*found);
    res.obj_attr = AttrOf(*found);
  }
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleAccess(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<AccessArgs>(args);
  if (!parsed) co_return FailWith<AccessRes>(Status::kBadHandle);
  AccessRes res;
  res.attr = AttrOf(parsed->object.ino);
  if (!res.attr.has_value()) {
    res.status = Status::kStale;
  } else {
    res.access = parsed->access;  // all requested access granted (ACL disabled)
  }
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleRead(rpc::Body args) {
  auto parsed = Parse<ReadArgs>(args);
  if (!parsed) co_return FailWith<ReadRes>(Status::kBadHandle);
  co_await Service((parsed->count + kBlockSize - 1) / kBlockSize);
  ReadRes res;
  auto data = fs_.ReadBlock(parsed->file.ino, parsed->offset, parsed->count);
  res.attr = AttrOf(parsed->file.ino);
  if (!data) {
    res.status = FromFsError(data.error());
  } else {
    res.count = static_cast<std::uint32_t>(data->data.size());
    res.eof = data->eof;
    res.data = std::move(data->data);
  }
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleWrite(rpc::Body args) {
  auto parsed = Parse<WriteArgs>(args);
  if (!parsed) co_return FailWith<WriteRes>(Status::kBadHandle);
  co_await Service((parsed->data.size() + kBlockSize - 1) / kBlockSize);
  WriteRes res;
  auto written = fs_.WriteBlock(parsed->file.ino, parsed->offset, parsed->data);
  res.attr = AttrOf(parsed->file.ino);
  if (!written) {
    res.status = FromFsError(written.error());
  } else {
    res.count = static_cast<std::uint32_t>(parsed->data.size());
    // MemFs is durable immediately; report FILE_SYNC ("synchronous access"
    // export in the paper's setup).
    res.committed = StableHow::kFileSync;
  }
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleCreate(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<CreateArgs>(args);
  if (!parsed) co_return FailWith<CreateRes>(Status::kBadHandle);
  CreateRes res;
  auto created = fs_.Create(parsed->dir.ino, parsed->name, parsed->mode);
  if (!created) {
    if (created.error() == memfs::FsError::kExist && !parsed->exclusive) {
      // UNCHECKED create of an existing name succeeds and returns it.
      auto existing = fs_.Lookup(parsed->dir.ino, parsed->name);
      if (existing) {
        res.object = FhFor(*existing);
        res.obj_attr = AttrOf(*existing);
        res.dir_attr = AttrOf(parsed->dir.ino);
        co_return Serialize(res);
      }
    }
    res.status = FromFsError(created.error());
  } else {
    res.object = FhFor(*created);
    res.obj_attr = AttrOf(*created);
  }
  res.dir_attr = AttrOf(parsed->dir.ino);
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleMkdir(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<MkdirArgs>(args);
  if (!parsed) co_return FailWith<MkdirRes>(Status::kBadHandle);
  MkdirRes res;
  auto created = fs_.Mkdir(parsed->dir.ino, parsed->name, parsed->mode);
  if (!created) {
    res.status = FromFsError(created.error());
  } else {
    res.object = FhFor(*created);
    res.obj_attr = AttrOf(*created);
  }
  res.dir_attr = AttrOf(parsed->dir.ino);
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleRemove(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<RemoveArgs>(args);
  if (!parsed) co_return FailWith<RemoveRes>(Status::kBadHandle);
  RemoveRes res;
  auto removed = fs_.Remove(parsed->dir.ino, parsed->name);
  if (!removed) res.status = FromFsError(removed.error());
  res.dir_attr = AttrOf(parsed->dir.ino);
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleRmdir(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<RmdirArgs>(args);
  if (!parsed) co_return FailWith<RmdirRes>(Status::kBadHandle);
  RmdirRes res;
  auto removed = fs_.Rmdir(parsed->dir.ino, parsed->name);
  if (!removed) res.status = FromFsError(removed.error());
  res.dir_attr = AttrOf(parsed->dir.ino);
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleRename(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<RenameArgs>(args);
  if (!parsed) co_return FailWith<RenameRes>(Status::kBadHandle);
  RenameRes res;
  auto renamed = fs_.Rename(parsed->from_dir.ino, parsed->from_name,
                            parsed->to_dir.ino, parsed->to_name);
  if (!renamed) res.status = FromFsError(renamed.error());
  res.from_dir_attr = AttrOf(parsed->from_dir.ino);
  res.to_dir_attr = AttrOf(parsed->to_dir.ino);
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleLink(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<LinkArgs>(args);
  if (!parsed) co_return FailWith<LinkRes>(Status::kBadHandle);
  LinkRes res;
  auto linked = fs_.Link(parsed->file.ino, parsed->dir.ino, parsed->name);
  if (!linked) res.status = FromFsError(linked.error());
  res.file_attr = AttrOf(parsed->file.ino);
  res.dir_attr = AttrOf(parsed->dir.ino);
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleReadDir(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<ReadDirArgs>(args);
  if (!parsed) co_return FailWith<ReadDirRes>(Status::kBadHandle);
  ReadDirRes res;
  res.dir_attr = AttrOf(parsed->dir.ino);
  auto listed = fs_.ReadDir(parsed->dir.ino, parsed->cookie, parsed->max_entries);
  if (!listed) {
    res.status = FromFsError(listed.error());
  } else {
    for (const auto& e : *listed) {
      res.entries.push_back(ReadDirEntry{e.inode, e.name, e.cookie});
    }
    res.eof = listed->size() < parsed->max_entries;
  }
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleFsStat(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<FsStatArgs>(args);
  if (!parsed) co_return FailWith<FsStatRes>(Status::kBadHandle);
  FsStatRes res;
  res.total_bytes = 1ULL << 40;
  res.used_bytes = fs_.TotalBytes();
  res.total_files = fs_.InodeCount();
  co_return Serialize(res);
}

sim::Task<rpc::Body> Nfs3Server::HandleCommit(rpc::Body args) {
  co_await Service();
  auto parsed = Parse<CommitArgs>(args);
  if (!parsed) co_return FailWith<CommitRes>(Status::kBadHandle);
  CommitRes res;
  res.attr = AttrOf(parsed->file.ino);
  if (!res.attr.has_value()) res.status = Status::kStale;
  co_return Serialize(res);
}

}  // namespace gvfs::nfs3
