#include "nfs3/proto.h"

namespace gvfs::nfs3 {

// Decode helper: extract or propagate the decode error.
#define GVFS_TRY(var, expr)                           \
  auto var##_result = (expr);                         \
  if (!var##_result) return Unexpected(var##_result.error()); \
  auto var = std::move(*var##_result)

const char* ProcName(std::uint32_t proc) {
  switch (proc) {
    case kNull:
      return "NULL";
    case kGetAttr:
      return "GETATTR";
    case kSetAttr:
      return "SETATTR";
    case kLookup:
      return "LOOKUP";
    case kAccess:
      return "ACCESS";
    case kRead:
      return "READ";
    case kWrite:
      return "WRITE";
    case kCreate:
      return "CREATE";
    case kMkdir:
      return "MKDIR";
    case kRemove:
      return "REMOVE";
    case kRmdir:
      return "RMDIR";
    case kRename:
      return "RENAME";
    case kLink:
      return "LINK";
    case kReadDir:
      return "READDIR";
    case kFsStat:
      return "FSSTAT";
    case kCommit:
      return "COMMIT";
  }
  return "UNKNOWN";
}

const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk:
      return "NFS3_OK";
    case Status::kPerm:
      return "NFS3ERR_PERM";
    case Status::kNoEnt:
      return "NFS3ERR_NOENT";
    case Status::kIo:
      return "NFS3ERR_IO";
    case Status::kAccess:
      return "NFS3ERR_ACCES";
    case Status::kExist:
      return "NFS3ERR_EXIST";
    case Status::kNotDir:
      return "NFS3ERR_NOTDIR";
    case Status::kIsDir:
      return "NFS3ERR_ISDIR";
    case Status::kInval:
      return "NFS3ERR_INVAL";
    case Status::kNotEmpty:
      return "NFS3ERR_NOTEMPTY";
    case Status::kStale:
      return "NFS3ERR_STALE";
    case Status::kBadHandle:
      return "NFS3ERR_BADHANDLE";
    case Status::kNotSupp:
      return "NFS3ERR_NOTSUPP";
    case Status::kServerFault:
      return "NFS3ERR_SERVERFAULT";
  }
  return "?";
}

Status FromFsError(memfs::FsError e) {
  switch (e) {
    case memfs::FsError::kNoEnt:
      return Status::kNoEnt;
    case memfs::FsError::kExist:
      return Status::kExist;
    case memfs::FsError::kNotDir:
      return Status::kNotDir;
    case memfs::FsError::kIsDir:
      return Status::kIsDir;
    case memfs::FsError::kNotEmpty:
      return Status::kNotEmpty;
    case memfs::FsError::kStale:
      return Status::kStale;
    case memfs::FsError::kInval:
      return Status::kInval;
  }
  return Status::kServerFault;
}

DecodeResult<Fh> Fh::Decode(xdr::Decoder& dec) {
  GVFS_TRY(fsid, dec.GetU64());
  GVFS_TRY(ino, dec.GetU64());
  return Fh{fsid, ino};
}

// Fattr rides in nearly every reply, so its fixed 60-byte layout is encoded
// and decoded through one reserved window — a single capacity/bounds check
// for all ten fields. Wire format is identical to per-field Puts/Gets.
void Fattr::Encode(xdr::Encoder& enc) const {
  std::uint8_t* p = enc.Reserve(60);
  xdr::Encoder::StoreBe32(p, static_cast<std::uint32_t>(type));
  xdr::Encoder::StoreBe32(p + 4, mode);
  xdr::Encoder::StoreBe32(p + 8, nlink);
  xdr::Encoder::StoreBe32(p + 12, uid);
  xdr::Encoder::StoreBe32(p + 16, gid);
  xdr::Encoder::StoreBe64(p + 20, size);
  xdr::Encoder::StoreBe64(p + 28, fileid);
  xdr::Encoder::StoreBe64(p + 36, static_cast<std::uint64_t>(atime));
  xdr::Encoder::StoreBe64(p + 44, static_cast<std::uint64_t>(mtime));
  xdr::Encoder::StoreBe64(p + 52, static_cast<std::uint64_t>(ctime));
}

DecodeResult<Fattr> Fattr::Decode(xdr::Decoder& dec) {
  const std::uint8_t* p = dec.GetRaw(60);
  if (p == nullptr) return Unexpected(xdr::DecodeError::kTruncated);
  Fattr out;
  out.type = static_cast<FType>(xdr::Decoder::LoadBe32(p));
  out.mode = xdr::Decoder::LoadBe32(p + 4);
  out.nlink = xdr::Decoder::LoadBe32(p + 8);
  out.uid = xdr::Decoder::LoadBe32(p + 12);
  out.gid = xdr::Decoder::LoadBe32(p + 16);
  out.size = xdr::Decoder::LoadBe64(p + 20);
  out.fileid = xdr::Decoder::LoadBe64(p + 28);
  out.atime = static_cast<SimTime>(xdr::Decoder::LoadBe64(p + 36));
  out.mtime = static_cast<SimTime>(xdr::Decoder::LoadBe64(p + 44));
  out.ctime = static_cast<SimTime>(xdr::Decoder::LoadBe64(p + 52));
  return out;
}

Fattr ToFattr(const memfs::InodeAttr& attr) {
  Fattr out;
  out.type = attr.type == memfs::FileType::kDirectory ? FType::kDir : FType::kReg;
  out.mode = attr.mode;
  out.nlink = attr.nlink;
  out.uid = attr.uid;
  out.gid = attr.gid;
  out.size = attr.size;
  out.fileid = attr.fileid;
  out.atime = attr.atime;
  out.mtime = attr.mtime;
  out.ctime = attr.ctime;
  return out;
}

void EncodePostOp(xdr::Encoder& enc, const PostOpAttr& attr) {
  enc.PutBool(attr.has_value());
  if (attr.has_value()) attr->Encode(enc);
}

DecodeResult<PostOpAttr> DecodePostOp(xdr::Decoder& dec) {
  GVFS_TRY(present, dec.GetBool());
  if (!present) return PostOpAttr{};
  GVFS_TRY(attr, Fattr::Decode(dec));
  return PostOpAttr{attr};
}

namespace {

void EncodeStatus(xdr::Encoder& enc, Status s) {
  enc.PutU32(static_cast<std::uint32_t>(s));
}

DecodeResult<Status> DecodeStatus(xdr::Decoder& dec) {
  GVFS_TRY(raw, dec.GetU32());
  return static_cast<Status>(raw);
}

}  // namespace

DecodeResult<GetAttrArgs> GetAttrArgs::Decode(xdr::Decoder& dec) {
  GVFS_TRY(fh, Fh::Decode(dec));
  return GetAttrArgs{fh};
}

void GetAttrRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  if (status == Status::kOk) attr.Encode(enc);
}

DecodeResult<GetAttrRes> GetAttrRes::Decode(xdr::Decoder& dec) {
  GetAttrRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  if (status == Status::kOk) {
    GVFS_TRY(attr, Fattr::Decode(dec));
    out.attr = attr;
  }
  return out;
}

void SetAttrArgs::Encode(xdr::Encoder& enc) const {
  object.Encode(enc);
  enc.PutBool(mode.has_value());
  if (mode) enc.PutU32(*mode);
  enc.PutBool(size.has_value());
  if (size) enc.PutU64(*size);
  enc.PutBool(mtime.has_value());
  if (mtime) enc.PutI64(*mtime);
}

DecodeResult<SetAttrArgs> SetAttrArgs::Decode(xdr::Decoder& dec) {
  SetAttrArgs out;
  GVFS_TRY(fh, Fh::Decode(dec));
  out.object = fh;
  GVFS_TRY(has_mode, dec.GetBool());
  if (has_mode) {
    GVFS_TRY(mode, dec.GetU32());
    out.mode = mode;
  }
  GVFS_TRY(has_size, dec.GetBool());
  if (has_size) {
    GVFS_TRY(size, dec.GetU64());
    out.size = size;
  }
  GVFS_TRY(has_mtime, dec.GetBool());
  if (has_mtime) {
    GVFS_TRY(mtime, dec.GetI64());
    out.mtime = mtime;
  }
  return out;
}

void SetAttrRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  EncodePostOp(enc, attr);
}

DecodeResult<SetAttrRes> SetAttrRes::Decode(xdr::Decoder& dec) {
  SetAttrRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  GVFS_TRY(attr, DecodePostOp(dec));
  out.attr = attr;
  return out;
}

void LookupArgs::Encode(xdr::Encoder& enc) const {
  dir.Encode(enc);
  enc.PutString(name);
}

DecodeResult<LookupArgs> LookupArgs::Decode(xdr::Decoder& dec) {
  LookupArgs out;
  GVFS_TRY(fh, Fh::Decode(dec));
  out.dir = fh;
  GVFS_TRY(name, dec.GetString());
  out.name = name.Copy();
  return out;
}

void LookupRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  if (status == Status::kOk) object.Encode(enc);
  EncodePostOp(enc, obj_attr);
  EncodePostOp(enc, dir_attr);
}

DecodeResult<LookupRes> LookupRes::Decode(xdr::Decoder& dec) {
  LookupRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  if (status == Status::kOk) {
    GVFS_TRY(fh, Fh::Decode(dec));
    out.object = fh;
  }
  GVFS_TRY(obj_attr, DecodePostOp(dec));
  out.obj_attr = obj_attr;
  GVFS_TRY(dir_attr, DecodePostOp(dec));
  out.dir_attr = dir_attr;
  return out;
}

void AccessArgs::Encode(xdr::Encoder& enc) const {
  object.Encode(enc);
  enc.PutU32(access);
}

DecodeResult<AccessArgs> AccessArgs::Decode(xdr::Decoder& dec) {
  AccessArgs out;
  GVFS_TRY(fh, Fh::Decode(dec));
  out.object = fh;
  GVFS_TRY(access, dec.GetU32());
  out.access = access;
  return out;
}

void AccessRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  EncodePostOp(enc, attr);
  enc.PutU32(access);
}

DecodeResult<AccessRes> AccessRes::Decode(xdr::Decoder& dec) {
  AccessRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  GVFS_TRY(attr, DecodePostOp(dec));
  out.attr = attr;
  GVFS_TRY(access, dec.GetU32());
  out.access = access;
  return out;
}

void ReadArgs::Encode(xdr::Encoder& enc) const {
  file.Encode(enc);
  enc.PutU64(offset);
  enc.PutU32(count);
}

DecodeResult<ReadArgs> ReadArgs::Decode(xdr::Decoder& dec) {
  ReadArgs out;
  GVFS_TRY(fh, Fh::Decode(dec));
  out.file = fh;
  GVFS_TRY(offset, dec.GetU64());
  out.offset = offset;
  GVFS_TRY(count, dec.GetU32());
  out.count = count;
  return out;
}

void ReadRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  EncodePostOp(enc, attr);
  if (status == Status::kOk) {
    enc.PutU32(count);
    enc.PutBool(eof);
    enc.PutBlock(data);
  }
}

DecodeResult<ReadRes> ReadRes::Decode(xdr::Decoder& dec) {
  ReadRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  GVFS_TRY(attr, DecodePostOp(dec));
  out.attr = attr;
  if (status == Status::kOk) {
    GVFS_TRY(count, dec.GetU32());
    out.count = count;
    GVFS_TRY(eof, dec.GetBool());
    out.eof = eof;
    GVFS_TRY(data, dec.GetBlock());
    out.data = std::move(data);
  }
  return out;
}

void WriteArgs::Encode(xdr::Encoder& enc) const {
  file.Encode(enc);
  enc.PutU64(offset);
  enc.PutU32(static_cast<std::uint32_t>(stable));
  enc.PutBlock(data);
}

DecodeResult<WriteArgs> WriteArgs::Decode(xdr::Decoder& dec) {
  WriteArgs out;
  GVFS_TRY(fh, Fh::Decode(dec));
  out.file = fh;
  GVFS_TRY(offset, dec.GetU64());
  out.offset = offset;
  GVFS_TRY(stable, dec.GetU32());
  out.stable = static_cast<StableHow>(stable);
  GVFS_TRY(data, dec.GetBlock());
  out.data = std::move(data);
  return out;
}

void WriteRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  EncodePostOp(enc, attr);
  if (status == Status::kOk) {
    enc.PutU32(count);
    enc.PutU32(static_cast<std::uint32_t>(committed));
  }
}

DecodeResult<WriteRes> WriteRes::Decode(xdr::Decoder& dec) {
  WriteRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  GVFS_TRY(attr, DecodePostOp(dec));
  out.attr = attr;
  if (status == Status::kOk) {
    GVFS_TRY(count, dec.GetU32());
    out.count = count;
    GVFS_TRY(committed, dec.GetU32());
    out.committed = static_cast<StableHow>(committed);
  }
  return out;
}

void CreateArgs::Encode(xdr::Encoder& enc) const {
  dir.Encode(enc);
  enc.PutString(name);
  enc.PutU32(mode);
  enc.PutBool(exclusive);
}

DecodeResult<CreateArgs> CreateArgs::Decode(xdr::Decoder& dec) {
  CreateArgs out;
  GVFS_TRY(fh, Fh::Decode(dec));
  out.dir = fh;
  GVFS_TRY(name, dec.GetString());
  out.name = name.Copy();
  GVFS_TRY(mode, dec.GetU32());
  out.mode = mode;
  GVFS_TRY(exclusive, dec.GetBool());
  out.exclusive = exclusive;
  return out;
}

void CreateRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  if (status == Status::kOk) object.Encode(enc);
  EncodePostOp(enc, obj_attr);
  EncodePostOp(enc, dir_attr);
}

DecodeResult<CreateRes> CreateRes::Decode(xdr::Decoder& dec) {
  CreateRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  if (status == Status::kOk) {
    GVFS_TRY(fh, Fh::Decode(dec));
    out.object = fh;
  }
  GVFS_TRY(obj_attr, DecodePostOp(dec));
  out.obj_attr = obj_attr;
  GVFS_TRY(dir_attr, DecodePostOp(dec));
  out.dir_attr = dir_attr;
  return out;
}

void RemoveArgs::Encode(xdr::Encoder& enc) const {
  dir.Encode(enc);
  enc.PutString(name);
}

DecodeResult<RemoveArgs> RemoveArgs::Decode(xdr::Decoder& dec) {
  RemoveArgs out;
  GVFS_TRY(fh, Fh::Decode(dec));
  out.dir = fh;
  GVFS_TRY(name, dec.GetString());
  out.name = name.Copy();
  return out;
}

void RemoveRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  EncodePostOp(enc, dir_attr);
}

DecodeResult<RemoveRes> RemoveRes::Decode(xdr::Decoder& dec) {
  RemoveRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  GVFS_TRY(dir_attr, DecodePostOp(dec));
  out.dir_attr = dir_attr;
  return out;
}

void RenameArgs::Encode(xdr::Encoder& enc) const {
  from_dir.Encode(enc);
  enc.PutString(from_name);
  to_dir.Encode(enc);
  enc.PutString(to_name);
}

DecodeResult<RenameArgs> RenameArgs::Decode(xdr::Decoder& dec) {
  RenameArgs out;
  GVFS_TRY(from_fh, Fh::Decode(dec));
  out.from_dir = from_fh;
  GVFS_TRY(from_name, dec.GetString());
  out.from_name = from_name.Copy();
  GVFS_TRY(to_fh, Fh::Decode(dec));
  out.to_dir = to_fh;
  GVFS_TRY(to_name, dec.GetString());
  out.to_name = to_name.Copy();
  return out;
}

void RenameRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  EncodePostOp(enc, from_dir_attr);
  EncodePostOp(enc, to_dir_attr);
}

DecodeResult<RenameRes> RenameRes::Decode(xdr::Decoder& dec) {
  RenameRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  GVFS_TRY(from_attr, DecodePostOp(dec));
  out.from_dir_attr = from_attr;
  GVFS_TRY(to_attr, DecodePostOp(dec));
  out.to_dir_attr = to_attr;
  return out;
}

void LinkArgs::Encode(xdr::Encoder& enc) const {
  file.Encode(enc);
  dir.Encode(enc);
  enc.PutString(name);
}

DecodeResult<LinkArgs> LinkArgs::Decode(xdr::Decoder& dec) {
  LinkArgs out;
  GVFS_TRY(file, Fh::Decode(dec));
  out.file = file;
  GVFS_TRY(dir, Fh::Decode(dec));
  out.dir = dir;
  GVFS_TRY(name, dec.GetString());
  out.name = name.Copy();
  return out;
}

void LinkRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  EncodePostOp(enc, file_attr);
  EncodePostOp(enc, dir_attr);
}

DecodeResult<LinkRes> LinkRes::Decode(xdr::Decoder& dec) {
  LinkRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  GVFS_TRY(file_attr, DecodePostOp(dec));
  out.file_attr = file_attr;
  GVFS_TRY(dir_attr, DecodePostOp(dec));
  out.dir_attr = dir_attr;
  return out;
}

void ReadDirArgs::Encode(xdr::Encoder& enc) const {
  dir.Encode(enc);
  enc.PutU64(cookie);
  enc.PutU32(max_entries);
}

DecodeResult<ReadDirArgs> ReadDirArgs::Decode(xdr::Decoder& dec) {
  ReadDirArgs out;
  GVFS_TRY(fh, Fh::Decode(dec));
  out.dir = fh;
  GVFS_TRY(cookie, dec.GetU64());
  out.cookie = cookie;
  GVFS_TRY(max_entries, dec.GetU32());
  out.max_entries = max_entries;
  return out;
}

void ReadDirRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  EncodePostOp(enc, dir_attr);
  if (status == Status::kOk) {
    enc.PutU32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) {
      enc.PutU64(e.fileid);
      enc.PutString(e.name);
      enc.PutU64(e.cookie);
    }
    enc.PutBool(eof);
  }
}

DecodeResult<ReadDirRes> ReadDirRes::Decode(xdr::Decoder& dec) {
  ReadDirRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  GVFS_TRY(dir_attr, DecodePostOp(dec));
  out.dir_attr = dir_attr;
  if (status == Status::kOk) {
    GVFS_TRY(n, dec.GetU32());
    out.entries.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ReadDirEntry entry;
      GVFS_TRY(fileid, dec.GetU64());
      entry.fileid = fileid;
      GVFS_TRY(name, dec.GetString());
      entry.name = name.Copy();
      GVFS_TRY(cookie, dec.GetU64());
      entry.cookie = cookie;
      out.entries.push_back(std::move(entry));
    }
    GVFS_TRY(eof, dec.GetBool());
    out.eof = eof;
  }
  return out;
}

DecodeResult<FsStatArgs> FsStatArgs::Decode(xdr::Decoder& dec) {
  GVFS_TRY(fh, Fh::Decode(dec));
  return FsStatArgs{fh};
}

void FsStatRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  if (status == Status::kOk) {
    enc.PutU64(total_bytes);
    enc.PutU64(used_bytes);
    enc.PutU64(total_files);
  }
}

DecodeResult<FsStatRes> FsStatRes::Decode(xdr::Decoder& dec) {
  FsStatRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  if (status == Status::kOk) {
    GVFS_TRY(total, dec.GetU64());
    out.total_bytes = total;
    GVFS_TRY(used, dec.GetU64());
    out.used_bytes = used;
    GVFS_TRY(files, dec.GetU64());
    out.total_files = files;
  }
  return out;
}

void CommitArgs::Encode(xdr::Encoder& enc) const {
  file.Encode(enc);
  enc.PutU64(offset);
  enc.PutU32(count);
}

DecodeResult<CommitArgs> CommitArgs::Decode(xdr::Decoder& dec) {
  CommitArgs out;
  GVFS_TRY(fh, Fh::Decode(dec));
  out.file = fh;
  GVFS_TRY(offset, dec.GetU64());
  out.offset = offset;
  GVFS_TRY(count, dec.GetU32());
  out.count = count;
  return out;
}

void CommitRes::Encode(xdr::Encoder& enc) const {
  EncodeStatus(enc, status);
  EncodePostOp(enc, attr);
}

DecodeResult<CommitRes> CommitRes::Decode(xdr::Decoder& dec) {
  CommitRes out;
  GVFS_TRY(status, DecodeStatus(dec));
  out.status = status;
  GVFS_TRY(attr, DecodePostOp(dec));
  out.attr = attr;
  return out;
}

}  // namespace gvfs::nfs3
