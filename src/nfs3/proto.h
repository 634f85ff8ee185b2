// NFSv3-style protocol: procedure numbers, status codes, file handles,
// attributes, and per-procedure argument/result structs with XDR codecs.
//
// This mirrors the subset of RFC 1813 the paper's workloads exercise
// (GETATTR/LOOKUP/ACCESS/READ/WRITE/CREATE/MKDIR/REMOVE/RMDIR/RENAME/LINK/
// READDIR/FSSTAT/COMMIT/SETATTR). Replies carry post-op attributes, which the
// kernel-client emulation uses to refresh its attribute cache exactly as a
// real NFS client does.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/block.h"
#include "common/expected.h"
#include "common/types.h"
#include "memfs/memfs.h"
#include "xdr/xdr.h"

namespace gvfs::nfs3 {

constexpr std::uint32_t kProgram = 100003;

enum Proc : std::uint32_t {
  kNull = 0,
  kGetAttr = 1,
  kSetAttr = 2,
  kLookup = 3,
  kAccess = 4,
  kRead = 6,
  kWrite = 7,
  kCreate = 8,
  kMkdir = 9,
  kRemove = 12,
  kRmdir = 13,
  kRename = 14,
  kLink = 15,
  kReadDir = 16,
  kFsStat = 18,
  kCommit = 21,
};

const char* ProcName(std::uint32_t proc);

enum class Status : std::uint32_t {
  kOk = 0,
  kPerm = 1,
  kNoEnt = 2,
  kIo = 5,
  kAccess = 13,
  kExist = 17,
  kNotDir = 20,
  kIsDir = 21,
  kInval = 22,
  kNotEmpty = 66,
  kStale = 70,
  kBadHandle = 10001,
  kNotSupp = 10004,
  kServerFault = 10006,
};

const char* StatusName(Status s);
Status FromFsError(memfs::FsError e);

/// Decode failures become kGarbage at the call site.
using xdr::DecodeError;
template <typename T>
using DecodeResult = Expected<T, DecodeError>;

/// NFS file handle: opaque to clients. Here: filesystem id + inode number
/// (inode numbers are never reused by MemFs, so deleted files yield ESTALE).
struct Fh {
  std::uint64_t fsid = 0;
  std::uint64_t ino = 0;

  bool valid() const { return ino != 0; }
  void Encode(xdr::Encoder& enc) const {
    enc.PutU64(fsid);
    enc.PutU64(ino);
  }
  static DecodeResult<Fh> Decode(xdr::Decoder& dec);

  friend bool operator==(const Fh&, const Fh&) = default;
  friend auto operator<=>(const Fh&, const Fh&) = default;
};

enum class FType : std::uint32_t { kReg = 1, kDir = 2 };

struct Fattr {
  FType type = FType::kReg;
  std::uint32_t mode = 0;
  std::uint32_t nlink = 1;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t size = 0;
  std::uint64_t fileid = 0;
  SimTime atime = 0;
  SimTime mtime = 0;
  SimTime ctime = 0;

  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<Fattr> Decode(xdr::Decoder& dec);

  friend bool operator==(const Fattr&, const Fattr&) = default;
};

Fattr ToFattr(const memfs::InodeAttr& attr);

/// post_op_attr: optionally present attributes in replies.
using PostOpAttr = std::optional<Fattr>;
void EncodePostOp(xdr::Encoder& enc, const PostOpAttr& attr);
DecodeResult<PostOpAttr> DecodePostOp(xdr::Decoder& dec);

// ---------------------------------------------------------------------------
// Per-procedure messages. Every struct has Encode/Decode; results carry a
// Status plus whatever post-op attributes the real protocol returns.
// ---------------------------------------------------------------------------

struct GetAttrArgs {
  Fh object;
  void Encode(xdr::Encoder& enc) const { object.Encode(enc); }
  static DecodeResult<GetAttrArgs> Decode(xdr::Decoder& dec);
};

struct GetAttrRes {
  Status status = Status::kOk;
  Fattr attr;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<GetAttrRes> Decode(xdr::Decoder& dec);
};

struct SetAttrArgs {
  Fh object;
  std::optional<std::uint32_t> mode;
  std::optional<std::uint64_t> size;
  std::optional<SimTime> mtime;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<SetAttrArgs> Decode(xdr::Decoder& dec);
};

struct SetAttrRes {
  Status status = Status::kOk;
  PostOpAttr attr;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<SetAttrRes> Decode(xdr::Decoder& dec);
};

struct LookupArgs {
  Fh dir;
  std::string name;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<LookupArgs> Decode(xdr::Decoder& dec);
};

struct LookupRes {
  Status status = Status::kOk;
  Fh object;
  PostOpAttr obj_attr;
  PostOpAttr dir_attr;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<LookupRes> Decode(xdr::Decoder& dec);
};

struct AccessArgs {
  Fh object;
  std::uint32_t access = 0;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<AccessArgs> Decode(xdr::Decoder& dec);
};

struct AccessRes {
  Status status = Status::kOk;
  PostOpAttr attr;
  std::uint32_t access = 0;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<AccessRes> Decode(xdr::Decoder& dec);
};

struct ReadArgs {
  Fh file;
  std::uint64_t offset = 0;
  std::uint32_t count = 0;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<ReadArgs> Decode(xdr::Decoder& dec);
};

struct ReadRes {
  Status status = Status::kOk;
  PostOpAttr attr;
  std::uint32_t count = 0;
  bool eof = false;
  /// Carried by reference (an xdr splice): the reply shares the block.
  BlockRef data;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<ReadRes> Decode(xdr::Decoder& dec);
};

enum class StableHow : std::uint32_t { kUnstable = 0, kDataSync = 1, kFileSync = 2 };

struct WriteArgs {
  Fh file;
  std::uint64_t offset = 0;
  StableHow stable = StableHow::kUnstable;
  /// Carried by reference (an xdr splice): the request shares the block.
  BlockRef data;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<WriteArgs> Decode(xdr::Decoder& dec);
};

struct WriteRes {
  Status status = Status::kOk;
  PostOpAttr attr;
  std::uint32_t count = 0;
  StableHow committed = StableHow::kFileSync;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<WriteRes> Decode(xdr::Decoder& dec);
};

struct CreateArgs {
  Fh dir;
  std::string name;
  std::uint32_t mode = 0644;
  bool exclusive = false;  // guarded/exclusive create: fail if name exists
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<CreateArgs> Decode(xdr::Decoder& dec);
};

struct CreateRes {
  Status status = Status::kOk;
  Fh object;
  PostOpAttr obj_attr;
  PostOpAttr dir_attr;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<CreateRes> Decode(xdr::Decoder& dec);
};

using MkdirArgs = CreateArgs;
using MkdirRes = CreateRes;

struct RemoveArgs {
  Fh dir;
  std::string name;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<RemoveArgs> Decode(xdr::Decoder& dec);
};

struct RemoveRes {
  Status status = Status::kOk;
  PostOpAttr dir_attr;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<RemoveRes> Decode(xdr::Decoder& dec);
};

using RmdirArgs = RemoveArgs;
using RmdirRes = RemoveRes;

struct RenameArgs {
  Fh from_dir;
  std::string from_name;
  Fh to_dir;
  std::string to_name;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<RenameArgs> Decode(xdr::Decoder& dec);
};

struct RenameRes {
  Status status = Status::kOk;
  PostOpAttr from_dir_attr;
  PostOpAttr to_dir_attr;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<RenameRes> Decode(xdr::Decoder& dec);
};

struct LinkArgs {
  Fh file;
  Fh dir;
  std::string name;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<LinkArgs> Decode(xdr::Decoder& dec);
};

struct LinkRes {
  Status status = Status::kOk;
  PostOpAttr file_attr;
  PostOpAttr dir_attr;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<LinkRes> Decode(xdr::Decoder& dec);
};

struct ReadDirArgs {
  Fh dir;
  std::uint64_t cookie = 0;
  std::uint32_t max_entries = 256;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<ReadDirArgs> Decode(xdr::Decoder& dec);
};

struct ReadDirEntry {
  std::uint64_t fileid = 0;
  std::string name;
  std::uint64_t cookie = 0;
};

struct ReadDirRes {
  Status status = Status::kOk;
  PostOpAttr dir_attr;
  std::vector<ReadDirEntry> entries;
  bool eof = false;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<ReadDirRes> Decode(xdr::Decoder& dec);
};

struct FsStatArgs {
  Fh root;
  void Encode(xdr::Encoder& enc) const { root.Encode(enc); }
  static DecodeResult<FsStatArgs> Decode(xdr::Decoder& dec);
};

struct FsStatRes {
  Status status = Status::kOk;
  std::uint64_t total_bytes = 0;
  std::uint64_t used_bytes = 0;
  std::uint64_t total_files = 0;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<FsStatRes> Decode(xdr::Decoder& dec);
};

struct CommitArgs {
  Fh file;
  std::uint64_t offset = 0;
  std::uint32_t count = 0;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<CommitArgs> Decode(xdr::Decoder& dec);
};

struct CommitRes {
  Status status = Status::kOk;
  PostOpAttr attr;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<CommitRes> Decode(xdr::Decoder& dec);
};

/// Serializes any message with an Encode method. File data stays spliced.
template <typename T>
xdr::Message Serialize(const T& msg) {
  xdr::Encoder enc;
  msg.Encode(enc);
  return enc.Finish();
}

/// Parses a message; returns nullopt on any decode error. Data fields come
/// back as the message's own spliced blocks, without copying.
template <typename T>
std::optional<T> Parse(const xdr::Message& body) {
  xdr::Decoder dec(body);
  auto result = T::Decode(dec);
  if (!result) return std::nullopt;
  return std::move(*result);
}

/// Parses flat XDR bytes (no splices; data fields are copied out).
template <typename T>
std::optional<T> Parse(ByteView body) {
  xdr::Decoder dec(body);
  auto result = T::Decode(dec);
  if (!result) return std::nullopt;
  return std::move(*result);
}

template <typename T>
std::optional<T> Parse(const Bytes& body) {
  return Parse<T>(ByteView(body));
}

}  // namespace gvfs::nfs3
