#include "gvfs/proto.h"

namespace gvfs::proxy {

#define GVFS_TRY(var, expr)                           \
  auto var##_result = (expr);                         \
  if (!var##_result) return Unexpected(var##_result.error()); \
  auto var = std::move(*var##_result)

namespace {
constexpr std::uint32_t kGrantMagic = 0x47565331;  // "GVS1"
}

const char* GvfsProcName(std::uint32_t proc) {
  switch (proc) {
    case kGetInv:
      return "GETINV";
    case kCallback:
      return "CALLBACK";
    case kRecovery:
      return "RECOVERY";
    case kNotifyInv:
      return "NOTIFYINV";
    case kMigrate:
      return "MIGRATE";
  }
  return "GVFS?";
}

nfs3::DecodeResult<GetInvArgs> GetInvArgs::Decode(xdr::Decoder& dec) {
  GVFS_TRY(ts, dec.GetU64());
  return GetInvArgs{ts};
}

void GetInvRes::Encode(xdr::Encoder& enc) const {
  enc.PutU64(new_timestamp);
  enc.PutBool(force_invalidate);
  enc.PutBool(poll_again);
  enc.PutU32(static_cast<std::uint32_t>(handles.size()));
  for (const auto& fh : handles) fh.Encode(enc);
}

nfs3::DecodeResult<GetInvRes> GetInvRes::Decode(xdr::Decoder& dec) {
  GetInvRes out;
  GVFS_TRY(ts, dec.GetU64());
  out.new_timestamp = ts;
  GVFS_TRY(force, dec.GetBool());
  out.force_invalidate = force;
  GVFS_TRY(again, dec.GetBool());
  out.poll_again = again;
  GVFS_TRY(count, dec.GetU32());
  out.handles.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    GVFS_TRY(fh, nfs3::Fh::Decode(dec));
    out.handles.push_back(fh);
  }
  return out;
}

void NotifyInvArgs::Encode(xdr::Encoder& enc) const {
  file.Encode(enc);
  enc.PutU32(writer_host);
  enc.PutU32(writer_port);
}

nfs3::DecodeResult<NotifyInvArgs> NotifyInvArgs::Decode(xdr::Decoder& dec) {
  NotifyInvArgs out;
  GVFS_TRY(fh, nfs3::Fh::Decode(dec));
  out.file = fh;
  GVFS_TRY(host, dec.GetU32());
  out.writer_host = host;
  GVFS_TRY(port, dec.GetU32());
  out.writer_port = port;
  return out;
}

void MigrateArgs::Encode(xdr::Encoder& enc) const {
  file.Encode(enc);
  enc.PutU32(from);
  enc.PutU32(to);
}

nfs3::DecodeResult<MigrateArgs> MigrateArgs::Decode(xdr::Decoder& dec) {
  MigrateArgs out;
  GVFS_TRY(fh, nfs3::Fh::Decode(dec));
  out.file = fh;
  GVFS_TRY(from, dec.GetU32());
  out.from = from;
  GVFS_TRY(to, dec.GetU32());
  out.to = to;
  return out;
}

void MigrateRes::Encode(xdr::Encoder& enc) const {
  enc.PutU32(status);
  enc.PutU32(drained);
  enc.PutU32(granted);
}

nfs3::DecodeResult<MigrateRes> MigrateRes::Decode(xdr::Decoder& dec) {
  MigrateRes out;
  GVFS_TRY(status, dec.GetU32());
  out.status = status;
  GVFS_TRY(drained, dec.GetU32());
  out.drained = drained;
  GVFS_TRY(granted, dec.GetU32());
  out.granted = granted;
  return out;
}

void CallbackArgs::Encode(xdr::Encoder& enc) const {
  file.Encode(enc);
  enc.PutU32(static_cast<std::uint32_t>(type));
  enc.PutBool(has_wanted_offset);
  if (has_wanted_offset) enc.PutU64(wanted_offset);
}

nfs3::DecodeResult<CallbackArgs> CallbackArgs::Decode(xdr::Decoder& dec) {
  CallbackArgs out;
  GVFS_TRY(fh, nfs3::Fh::Decode(dec));
  out.file = fh;
  GVFS_TRY(type, dec.GetU32());
  out.type = static_cast<CallbackType>(type);
  GVFS_TRY(has_offset, dec.GetBool());
  out.has_wanted_offset = has_offset;
  if (has_offset) {
    GVFS_TRY(offset, dec.GetU64());
    out.wanted_offset = offset;
  }
  return out;
}

void CallbackRes::Encode(xdr::Encoder& enc) const {
  enc.PutU32(static_cast<std::uint32_t>(pending_offsets.size()));
  for (auto offset : pending_offsets) enc.PutU64(offset);
  enc.PutU64(file_size);
}

nfs3::DecodeResult<CallbackRes> CallbackRes::Decode(xdr::Decoder& dec) {
  CallbackRes out;
  GVFS_TRY(count, dec.GetU32());
  out.pending_offsets.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    GVFS_TRY(offset, dec.GetU64());
    out.pending_offsets.push_back(offset);
  }
  GVFS_TRY(size, dec.GetU64());
  out.file_size = size;
  return out;
}

void RecoveryRes::Encode(xdr::Encoder& enc) const {
  enc.PutU32(static_cast<std::uint32_t>(dirty_files.size()));
  for (const auto& fh : dirty_files) fh.Encode(enc);
}

nfs3::DecodeResult<RecoveryRes> RecoveryRes::Decode(xdr::Decoder& dec) {
  RecoveryRes out;
  GVFS_TRY(count, dec.GetU32());
  out.dirty_files.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    GVFS_TRY(fh, nfs3::Fh::Decode(dec));
    out.dirty_files.push_back(fh);
  }
  return out;
}

void GrantSuffix::AppendTo(xdr::Message& reply_body) const {
  std::uint8_t tail[kWireBytes];
  xdr::Encoder::StoreBe32(tail, static_cast<std::uint32_t>(delegation));
  xdr::Encoder::StoreBe32(tail + 4, kGrantMagic);
  reply_body.Append(ByteView(tail, kWireBytes));
}

GrantSuffix GrantSuffix::ExtractFrom(xdr::Message& reply_body) {
  GrantSuffix out;
  if (reply_body.size() < kWireBytes) return out;
  // The suffix must end the reply on the wire: no block spliced after it.
  const std::size_t at = reply_body.size() - kWireBytes;
  if (!reply_body.splices().empty() && reply_body.splices().back().pos > at) {
    return out;
  }
  xdr::Decoder dec(reply_body.data() + at, kWireBytes);
  auto type = dec.GetU32();
  auto magic = dec.GetU32();
  if (!type || !magic || *magic != kGrantMagic) return out;
  if (*type > static_cast<std::uint32_t>(DelegationType::kWrite)) return out;
  out.delegation = static_cast<DelegationType>(*type);
  reply_body.Truncate(at);
  return out;
}

trace::CheckerConfig NfsTraceCheckerConfig() {
  trace::CheckerConfig config;
  // The non-idempotent NFSv3 procedures: re-executing any of these on a
  // retransmitted request changes the outcome (EEXIST on the second CREATE,
  // ENOENT on the second REMOVE, ...), which is exactly what the duplicate
  // request cache exists to prevent.
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kCreate);
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kMkdir);
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kRemove);
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kRmdir);
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kRename);
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kLink);
  return config;
}

#undef GVFS_TRY

}  // namespace gvfs::proxy
