// GVFS protocol extensions riding alongside NFSv3 between the user-level
// proxy client and proxy server:
//
//  - GETINV (client->server): invalidation-polling consistency (§4.2). The
//    client reports its last-seen logical timestamp; the server returns the
//    file handles pending invalidation in the client's buffer, plus the
//    force-invalidate / poll-again flags.
//  - CALLBACK (server->client): delegation recall (§4.3). Read recalls
//    invalidate cached attributes; write recalls force write-back. Large
//    dirty sets return a block list (the §4.3.2 optimization), with one
//    contended block written back synchronously.
//  - RECOVERY (server->client): whole-cache callback used to rebuild server
//    state after a proxy-server restart (§4.3.4).
//  - Delegation grants are piggybacked on native NFS replies as a fixed-size
//    trailing suffix (the paper piggybacks on the reply message; the suffix
//    keeps plain-NFS decoding unchanged because decoders ignore trailing
//    bytes).
#pragma once

#include <cstdint>
#include <vector>

#include "nfs3/proto.h"
#include "trace/checker.h"

namespace gvfs::proxy {

constexpr std::uint32_t kGvfsProgram = 400100;

enum GvfsProc : std::uint32_t {
  kGetInv = 1,
  kCallback = 2,
  kRecovery = 3,
  kNotifyInv = 4,
  kMigrate = 5,
};

const char* GvfsProcName(std::uint32_t proc);

// ---------------------------------------------------------------------------
// GETINV
// ---------------------------------------------------------------------------

struct GetInvArgs {
  /// 0 = null timestamp (bootstrap / client lost its state).
  std::uint64_t last_timestamp = 0;

  void Encode(xdr::Encoder& enc) const { enc.PutU64(last_timestamp); }
  static nfs3::DecodeResult<GetInvArgs> Decode(xdr::Decoder& dec);
};

struct GetInvRes {
  std::uint64_t new_timestamp = 0;
  bool force_invalidate = false;
  bool poll_again = false;
  std::vector<nfs3::Fh> handles;

  void Encode(xdr::Encoder& enc) const;
  static nfs3::DecodeResult<GetInvRes> Decode(xdr::Decoder& dec);
};

// ---------------------------------------------------------------------------
// NOTIFYINV (shard -> shard)
// ---------------------------------------------------------------------------

/// Sharded fleets only (src/fleet): a shard that completed a mutation
/// touching a handle it does not own tells the owning shard, which records
/// the invalidation in its per-client buffers. The writer's address rides
/// along so the owner can skip the writer's own buffer, exactly as it does
/// for locally observed mutations.
struct NotifyInvArgs {
  nfs3::Fh file;
  std::uint32_t writer_host = 0;
  std::uint32_t writer_port = 0;

  void Encode(xdr::Encoder& enc) const;
  static nfs3::DecodeResult<NotifyInvArgs> Decode(xdr::Decoder& dec);
};

struct NotifyInvRes {
  void Encode(xdr::Encoder&) const {}
  static nfs3::DecodeResult<NotifyInvRes> Decode(xdr::Decoder&) {
    return NotifyInvRes{};
  }
};

// ---------------------------------------------------------------------------
// MIGRATE (client -> owning shard)
// ---------------------------------------------------------------------------

/// Adaptive sessions only (src/policy): switches one file between
/// consistency modes at runtime. The server drains the caller's buffered
/// invalidations for the file (so none is lost crossing the transition),
/// recalls conflicting delegations, records the file's new mode, and — when
/// the target mode is a delegation — runs the normal grant decision so the
/// caller leaves the handshake already holding its delegation.
struct MigrateArgs {
  nfs3::Fh file;
  std::uint32_t from = 0;  // policy::FileMode the caller is leaving
  std::uint32_t to = 0;    // policy::FileMode the caller is entering

  void Encode(xdr::Encoder& enc) const;
  static nfs3::DecodeResult<MigrateArgs> Decode(xdr::Decoder& dec);
};

struct MigrateRes {
  std::uint32_t status = 0;
  /// Buffered invalidation entries for the file drained from the caller's
  /// queue as part of the switch; > 0 tells the caller to invalidate its
  /// cached attributes before serving under the new mode.
  std::uint32_t drained = 0;
  /// DelegationType granted under the new mode (kNone when polling).
  std::uint32_t granted = 0;

  void Encode(xdr::Encoder& enc) const;
  static nfs3::DecodeResult<MigrateRes> Decode(xdr::Decoder& dec);
};

// ---------------------------------------------------------------------------
// CALLBACK
// ---------------------------------------------------------------------------

enum class CallbackType : std::uint32_t {
  kRecallRead = 1,
  kRecallWrite = 2,
};

struct CallbackArgs {
  nfs3::Fh file;
  CallbackType type = CallbackType::kRecallRead;
  /// For write recalls: the block (byte offset) another client is waiting
  /// on; it is written back first under the block-list optimization.
  std::uint64_t wanted_offset = 0;
  bool has_wanted_offset = false;

  void Encode(xdr::Encoder& enc) const;
  static nfs3::DecodeResult<CallbackArgs> Decode(xdr::Decoder& dec);
};

struct CallbackRes {
  /// Offsets of dirty blocks NOT yet written back (block-list optimization);
  /// empty when the client flushed everything before replying.
  std::vector<std::uint64_t> pending_offsets;
  /// The holder's authoritative file size (0 = unknown). With a block list
  /// outstanding the server extends the upstream file so readers see the
  /// correct size before all data lands.
  std::uint64_t file_size = 0;

  void Encode(xdr::Encoder& enc) const;
  static nfs3::DecodeResult<CallbackRes> Decode(xdr::Decoder& dec);
};

// ---------------------------------------------------------------------------
// RECOVERY callback (whole cache)
// ---------------------------------------------------------------------------

struct RecoveryArgs {
  void Encode(xdr::Encoder&) const {}
  static nfs3::DecodeResult<RecoveryArgs> Decode(xdr::Decoder&) {
    return RecoveryArgs{};
  }
};

struct RecoveryRes {
  /// Files for which this client holds locally modified (dirty) data; the
  /// server uses these to rebuild its open-file table.
  std::vector<nfs3::Fh> dirty_files;

  void Encode(xdr::Encoder& enc) const;
  static nfs3::DecodeResult<RecoveryRes> Decode(xdr::Decoder& dec);
};

// ---------------------------------------------------------------------------
// Delegation grant suffix (piggybacked on NFS replies)
// ---------------------------------------------------------------------------

enum class DelegationType : std::uint32_t { kNone = 0, kRead = 1, kWrite = 2 };

struct GrantSuffix {
  DelegationType delegation = DelegationType::kNone;

  static constexpr std::size_t kWireBytes = 8;  // magic + type

  /// Appends the suffix to an already-encoded NFS reply body. It goes
  /// inline after every spliced block, so it ends the reply on the wire.
  void AppendTo(xdr::Message& reply_body) const;

  /// Extracts (and strips) a suffix from a reply body, if present.
  static GrantSuffix ExtractFrom(xdr::Message& reply_body);
};

// ---------------------------------------------------------------------------
// Trace checking
// ---------------------------------------------------------------------------

/// Checker configuration for this protocol: the NFSv3 procedures whose
/// re-execution the duplicate-request cache must prevent (invariant 4).
trace::CheckerConfig NfsTraceCheckerConfig();

}  // namespace gvfs::proxy
