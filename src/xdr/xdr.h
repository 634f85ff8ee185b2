// XDR (RFC 4506) subset used by the simulated ONC-RPC/NFS stack.
//
// All RPC argument/result structs serialize through these encoders; the
// resulting byte counts feed the network simulator's bandwidth model, so
// message sizes on the simulated wire match what a real XDR stack would send.
//
// Both halves are built for the per-message hot path:
//   - Encoder borrows its buffer from a process-wide arena (detail::Arena)
//     and writes with bulk memcpy instead of per-byte push_back. Take()
//     transfers the buffer to the caller (it becomes the packet payload);
//     whoever ends up owning it returns it with detail::ArenaRelease so the
//     capacity is recycled into the next message.
//   - Decoder is zero-copy: GetOpaque/GetFixedOpaque/GetString return views
//     (View / StrView) into the message buffer rather than fresh allocations.
//     Callers that outlive the buffer take ownership explicitly via .Copy().
//   - File data never enters the buffer at all. Encoder::PutBlock writes the
//     opaque's length word inline and records a *splice*: a shared BlockRef
//     whose padded bytes sit on the simulated wire right after that word.
//     Decoder::GetBlock hands the same ref back. The encoded Message counts
//     spliced bytes in WireSize(), so every simulated size is that of the
//     flat XDR encoding (Flatten()).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/block.h"
#include "common/expected.h"
#include "common/types.h"

namespace gvfs::xdr {

namespace detail {

/// Process-wide recycling pool for encode buffers. The simulator is
/// single-threaded, and every message buffer follows the same lifecycle
/// (Encoder -> packet payload -> decoded body -> dropped), so a small LIFO
/// stack of retired vectors keeps their capacity hot across messages.
inline std::vector<Bytes>& ArenaPool() {
  static std::vector<Bytes> pool;
  return pool;
}

inline Bytes ArenaAcquire() {
  std::vector<Bytes>& pool = ArenaPool();
  if (pool.empty()) return Bytes();
  Bytes buf = std::move(pool.back());
  pool.pop_back();
  // Deliberately NOT cleared: the Encoder tracks its own write cursor, and
  // keeping the old size avoids re-zeroing bytes the next message will
  // overwrite anyway.
  return buf;
}

inline void ArenaRelease(Bytes&& buf) {
  constexpr std::size_t kMaxPooled = 256;
  std::vector<Bytes>& pool = ArenaPool();
  if (buf.capacity() == 0 || pool.size() >= kMaxPooled) return;
  pool.push_back(std::move(buf));
}

}  // namespace detail

/// XDR pads every opaque to a 4-byte boundary.
constexpr std::size_t Padded(std::size_t len) { return (len + 3) & ~std::size_t{3}; }

/// A block carried by reference inside an encoded message. On the
/// simulated wire its padded bytes follow the inline byte at `pos` (the
/// position just after the opaque's length word).
struct Splice {
  std::uint32_t pos = 0;
  BlockRef block;
};

/// The splices of one message, in position order. One pointer wide and
/// allocation-free while empty, so a message without data costs nothing
/// extra (and a packet-delivery closure still fits the scheduler's inline
/// event storage); the first splice costs one allocation, header included.
class SpliceList {
 public:
  SpliceList() = default;
  SpliceList(SpliceList&& o) noexcept : rep_(std::exchange(o.rep_, nullptr)) {}
  SpliceList& operator=(SpliceList&& o) noexcept {
    SpliceList moved(std::move(o));
    std::swap(rep_, moved.rep_);
    return *this;
  }
  SpliceList(const SpliceList& o) {
    if (o.empty()) return;
    rep_ = Rep::Allocate(o.rep_->size);
    for (const Splice& s : o) ::new (rep_->items() + rep_->size++) Splice(s);
  }
  SpliceList& operator=(const SpliceList& o) {
    SpliceList copy(o);
    std::swap(rep_, copy.rep_);
    return *this;
  }
  ~SpliceList() { clear(); }

  bool empty() const { return rep_ == nullptr || rep_->size == 0; }
  std::size_t size() const { return rep_ == nullptr ? 0 : rep_->size; }
  const Splice* begin() const { return rep_ == nullptr ? nullptr : rep_->items(); }
  const Splice* end() const { return rep_ == nullptr ? nullptr : rep_->items() + rep_->size; }
  const Splice& back() const { return rep_->items()[rep_->size - 1]; }

  void push_back(Splice splice) {
    if (rep_ == nullptr || rep_->size == rep_->cap) {
      Rep* grown = Rep::Allocate(rep_ == nullptr ? 1 : 2 * rep_->cap);
      for (Splice& s : Items()) ::new (grown->items() + grown->size++) Splice(std::move(s));
      clear();
      rep_ = grown;
    }
    ::new (rep_->items() + rep_->size++) Splice(std::move(splice));
  }

  /// Appends `other`'s splices with their positions moved by `delta`.
  void AppendShifted(const SpliceList& other, std::int64_t delta) {
    for (const Splice& s : other) {
      push_back(Splice{static_cast<std::uint32_t>(s.pos + delta), s.block});
    }
  }

  /// Moves every position by `delta` (re-basing onto an enclosing buffer).
  void Shift(std::int64_t delta) {
    for (Splice& s : Items()) s.pos = static_cast<std::uint32_t>(s.pos + delta);
  }

  /// Padded bytes the splices add to the wire.
  std::size_t WireBytes() const {
    std::size_t n = 0;
    for (const Splice& s : *this) n += Padded(s.block.size());
    return n;
  }

  void clear() {
    if (rep_ == nullptr) return;
    for (Splice& s : Items()) s.~Splice();
    ::operator delete(rep_);
    rep_ = nullptr;
  }

 private:
  /// Header of the one allocation; `cap` splices follow it.
  struct Rep {
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
    Splice* items() { return reinterpret_cast<Splice*>(this + 1); }

    static Rep* Allocate(std::uint32_t cap) {
      Rep* rep = ::new (::operator new(sizeof(Rep) + cap * sizeof(Splice))) Rep;
      rep->cap = cap;
      return rep;
    }
  };
  static_assert(sizeof(Rep) % alignof(Splice) == 0);

  std::span<Splice> Items() {
    return rep_ == nullptr ? std::span<Splice>() : std::span<Splice>(rep_->items(), rep_->size);
  }

  Rep* rep_ = nullptr;
};

/// An owned encoded message: the inline XDR bytes buffer[offset, offset +
/// size) plus the blocks spliced into them (positions relative to the
/// window's first byte). Received RPC bodies are windows into the datagram
/// that carried them; the buffer returns to the encode arena when the
/// message dies. Move-only.
///
/// NOTE: ctors are user-declared (non-aggregate) on purpose — see the GCC 12
/// by-value coroutine parameter note on rpc::CallOptions.
class Message {
 public:
  Message() = default;
  /// An inline-only message owning all of `bytes`.
  Message(Bytes bytes)  // NOLINT(google-explicit-constructor): inline message
      : len_(bytes.size()), buffer_(std::move(bytes)) {}
  Message(Bytes buffer, std::size_t offset, std::size_t len, SpliceList splices)
      : offset_(offset), len_(len), buffer_(std::move(buffer)), splices_(std::move(splices)) {}

  Message(Message&& o) noexcept
      : offset_(std::exchange(o.offset_, 0)),
        len_(std::exchange(o.len_, 0)),
        buffer_(std::move(o.buffer_)),
        splices_(std::move(o.splices_)) {}

  Message& operator=(Message&& o) noexcept {
    if (this != &o) {
      Release();
      offset_ = std::exchange(o.offset_, 0);
      len_ = std::exchange(o.len_, 0);
      buffer_ = std::move(o.buffer_);
      splices_ = std::move(o.splices_);
    }
    return *this;
  }

  Message(const Message&) = delete;
  Message& operator=(const Message&) = delete;

  ~Message() { Release(); }

  /// Inline bytes only (spliced blocks are not in this window).
  const std::uint8_t* data() const { return buffer_.data() + offset_; }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0 && splices_.empty(); }
  ByteView view() const { return ByteView(data(), len_); }
  const SpliceList& splices() const { return splices_; }

  /// Bytes this message occupies on the simulated wire: inline bytes plus
  /// every spliced block padded to 4 — the size of its flat XDR encoding.
  std::size_t WireSize() const { return len_ + splices_.WireBytes(); }

  /// The flat XDR encoding, spliced blocks inlined and padded. For tests
  /// and diagnostics; the data path never flattens.
  Bytes Flatten() const {
    Bytes out;
    out.reserve(WireSize());
    std::size_t at = 0;
    for (const Splice& s : splices_) {
      out.insert(out.end(), data() + at, data() + s.pos);
      out.insert(out.end(), s.block.begin(), s.block.end());
      out.resize(out.size() + Padded(s.block.size()) - s.block.size(), 0);
      at = s.pos;
    }
    out.insert(out.end(), data() + at, data() + len_);
    return out;
  }

  /// Appends inline bytes after the window (e.g. a piggybacked suffix).
  void Append(ByteView bytes) {
    if (offset_ + len_ != buffer_.size()) {
      buffer_.erase(buffer_.begin() + static_cast<std::ptrdiff_t>(offset_ + len_),
                    buffer_.end());
    }
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    len_ += bytes.size();
  }

  /// Drops inline bytes past `len` (e.g. stripping a piggybacked suffix).
  void Truncate(std::size_t len) {
    assert(len <= len_);
    len_ = len;
  }

 private:
  void Release() {
    if (buffer_.capacity() != 0) detail::ArenaRelease(std::move(buffer_));
    offset_ = 0;
    len_ = 0;
    splices_.clear();
  }

  std::size_t offset_ = 0;
  std::size_t len_ = 0;
  Bytes buffer_;
  SpliceList splices_;
};

/// A borrowed window over decoded opaque bytes. Valid only while the decoded
/// message buffer lives; call Copy() to take ownership.
struct View {
  const std::uint8_t* ptr = nullptr;
  std::size_t len = 0;

  std::size_t size() const { return len; }
  bool empty() const { return len == 0; }
  const std::uint8_t* data() const { return ptr; }
  const std::uint8_t* begin() const { return ptr; }
  const std::uint8_t* end() const { return ptr + len; }
  std::uint8_t operator[](std::size_t i) const { return ptr[i]; }

  ByteView span() const { return ByteView(ptr, len); }
  operator ByteView() const { return span(); }  // NOLINT: view adaptor

  /// Explicit ownership escape hatch: materializes the bytes.
  Bytes Copy() const { return Bytes(ptr, ptr + len); }
};

/// A borrowed window over a decoded string. Copy() materializes it.
struct StrView {
  std::string_view sv;

  std::size_t size() const { return sv.size(); }
  bool empty() const { return sv.empty(); }
  operator std::string_view() const { return sv; }  // NOLINT: view adaptor

  /// Explicit ownership escape hatch: materializes the string.
  std::string Copy() const { return std::string(sv); }
};

inline bool operator==(const StrView& a, std::string_view b) { return a.sv == b; }
inline bool operator==(std::string_view a, const StrView& b) { return a == b.sv; }

/// Appends XDR-encoded primitives to an arena-recycled byte buffer.
///
/// The buffer is kept sized to its full capacity while encoding; a write
/// cursor (pos_) tracks the logical message length. This turns each Put into
/// a bounds check plus a store — one vector resize per capacity doubling
/// instead of one per field — and the buffer is trimmed back to pos_ only
/// when it escapes through bytes()/Take().
class Encoder {
 public:
  Encoder() : buf_(detail::ArenaAcquire()) {
    // A recycled buffer keeps the size of the message it last carried; Grow
    // only pays (one) value-initializing resize for bytes beyond that
    // high-water mark, so steady-state messages never memset at all.
    if (buf_.capacity() == 0) buf_.resize(kInitialCapacity);
  }
  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;
  ~Encoder() { detail::ArenaRelease(std::move(buf_)); }

  void PutU32(std::uint32_t v) {
    std::uint8_t* p = Grow(4);
    const std::uint32_t be = HostToBe32(v);
    std::memcpy(p, &be, 4);
  }

  void PutI32(std::int32_t v) { PutU32(static_cast<std::uint32_t>(v)); }

  void PutU64(std::uint64_t v) {
    std::uint8_t* p = Grow(8);
    const std::uint64_t be = HostToBe64(v);
    std::memcpy(p, &be, 8);
  }

  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }

  void PutBool(bool v) { PutU32(v ? 1 : 0); }

  /// Variable-length opaque: length prefix + data + pad to 4-byte boundary.
  void PutOpaque(const std::uint8_t* data, std::size_t len) {
    PutU32(static_cast<std::uint32_t>(len));
    PutFixedOpaque(data, len);
  }

  void PutOpaque(const Bytes& data) { PutOpaque(data.data(), data.size()); }
  void PutOpaque(ByteView data) { PutOpaque(data.data(), data.size()); }

  /// Fixed-length opaque: data + pad, no length prefix.
  void PutFixedOpaque(const std::uint8_t* data, std::size_t len) {
    const std::size_t padded = Padded(len);
    std::uint8_t* p = Grow(padded);
    if (len != 0) std::memcpy(p, data, len);
    std::memset(p + len, 0, padded - len);
  }

  void PutString(std::string_view s) {
    PutOpaque(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  /// Variable-length opaque carried by reference: the length word goes
  /// inline, the block is spliced in after it without copying its bytes.
  void PutBlock(const BlockRef& block) {
    PutU32(static_cast<std::uint32_t>(block.size()));
    if (!block.empty()) splices_.push_back(Splice{static_cast<std::uint32_t>(pos_), block});
  }

  /// Embeds an encoded message (inline bytes + splices) as a
  /// variable-length opaque: the inline bytes are copied (they are small —
  /// file data rides in splices), the splices re-based and shared.
  void PutSpliced(ByteView inline_bytes, const SpliceList& splices) {
    PutU32(static_cast<std::uint32_t>(inline_bytes.size()));
    const std::size_t base = pos_;
    PutFixedOpaque(inline_bytes.data(), inline_bytes.size());
    splices_.AppendShifted(splices, static_cast<std::int64_t>(base));
  }

  /// Opens an n-byte raw write window that the caller must fill completely
  /// (e.g. with StoreBe32/StoreBe64). Fixed-layout writers — RPC headers,
  /// attribute blocks — fuse one capacity check over the whole window where
  /// per-field Puts would each check and bump the cursor. The pointer is
  /// valid until the next mutating call.
  std::uint8_t* Reserve(std::size_t n) { return Grow(n); }

  static void StoreBe32(std::uint8_t* p, std::uint32_t v) {
    const std::uint32_t be = HostToBe32(v);
    std::memcpy(p, &be, 4);
  }

  static void StoreBe64(std::uint8_t* p, std::uint64_t v) {
    const std::uint64_t be = HostToBe64(v);
    std::memcpy(p, &be, 8);
  }

  const Bytes& bytes() { return Trim(); }

  /// Transfers the buffer out (it becomes, e.g., a packet payload). The
  /// eventual owner should hand it back via detail::ArenaRelease. For
  /// inline-only encodings; a message with blocks leaves through Finish().
  Bytes Take() {
    assert(splices_.empty() && "spliced message: use Finish()");
    Trim();
    pos_ = 0;
    return std::move(buf_);
  }

  /// Transfers the encoded message out: inline bytes plus splices.
  Message Finish() {
    Trim();
    const std::size_t len = pos_;
    pos_ = 0;
    return Message(std::move(buf_), 0, len, std::move(splices_));
  }

  /// Moves the splices out (positions relative to the buffer start), for a
  /// caller that keeps them beside the buffer it then Take()s.
  SpliceList TakeSplices() { return std::move(splices_); }

  std::size_t size() const { return pos_; }

  /// Drops accumulated bytes but keeps the capacity, for encoder reuse.
  void Reset() {
    pos_ = 0;
    splices_.clear();
  }

 private:
  static constexpr std::size_t kInitialCapacity = 256;

  static std::uint32_t HostToBe32(std::uint32_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#else
    return __builtin_bswap32(v);
#endif
  }

  static std::uint64_t HostToBe64(std::uint64_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#else
    return __builtin_bswap64(v);
#endif
  }

  std::uint8_t* Grow(std::size_t n) {
    if (pos_ + n > buf_.size()) {
      buf_.resize(std::max(pos_ + n, buf_.size() * 2));
    }
    std::uint8_t* p = buf_.data() + pos_;
    pos_ += n;
    return p;
  }

  /// Shrinks the buffer to the logical message length (no reallocation).
  Bytes& Trim() {
    buf_.resize(pos_);
    return buf_;
  }

  Bytes buf_;
  std::size_t pos_ = 0;
  SpliceList splices_;
};

enum class DecodeError { kTruncated, kBadValue };

/// Reads XDR-encoded primitives from a byte buffer. Never reads out of
/// bounds; a short buffer yields DecodeError::kTruncated. Opaque and string
/// reads return views into the buffer: the buffer must outlive them.
class Decoder {
 public:
  explicit Decoder(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  explicit Decoder(ByteView buf) : data_(buf.data()), size_(buf.size()) {}
  Decoder(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  /// Decodes a message's inline bytes; GetBlock returns its splices.
  explicit Decoder(const Message& msg)
      : data_(msg.data()),
        size_(msg.size()),
        splice_(msg.splices().begin()),
        splice_end_(msg.splices().end()) {}

  Expected<std::uint32_t, DecodeError> GetU32() {
    if (size_ - pos_ < 4) return Unexpected(DecodeError::kTruncated);
    std::uint32_t be;
    std::memcpy(&be, data_ + pos_, 4);
    pos_ += 4;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return be;
#else
    return __builtin_bswap32(be);
#endif
  }

  Expected<std::int32_t, DecodeError> GetI32() {
    auto v = GetU32();
    if (!v) return Unexpected(v.error());
    return static_cast<std::int32_t>(*v);
  }

  Expected<std::uint64_t, DecodeError> GetU64() {
    if (size_ - pos_ < 8) return Unexpected(DecodeError::kTruncated);
    std::uint64_t be;
    std::memcpy(&be, data_ + pos_, 8);
    pos_ += 8;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return be;
#else
    return __builtin_bswap64(be);
#endif
  }

  Expected<std::int64_t, DecodeError> GetI64() {
    auto v = GetU64();
    if (!v) return Unexpected(v.error());
    return static_cast<std::int64_t>(*v);
  }

  Expected<bool, DecodeError> GetBool() {
    auto v = GetU32();
    if (!v) return Unexpected(v.error());
    if (*v > 1) return Unexpected(DecodeError::kBadValue);
    return *v == 1;
  }

  Expected<View, DecodeError> GetOpaque() {
    auto len = GetU32();
    if (!len) return Unexpected(len.error());
    return GetFixedOpaque(*len);
  }

  Expected<View, DecodeError> GetFixedOpaque(std::size_t len) {
    // A spliced block here means the field was encoded by PutBlock; its
    // bytes are not inline, so reading them as inline would misparse.
    if (len != 0 && SpliceHere()) return Unexpected(DecodeError::kBadValue);
    const std::size_t padded = Padded(len);
    if (size_ - pos_ < padded || padded < len) {
      return Unexpected(DecodeError::kTruncated);
    }
    View out{data_ + pos_, len};
    pos_ += padded;
    return out;
  }

  /// Variable-length opaque as a block: the spliced ref itself when the
  /// encoder spliced one here (no copy), else a copy of the inline bytes.
  Expected<BlockRef, DecodeError> GetBlock() {
    auto len = GetU32();
    if (!len) return Unexpected(len.error());
    if (SpliceHere()) {
      if (splice_->block.size() != *len) return Unexpected(DecodeError::kBadValue);
      return (splice_++)->block;
    }
    auto raw = GetFixedOpaque(*len);
    if (!raw) return Unexpected(raw.error());
    return BlockRef::Copy(raw->span());
  }

  Expected<StrView, DecodeError> GetString() {
    auto raw = GetOpaque();
    if (!raw) return Unexpected(raw.error());
    return StrView{
        std::string_view(reinterpret_cast<const char*>(raw->ptr), raw->len)};
  }

  /// Raw read window: returns a pointer to the next n bytes and advances, or
  /// nullptr if the buffer is short. The fixed-layout mirror of
  /// Encoder::Reserve — one bounds check covers every field read through
  /// LoadBe32/LoadBe64.
  const std::uint8_t* GetRaw(std::size_t n) {
    if (size_ - pos_ < n) return nullptr;
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  static std::uint32_t LoadBe32(const std::uint8_t* p) {
    std::uint32_t be;
    std::memcpy(&be, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return be;
#else
    return __builtin_bswap32(be);
#endif
  }

  static std::uint64_t LoadBe64(const std::uint8_t* p) {
    std::uint64_t be;
    std::memcpy(&be, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return be;
#else
    return __builtin_bswap64(be);
#endif
  }

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  bool SpliceHere() const { return splice_ != splice_end_ && splice_->pos == pos_; }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const Splice* splice_ = nullptr;
  const Splice* splice_end_ = nullptr;
};

}  // namespace gvfs::xdr
