// The block plane: file data as refcounted byte blocks passed by reference.
//
// One 32 KB file block is allocated once — when an application write lands
// in the kernel page cache, or when memfs assembles a READ reply — and is
// then shared, not copied, by every layer that holds it: the page cache,
// the WRITE/READ message that carries it (xdr splices), the proxy disk
// cache, the duplicate-request cache and the memfs file.
//
// Ownership rules:
//   - A Block is immutable while more than one BlockRef points at it.
//   - Mutation goes only through BlockRef::Mutable, which clones the block
//     first when it is shared (copy-on-write) or too small to grow.
//   - The refcount is intrusive and non-atomic: the simulator is
//     single-threaded, and an atomic count would tax every hop.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#include "common/types.h"

namespace gvfs {

/// Heap byte block with an intrusive refcount; the bytes follow the header
/// in the same allocation. Only BlockRef creates, shares and frees blocks.
class Block {
 private:
  friend class BlockRef;

  static Block* Allocate(std::size_t capacity) {
    void* mem = ::operator new(sizeof(Block) + capacity);
    return ::new (mem) Block(static_cast<std::uint32_t>(capacity));
  }

  explicit Block(std::uint32_t capacity) : capacity_(capacity) {}

  std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }

  std::uint32_t refs_ = 1;
  std::uint32_t capacity_;
};

/// A counted reference to the byte range [offset, offset + size) of a
/// Block. Copying shares the block; the empty ref owns nothing.
class BlockRef {
 public:
  BlockRef() = default;

  /// A new block holding a copy of `bytes`.
  static BlockRef Copy(ByteView bytes) {
    BlockRef out = Uninitialized(bytes.size(), bytes.size());
    if (!bytes.empty()) std::memcpy(out.block_->bytes(), bytes.data(), bytes.size());
    return out;
  }

  BlockRef(const BlockRef& o) : block_(o.block_), offset_(o.offset_), size_(o.size_) {
    if (block_ != nullptr) ++block_->refs_;
  }

  BlockRef(BlockRef&& o) noexcept
      : block_(std::exchange(o.block_, nullptr)),
        offset_(std::exchange(o.offset_, 0)),
        size_(std::exchange(o.size_, 0)) {}

  BlockRef& operator=(const BlockRef& o) {
    BlockRef copy(o);
    Swap(copy);
    return *this;
  }

  BlockRef& operator=(BlockRef&& o) noexcept {
    BlockRef moved(std::move(o));
    Swap(moved);
    return *this;
  }

  ~BlockRef() { Release(); }

  const std::uint8_t* data() const {
    return block_ == nullptr ? nullptr : block_->bytes() + offset_;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size_; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  ByteView view() const { return ByteView(data(), size_); }

  /// True when another ref shares this block (mutation must clone).
  bool shared() const { return block_ != nullptr && block_->refs_ > 1; }

  /// A ref to bytes [off, off + len) of this range, sharing the block.
  BlockRef Slice(std::size_t off, std::size_t len) const {
    assert(off + len <= size_);
    if (len == 0) return BlockRef();
    BlockRef out(*this);
    out.offset_ += static_cast<std::uint32_t>(off);
    out.size_ = static_cast<std::uint32_t>(len);
    return out;
  }

  /// Copy-on-write access: resizes this range to `new_size` (bytes past the
  /// old end read as zero) and returns a writable pointer to its first
  /// byte. Writes in place only when this ref is the block's sole owner
  /// and the block has room. A shared block is cloned into an exactly-sized
  /// one, leaving every other holder's view intact. A sole owner that
  /// outgrows its block moves to one of twice the capacity, capped at
  /// `limit` (the caller's block size), so small sequential writes into a
  /// block copy each byte O(1) times on average.
  std::uint8_t* Mutable(std::size_t new_size, std::size_t limit) {
    std::size_t capacity = new_size;
    if (block_ != nullptr && block_->refs_ == 1) {
      if (offset_ + new_size <= block_->capacity_) {
        std::uint8_t* p = block_->bytes() + offset_;
        if (new_size > size_) std::memset(p + size_, 0, new_size - size_);
        size_ = static_cast<std::uint32_t>(new_size);
        return p;
      }
      const std::size_t doubled = std::size_t{2} * block_->capacity_;
      capacity = std::max(new_size, std::min(doubled, limit));
    }
    BlockRef fresh = Uninitialized(new_size, capacity);
    std::uint8_t* p = fresh.block_ == nullptr ? nullptr : fresh.block_->bytes();
    const std::size_t keep = size_ < new_size ? size_ : new_size;
    if (keep != 0) std::memcpy(p, data(), keep);
    if (new_size > keep) std::memset(p + keep, 0, new_size - keep);
    Swap(fresh);
    return p;
  }

  /// Byte-wise equality (tests and cross-checks; not identity).
  friend bool operator==(const BlockRef& a, const BlockRef& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  friend bool operator==(const BlockRef& a, const Bytes& b) {
    return a.size_ == b.size() &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  /// A `len`-byte range over a new block of at least `capacity` bytes.
  static BlockRef Uninitialized(std::size_t len, std::size_t capacity) {
    BlockRef out;
    if (len == 0) return out;
    assert(len <= capacity && capacity <= ~std::uint32_t{0});
    out.block_ = Block::Allocate(capacity);
    out.size_ = static_cast<std::uint32_t>(len);
    return out;
  }

  void Swap(BlockRef& o) noexcept {
    std::swap(block_, o.block_);
    std::swap(offset_, o.offset_);
    std::swap(size_, o.size_);
  }

  void Release() {
    if (block_ != nullptr && --block_->refs_ == 0) {
      block_->~Block();
      ::operator delete(block_);
    }
    block_ = nullptr;
    offset_ = 0;
    size_ = 0;
  }

  Block* block_ = nullptr;
  std::uint32_t offset_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace gvfs
