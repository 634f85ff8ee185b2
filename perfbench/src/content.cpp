#include "content.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t HashPath(const std::string& path) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : path) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return Mix(h);
}

void FillContent(std::uint64_t tag, std::uint64_t offset, std::size_t len,
                 std::uint8_t* out) {
  // Byte o is byte (o % 8) of Mix(tag ^ (o / 8)): one mix per 8 bytes.
  std::size_t done = 0;
  while (done < len) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t word = Mix(tag ^ (pos >> 3));
    std::uint8_t bytes[8];
    std::memcpy(bytes, &word, sizeof bytes);
    const std::size_t in_word = pos & 7;
    const std::size_t take = std::min<std::size_t>(8 - in_word, len - done);
    std::memcpy(out + done, bytes + in_word, take);
    done += take;
  }
}

Bytes MakeContent(std::uint64_t tag, std::uint64_t offset, std::size_t len) {
  Bytes out(len);
  FillContent(tag, offset, len, out.data());
  return out;
}

void ShadowFile::Append(std::uint64_t len, std::uint64_t tag) {
  const std::uint64_t begin = size();
  extents_.push_back(Extent{begin, begin + len, tag});
}

Bytes ShadowFile::Expected(std::uint64_t offset, std::uint64_t len) const {
  const std::uint64_t end = std::min(offset + len, size());
  Bytes out(end > offset ? end - offset : 0);
  for (const Extent& e : extents_) {
    const std::uint64_t lo = std::max(e.begin, offset);
    const std::uint64_t hi = std::min(e.end, end);
    if (lo < hi) FillContent(e.tag, lo, hi - lo, out.data() + (lo - offset));
  }
  return out;
}

namespace {

/// Compares `got` (file bytes from `offset`) with `want`. On a mismatch,
/// decides whether every wrong byte fits F1's signature for this file.
Verdict Compare(const ShadowFile& shadow, std::uint64_t offset,
                const Bytes& want, ByteView got, std::uint32_t block_size) {
  if (got.size() != want.size()) return Verdict::kMismatch;
  if (std::memcmp(got.data(), want.data(), want.size()) == 0) {
    return Verdict::kMatch;
  }
  // Zero-fill windows [block start, pre-append EOF) of every unaligned
  // append this file has seen.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
  for (std::size_t i = 1; i < shadow.extents().size(); ++i) {
    const std::uint64_t eof = shadow.extents()[i].begin;
    if (eof % block_size != 0) windows.emplace_back(eof - eof % block_size, eof);
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] == want[i]) continue;
    if (got[i] != 0) return Verdict::kMismatch;
    const std::uint64_t pos = offset + i;
    const bool in_window = std::any_of(
        windows.begin(), windows.end(),
        [pos](const auto& w) { return pos >= w.first && pos < w.second; });
    if (!in_window) return Verdict::kMismatch;
  }
  return Verdict::kF1;
}

}  // namespace

Verdict CheckRead(const ShadowFile& shadow, std::uint64_t offset,
                  std::uint64_t want_len, ByteView got,
                  std::uint32_t block_size) {
  return Compare(shadow, offset, shadow.Expected(offset, want_len), got,
                 block_size);
}

Verdict CheckStoredFile(const ShadowFile& shadow, ByteView stored,
                        std::uint32_t block_size) {
  return Compare(shadow, 0, shadow.Expected(0, shadow.size()), stored,
                 block_size);
}

std::uint64_t HashBytes(ByteView bytes) {
  std::uint64_t h = Mix(bytes.size());
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    h = Mix(h ^ word);
  }
  std::uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  return Mix(h ^ tail ^ 0xa5);
}

Version ClassifyVersion(std::uint64_t got, std::uint64_t old_version,
                        std::uint64_t new_version) {
  if (got == new_version) return Version::kNew;
  if (got == old_version) return Version::kOld;
  return Version::kNeither;
}

bool ReadWithinBound(Version got, gvfs::SimTime issued_at,
                     gvfs::SimTime update_begin, gvfs::SimTime update_end,
                     gvfs::Duration bound) {
  if (got == Version::kNeither) return false;
  if (issued_at < update_begin) return got == Version::kOld;
  if (issued_at >= update_end + bound) return got == Version::kNew;
  return true;
}

std::uint64_t GetinvBound(std::uint32_t shards, gvfs::Duration elapsed,
                          gvfs::Duration aggregator_period) {
  const auto periods = static_cast<std::uint64_t>(
      (elapsed + aggregator_period - 1) / aggregator_period);
  return static_cast<std::uint64_t>(shards) * (periods + 1);
}

}  // namespace perfbench
