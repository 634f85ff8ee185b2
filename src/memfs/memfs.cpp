#include "memfs/memfs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace gvfs::memfs {

const char* FsErrorName(FsError e) {
  switch (e) {
    case FsError::kNoEnt:
      return "ENOENT";
    case FsError::kExist:
      return "EEXIST";
    case FsError::kNotDir:
      return "ENOTDIR";
    case FsError::kIsDir:
      return "EISDIR";
    case FsError::kNotEmpty:
      return "ENOTEMPTY";
    case FsError::kStale:
      return "ESTALE";
    case FsError::kInval:
      return "EINVAL";
  }
  return "?";
}

MemFs::MemFs(const SimTime* clock) : clock_(clock) {
  root_ = NewInode(FileType::kDirectory, 0755);
  Find(root_)->attr.nlink = 2;
}

MemFs::Inode* MemFs::Find(InodeId id) {
  auto it = inodes_.find(id);
  return it == inodes_.end() ? nullptr : it->second.get();
}

const MemFs::Inode* MemFs::Find(InodeId id) const {
  auto it = inodes_.find(id);
  return it == inodes_.end() ? nullptr : it->second.get();
}

FsResult<MemFs::Inode*> MemFs::FindDir(InodeId id) {
  Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  if (node->attr.type != FileType::kDirectory) return Unexpected(FsError::kNotDir);
  return node;
}

FsResult<const MemFs::Inode*> MemFs::FindDir(InodeId id) const {
  const Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  if (node->attr.type != FileType::kDirectory) return Unexpected(FsError::kNotDir);
  return node;
}

InodeId MemFs::NewInode(FileType type, std::uint32_t mode) {
  const InodeId id = next_id_++;
  auto inode = std::make_unique<Inode>();
  inode->attr.type = type;
  inode->attr.mode = mode;
  inode->attr.fileid = id;
  inode->attr.nlink = type == FileType::kDirectory ? 2 : 1;
  inode->attr.atime = inode->attr.mtime = inode->attr.ctime = Now();
  inodes_[id] = std::move(inode);
  return id;
}

void MemFs::TouchDir(Inode& dir) {
  dir.attr.mtime = dir.attr.ctime = Now();
}

void MemFs::Unref(InodeId id) {
  Inode* node = Find(id);
  assert(node != nullptr && node->attr.nlink > 0);
  --node->attr.nlink;
  node->attr.ctime = Now();
  if (node->attr.nlink == 0) {
    total_bytes_ -= node->attr.size;
    inodes_.erase(id);
  }
}

void MemFs::Resize(Inode& node, std::uint64_t size) {
  const std::uint64_t nblocks = (size + kBlockSize - 1) / kBlockSize;
  node.blocks.resize(nblocks);
  if (nblocks != 0) {
    BlockRef& last = node.blocks.back();
    const std::uint64_t extent = size - (nblocks - 1) * kBlockSize;
    if (last.size() > extent) last = last.Slice(0, extent);
  }
  node.attr.size = size;
}

void MemFs::CopyOut(const Inode& node, std::uint64_t offset, std::uint8_t* out,
                    std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const std::uint64_t pos = offset + done;
    const BlockRef& block = node.blocks[pos / kBlockSize];
    const std::uint64_t in_block = pos % kBlockSize;
    const std::size_t take =
        std::min<std::uint64_t>(kBlockSize - in_block, len - done);
    const std::size_t stored =
        block.size() > in_block ? std::min<std::uint64_t>(take, block.size() - in_block)
                                : 0;
    if (stored != 0) std::memcpy(out + done, block.data() + in_block, stored);
    std::memset(out + done + stored, 0, take - stored);
    done += take;
  }
}

FsResult<InodeAttr> MemFs::GetAttr(InodeId id) const {
  const Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  return node->attr;
}

FsResult<InodeAttr> MemFs::SetAttr(InodeId id, const SetAttrRequest& req) {
  Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  if (req.size.has_value()) {
    if (node->attr.type == FileType::kDirectory) return Unexpected(FsError::kIsDir);
    total_bytes_ -= node->attr.size;
    Resize(*node, *req.size);
    total_bytes_ += node->attr.size;
    node->attr.mtime = Now();
  }
  if (req.mode.has_value()) node->attr.mode = *req.mode;
  if (req.mtime.has_value()) node->attr.mtime = *req.mtime;
  node->attr.ctime = Now();
  return node->attr;
}

FsResult<InodeId> MemFs::Lookup(InodeId dir, const std::string& name) const {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  auto it = (*d)->entries.find(name);
  if (it == (*d)->entries.end()) return Unexpected(FsError::kNoEnt);
  return it->second;
}

FsResult<InodeId> MemFs::Create(InodeId dir, const std::string& name,
                                std::uint32_t mode) {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  if (name.empty() || name == "." || name == "..") return Unexpected(FsError::kInval);
  if ((*d)->entries.count(name) != 0) return Unexpected(FsError::kExist);
  const InodeId id = NewInode(FileType::kRegular, mode);
  (*d)->entries[name] = id;
  TouchDir(**d);
  return id;
}

FsResult<InodeId> MemFs::Mkdir(InodeId dir, const std::string& name,
                               std::uint32_t mode) {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  if (name.empty() || name == "." || name == "..") return Unexpected(FsError::kInval);
  if ((*d)->entries.count(name) != 0) return Unexpected(FsError::kExist);
  const InodeId id = NewInode(FileType::kDirectory, mode);
  (*d)->entries[name] = id;
  ++(*d)->attr.nlink;  // child's ".."
  TouchDir(**d);
  return id;
}

FsResult<void> MemFs::Remove(InodeId dir, const std::string& name) {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  auto it = (*d)->entries.find(name);
  if (it == (*d)->entries.end()) return Unexpected(FsError::kNoEnt);
  Inode* target = Find(it->second);
  assert(target != nullptr);
  if (target->attr.type == FileType::kDirectory) return Unexpected(FsError::kIsDir);
  const InodeId id = it->second;
  (*d)->entries.erase(it);
  TouchDir(**d);
  Unref(id);
  return Ok{};
}

FsResult<void> MemFs::Rmdir(InodeId dir, const std::string& name) {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  auto it = (*d)->entries.find(name);
  if (it == (*d)->entries.end()) return Unexpected(FsError::kNoEnt);
  Inode* target = Find(it->second);
  assert(target != nullptr);
  if (target->attr.type != FileType::kDirectory) return Unexpected(FsError::kNotDir);
  if (!target->entries.empty()) return Unexpected(FsError::kNotEmpty);
  const InodeId id = it->second;
  (*d)->entries.erase(it);
  --(*d)->attr.nlink;
  TouchDir(**d);
  // Directories hold nlink 2 (self + "."); drop both references.
  target->attr.nlink = 0;
  inodes_.erase(id);
  return Ok{};
}

FsResult<void> MemFs::Rename(InodeId from_dir, const std::string& from_name,
                             InodeId to_dir, const std::string& to_name) {
  auto from = FindDir(from_dir);
  if (!from) return Unexpected(from.error());
  auto to = FindDir(to_dir);
  if (!to) return Unexpected(to.error());
  auto it = (*from)->entries.find(from_name);
  if (it == (*from)->entries.end()) return Unexpected(FsError::kNoEnt);
  const InodeId moving = it->second;

  auto existing = (*to)->entries.find(to_name);
  if (existing != (*to)->entries.end()) {
    if (existing->second == moving) return Ok{};  // same file; no-op
    Inode* target = Find(existing->second);
    if (target->attr.type == FileType::kDirectory) {
      if (!target->entries.empty()) return Unexpected(FsError::kNotEmpty);
      --(*to)->attr.nlink;
      inodes_.erase(existing->second);
    } else {
      const InodeId replaced = existing->second;
      (*to)->entries.erase(existing);
      Unref(replaced);
    }
  }

  (*from)->entries.erase(from_name);
  (*to)->entries[to_name] = moving;
  Inode* moved = Find(moving);
  if (moved->attr.type == FileType::kDirectory && from_dir != to_dir) {
    --(*from)->attr.nlink;
    ++(*to)->attr.nlink;
  }
  TouchDir(**from);
  if (from_dir != to_dir) TouchDir(**to);
  moved->attr.ctime = Now();
  return Ok{};
}

FsResult<void> MemFs::Link(InodeId file, InodeId dir, const std::string& name) {
  Inode* target = Find(file);
  if (target == nullptr) return Unexpected(FsError::kStale);
  if (target->attr.type == FileType::kDirectory) return Unexpected(FsError::kIsDir);
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  if ((*d)->entries.count(name) != 0) return Unexpected(FsError::kExist);
  (*d)->entries[name] = file;
  ++target->attr.nlink;
  target->attr.ctime = Now();
  TouchDir(**d);
  return Ok{};
}

FsResult<ReadResult> MemFs::Read(InodeId id, std::uint64_t offset,
                                 std::uint32_t count) const {
  auto read = ReadBlock(id, offset, count);
  if (!read) return Unexpected(read.error());
  return ReadResult{Bytes(read->data.begin(), read->data.end()), read->eof};
}

FsResult<BlockReadResult> MemFs::ReadBlock(InodeId id, std::uint64_t offset,
                                           std::uint32_t count) const {
  const Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  if (node->attr.type == FileType::kDirectory) return Unexpected(FsError::kIsDir);
  BlockReadResult result;
  const std::uint64_t size = node->attr.size;
  if (offset >= size) {
    result.eof = true;
    return result;
  }
  const std::uint64_t end = std::min<std::uint64_t>(offset + count, size);
  const std::size_t len = end - offset;
  const BlockRef& block = node->blocks[offset / kBlockSize];
  const std::uint64_t in_block = offset % kBlockSize;
  if (in_block + len <= block.size()) {
    result.data = block.Slice(in_block, len);  // within one stored block
  } else {
    CopyOut(*node, offset, result.data.Mutable(len, len), len);
  }
  result.eof = end == size;
  return result;
}

FsResult<std::uint64_t> MemFs::Write(InodeId id, std::uint64_t offset,
                                     const Bytes& data) {
  return WriteRange(id, offset, ByteView(data), nullptr);
}

FsResult<std::uint64_t> MemFs::WriteBlock(InodeId id, std::uint64_t offset,
                                          const BlockRef& data) {
  return WriteRange(id, offset, data.view(), &data);
}

FsResult<std::uint64_t> MemFs::WriteRange(InodeId id, std::uint64_t offset,
                                          ByteView data, const BlockRef* shared) {
  Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  if (node->attr.type == FileType::kDirectory) return Unexpected(FsError::kIsDir);
  const std::uint64_t end = offset + data.size();
  if (end > node->attr.size) {
    total_bytes_ += end - node->attr.size;
    Resize(*node, end);
  }
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    BlockRef& block = node->blocks[pos / kBlockSize];
    const std::uint64_t in_block = pos % kBlockSize;
    const std::size_t take =
        std::min<std::uint64_t>(kBlockSize - in_block, data.size() - done);
    if (in_block == 0 && take >= block.size()) {
      // Covers every stored byte of the block: keep the writer's bytes.
      block = shared != nullptr ? shared->Slice(done, take)
                                : BlockRef::Copy(data.subspan(done, take));
    } else {
      std::uint8_t* p =
          block.Mutable(std::max<std::uint64_t>(block.size(), in_block + take),
                        kBlockSize);
      std::memcpy(p + in_block, data.data() + done, take);
    }
    done += take;
  }
  node->attr.mtime = node->attr.ctime = Now();
  return node->attr.size;
}

FsResult<std::vector<DirEntry>> MemFs::ReadDir(InodeId dir, std::uint64_t cookie,
                                               std::uint32_t max_entries) const {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  std::vector<DirEntry> out;
  std::uint64_t index = 0;
  for (const auto& [name, inode] : (*d)->entries) {
    ++index;  // cookies are 1-based positions in sorted order
    if (index <= cookie) continue;
    out.push_back(DirEntry{name, inode, index});
    if (out.size() >= max_entries) break;
  }
  return out;
}

FsResult<InodeId> MemFs::ResolvePath(const std::string& path) const {
  InodeId current = root_;
  std::size_t pos = 0;
  while (pos < path.size()) {
    if (path[pos] == '/') {
      ++pos;
      continue;
    }
    const std::size_t next = path.find('/', pos);
    const std::string component =
        path.substr(pos, next == std::string::npos ? std::string::npos : next - pos);
    auto looked_up = Lookup(current, component);
    if (!looked_up) return Unexpected(looked_up.error());
    current = *looked_up;
    if (next == std::string::npos) break;
    pos = next;
  }
  return current;
}

}  // namespace gvfs::memfs
