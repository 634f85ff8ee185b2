#include <gtest/gtest.h>

#include "memfs/memfs.h"

namespace gvfs::memfs {
namespace {

class MemFsTest : public ::testing::Test {
 protected:
  MemFsTest() : fs_(&now_) {}

  void Tick() { now_ += Seconds(1); }

  InodeId MustCreate(InodeId dir, const std::string& name) {
    auto r = fs_.Create(dir, name, 0644);
    EXPECT_TRUE(r.has_value());
    return *r;
  }

  InodeId MustMkdir(InodeId dir, const std::string& name) {
    auto r = fs_.Mkdir(dir, name, 0755);
    EXPECT_TRUE(r.has_value());
    return *r;
  }

  SimTime now_ = Seconds(100);
  MemFs fs_;
};

TEST_F(MemFsTest, RootIsDirectory) {
  auto attr = fs_.GetAttr(fs_.root());
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->type, FileType::kDirectory);
  EXPECT_EQ(attr->nlink, 2u);
}

TEST_F(MemFsTest, CreateAndLookup) {
  InodeId f = MustCreate(fs_.root(), "hello.txt");
  auto found = fs_.Lookup(fs_.root(), "hello.txt");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, f);
  auto attr = fs_.GetAttr(f);
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->type, FileType::kRegular);
  EXPECT_EQ(attr->size, 0u);
  EXPECT_EQ(attr->nlink, 1u);
}

TEST_F(MemFsTest, CreateDuplicateFails) {
  MustCreate(fs_.root(), "x");
  auto r = fs_.Create(fs_.root(), "x", 0644);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), FsError::kExist);
}

TEST_F(MemFsTest, CreateRejectsBadNames) {
  EXPECT_EQ(fs_.Create(fs_.root(), "", 0644).error(), FsError::kInval);
  EXPECT_EQ(fs_.Create(fs_.root(), ".", 0644).error(), FsError::kInval);
  EXPECT_EQ(fs_.Create(fs_.root(), "..", 0644).error(), FsError::kInval);
}

TEST_F(MemFsTest, LookupMissingIsNoEnt) {
  auto r = fs_.Lookup(fs_.root(), "ghost");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), FsError::kNoEnt);
}

TEST_F(MemFsTest, LookupOnFileIsNotDir) {
  InodeId f = MustCreate(fs_.root(), "f");
  auto r = fs_.Lookup(f, "x");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), FsError::kNotDir);
}

TEST_F(MemFsTest, CreateTouchesDirMtime) {
  auto before = fs_.GetAttr(fs_.root())->mtime;
  Tick();
  MustCreate(fs_.root(), "a");
  auto after = fs_.GetAttr(fs_.root())->mtime;
  EXPECT_GT(after, before);
}

TEST_F(MemFsTest, WriteExtendsAndReads) {
  InodeId f = MustCreate(fs_.root(), "data");
  Bytes payload = {1, 2, 3, 4, 5};
  auto size = fs_.Write(f, 0, payload);
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, 5u);

  auto read = fs_.Read(f, 0, 100);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->data, payload);
  EXPECT_TRUE(read->eof);
}

TEST_F(MemFsTest, WriteAtOffsetZeroFills) {
  InodeId f = MustCreate(fs_.root(), "sparse");
  ASSERT_TRUE(fs_.Write(f, 10, Bytes{9}).has_value());
  auto read = fs_.Read(f, 0, 11);
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->data.size(), 11u);
  EXPECT_EQ(read->data[0], 0);
  EXPECT_EQ(read->data[10], 9);
}

TEST_F(MemFsTest, PartialReadNotEof) {
  InodeId f = MustCreate(fs_.root(), "big");
  ASSERT_TRUE(fs_.Write(f, 0, Bytes(100, 7)).has_value());
  auto read = fs_.Read(f, 0, 50);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->data.size(), 50u);
  EXPECT_FALSE(read->eof);
  auto tail = fs_.Read(f, 50, 50);
  ASSERT_TRUE(tail.has_value());
  EXPECT_TRUE(tail->eof);
}

TEST_F(MemFsTest, ReadPastEofReturnsEmptyEof) {
  InodeId f = MustCreate(fs_.root(), "f");
  auto read = fs_.Read(f, 100, 10);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->data.empty());
  EXPECT_TRUE(read->eof);
}

TEST_F(MemFsTest, WriteUpdatesMtime) {
  InodeId f = MustCreate(fs_.root(), "f");
  auto before = fs_.GetAttr(f)->mtime;
  Tick();
  ASSERT_TRUE(fs_.Write(f, 0, Bytes{1}).has_value());
  EXPECT_GT(fs_.GetAttr(f)->mtime, before);
}

TEST_F(MemFsTest, HardLinkSharesInode) {
  InodeId f = MustCreate(fs_.root(), "orig");
  ASSERT_TRUE(fs_.Write(f, 0, Bytes{1, 2}).has_value());
  ASSERT_TRUE(fs_.Link(f, fs_.root(), "alias").has_value());
  EXPECT_EQ(fs_.GetAttr(f)->nlink, 2u);
  auto via_alias = fs_.Lookup(fs_.root(), "alias");
  ASSERT_TRUE(via_alias.has_value());
  EXPECT_EQ(*via_alias, f);
}

TEST_F(MemFsTest, LinkToExistingNameFails) {
  InodeId f = MustCreate(fs_.root(), "a");
  MustCreate(fs_.root(), "b");
  auto r = fs_.Link(f, fs_.root(), "b");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), FsError::kExist);
}

TEST_F(MemFsTest, LinkDirectoryFails) {
  InodeId d = MustMkdir(fs_.root(), "d");
  auto r = fs_.Link(d, fs_.root(), "dlink");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), FsError::kIsDir);
}

TEST_F(MemFsTest, RemoveLastLinkFreesData) {
  InodeId f = MustCreate(fs_.root(), "f");
  ASSERT_TRUE(fs_.Write(f, 0, Bytes(1000, 1)).has_value());
  EXPECT_EQ(fs_.TotalBytes(), 1000u);
  ASSERT_TRUE(fs_.Remove(fs_.root(), "f").has_value());
  EXPECT_EQ(fs_.TotalBytes(), 0u);
  EXPECT_EQ(fs_.GetAttr(f).error(), FsError::kStale);
}

TEST_F(MemFsTest, RemoveOneOfTwoLinksKeepsData) {
  InodeId f = MustCreate(fs_.root(), "f");
  ASSERT_TRUE(fs_.Link(f, fs_.root(), "g").has_value());
  ASSERT_TRUE(fs_.Remove(fs_.root(), "f").has_value());
  EXPECT_EQ(fs_.GetAttr(f)->nlink, 1u);
  EXPECT_TRUE(fs_.Lookup(fs_.root(), "g").has_value());
}

TEST_F(MemFsTest, RemoveDirectoryWithRemoveFails) {
  MustMkdir(fs_.root(), "d");
  auto r = fs_.Remove(fs_.root(), "d");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), FsError::kIsDir);
}

TEST_F(MemFsTest, MkdirBumpsParentNlink) {
  EXPECT_EQ(fs_.GetAttr(fs_.root())->nlink, 2u);
  MustMkdir(fs_.root(), "d");
  EXPECT_EQ(fs_.GetAttr(fs_.root())->nlink, 3u);
}

TEST_F(MemFsTest, RmdirRequiresEmpty) {
  InodeId d = MustMkdir(fs_.root(), "d");
  MustCreate(d, "child");
  auto r = fs_.Rmdir(fs_.root(), "d");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), FsError::kNotEmpty);
  ASSERT_TRUE(fs_.Remove(d, "child").has_value());
  ASSERT_TRUE(fs_.Rmdir(fs_.root(), "d").has_value());
  EXPECT_EQ(fs_.GetAttr(fs_.root())->nlink, 2u);
  EXPECT_EQ(fs_.GetAttr(d).error(), FsError::kStale);
}

TEST_F(MemFsTest, RenameMovesEntry) {
  InodeId d1 = MustMkdir(fs_.root(), "d1");
  InodeId d2 = MustMkdir(fs_.root(), "d2");
  InodeId f = MustCreate(d1, "f");
  ASSERT_TRUE(fs_.Rename(d1, "f", d2, "g").has_value());
  EXPECT_EQ(fs_.Lookup(d1, "f").error(), FsError::kNoEnt);
  auto found = fs_.Lookup(d2, "g");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, f);
}

TEST_F(MemFsTest, RenameReplacesExistingFile) {
  InodeId a = MustCreate(fs_.root(), "a");
  InodeId b = MustCreate(fs_.root(), "b");
  ASSERT_TRUE(fs_.Rename(fs_.root(), "a", fs_.root(), "b").has_value());
  auto found = fs_.Lookup(fs_.root(), "b");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, a);
  EXPECT_EQ(fs_.GetAttr(b).error(), FsError::kStale);  // replaced file freed
}

TEST_F(MemFsTest, RenameDirectoryAcrossDirsFixesNlink) {
  InodeId d1 = MustMkdir(fs_.root(), "d1");
  InodeId d2 = MustMkdir(fs_.root(), "d2");
  MustMkdir(d1, "sub");
  EXPECT_EQ(fs_.GetAttr(d1)->nlink, 3u);
  ASSERT_TRUE(fs_.Rename(d1, "sub", d2, "sub").has_value());
  EXPECT_EQ(fs_.GetAttr(d1)->nlink, 2u);
  EXPECT_EQ(fs_.GetAttr(d2)->nlink, 3u);
}

TEST_F(MemFsTest, SetAttrTruncates) {
  InodeId f = MustCreate(fs_.root(), "f");
  ASSERT_TRUE(fs_.Write(f, 0, Bytes(100, 1)).has_value());
  SetAttrRequest req;
  req.size = 10;
  auto attr = fs_.SetAttr(f, req);
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->size, 10u);
  EXPECT_EQ(fs_.TotalBytes(), 10u);
}

TEST_F(MemFsTest, SetAttrExtendsWithZeros) {
  InodeId f = MustCreate(fs_.root(), "f");
  SetAttrRequest req;
  req.size = 5;
  ASSERT_TRUE(fs_.SetAttr(f, req).has_value());
  auto read = fs_.Read(f, 0, 5);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->data, Bytes(5, 0));
}

TEST_F(MemFsTest, ReadDirPagination) {
  for (int i = 0; i < 10; ++i) {
    MustCreate(fs_.root(), "f" + std::to_string(i));
  }
  auto page1 = fs_.ReadDir(fs_.root(), 0, 4);
  ASSERT_TRUE(page1.has_value());
  ASSERT_EQ(page1->size(), 4u);
  auto page2 = fs_.ReadDir(fs_.root(), page1->back().cookie, 100);
  ASSERT_TRUE(page2.has_value());
  EXPECT_EQ(page2->size(), 6u);
  // No overlap, no gap.
  EXPECT_EQ(page1->back().name, "f3");
  EXPECT_EQ(page2->front().name, "f4");
}

TEST_F(MemFsTest, ReadDirDeterministicOrder) {
  MustCreate(fs_.root(), "zeta");
  MustCreate(fs_.root(), "alpha");
  auto listing = fs_.ReadDir(fs_.root(), 0, 10);
  ASSERT_TRUE(listing.has_value());
  EXPECT_EQ(listing->at(0).name, "alpha");
  EXPECT_EQ(listing->at(1).name, "zeta");
}

TEST_F(MemFsTest, ResolvePathWalksComponents) {
  InodeId d1 = MustMkdir(fs_.root(), "usr");
  InodeId d2 = MustMkdir(d1, "share");
  InodeId f = MustCreate(d2, "readme");
  auto r = fs_.ResolvePath("/usr/share/readme");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, f);
  EXPECT_EQ(*fs_.ResolvePath("/"), fs_.root());
  EXPECT_EQ(fs_.ResolvePath("/usr/missing").error(), FsError::kNoEnt);
}

TEST_F(MemFsTest, StaleInodeAfterDelete) {
  InodeId f = MustCreate(fs_.root(), "f");
  ASSERT_TRUE(fs_.Remove(fs_.root(), "f").has_value());
  EXPECT_EQ(fs_.Read(f, 0, 10).error(), FsError::kStale);
  EXPECT_EQ(fs_.Write(f, 0, Bytes{1}).error(), FsError::kStale);
  // Inode numbers are never reused: a recreated name gets a fresh id.
  InodeId g = MustCreate(fs_.root(), "f");
  EXPECT_NE(f, g);
}

TEST_F(MemFsTest, InodeCountTracksLiveInodes) {
  const auto base = fs_.InodeCount();
  InodeId f = MustCreate(fs_.root(), "f");
  (void)f;
  EXPECT_EQ(fs_.InodeCount(), base + 1);
  ASSERT_TRUE(fs_.Remove(fs_.root(), "f").has_value());
  EXPECT_EQ(fs_.InodeCount(), base);
}

// --- Block storage -----------------------------------------------------------

TEST_F(MemFsTest, WholeBlockWriteAdoptsAndReadSharesTheBlock) {
  InodeId f = MustCreate(fs_.root(), "f");
  const BlockRef block = BlockRef::Copy(Bytes(MemFs::kBlockSize, 0x61));
  ASSERT_TRUE(fs_.WriteBlock(f, 0, block).has_value());
  EXPECT_TRUE(block.shared());  // memfs keeps the writer's block, no copy

  auto whole = fs_.ReadBlock(f, 0, MemFs::kBlockSize);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->data.data(), block.data());
  EXPECT_TRUE(whole->eof);
  auto part = fs_.ReadBlock(f, 100, 50);
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->data.data(), block.data() + 100);
  EXPECT_FALSE(part->eof);
}

TEST_F(MemFsTest, PartialWriteCopiesOnWrite) {
  InodeId f = MustCreate(fs_.root(), "f");
  const BlockRef block = BlockRef::Copy(Bytes(MemFs::kBlockSize, 0x61));
  ASSERT_TRUE(fs_.WriteBlock(f, 0, block).has_value());
  ASSERT_TRUE(fs_.Write(f, 10, Bytes(4, 0x7a)).has_value());

  EXPECT_EQ(block, Bytes(MemFs::kBlockSize, 0x61));  // the writer's bytes stay
  auto read = fs_.Read(f, 8, 8);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->data, (Bytes{0x61, 0x61, 0x7a, 0x7a, 0x7a, 0x7a, 0x61, 0x61}));
}

TEST_F(MemFsTest, HolesAndRegrownTailsReadAsZeros) {
  InodeId f = MustCreate(fs_.root(), "f");
  // A write two blocks past the start leaves a hole before it.
  const std::uint64_t at = 2 * MemFs::kBlockSize + 5;
  ASSERT_TRUE(fs_.Write(f, at, Bytes{1, 2}).has_value());
  auto gap = fs_.ReadBlock(f, MemFs::kBlockSize - 2, 4);
  ASSERT_TRUE(gap.has_value());
  EXPECT_EQ(gap->data, (Bytes{0, 0, 0, 0}));
  auto spanning = fs_.Read(f, at - 2, 4);
  ASSERT_TRUE(spanning.has_value());
  EXPECT_EQ(spanning->data, (Bytes{0, 0, 1, 2}));

  // Truncate into the data, then extend: the cut bytes come back as zeros.
  ASSERT_TRUE(fs_.Write(f, 0, Bytes(100, 9)).has_value());
  SetAttrRequest shrink;
  shrink.size = 50;
  ASSERT_TRUE(fs_.SetAttr(f, shrink).has_value());
  SetAttrRequest grow;
  grow.size = 100;
  ASSERT_TRUE(fs_.SetAttr(f, grow).has_value());
  auto tail = fs_.Read(f, 48, 4);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->data, (Bytes{9, 9, 0, 0}));
  EXPECT_EQ(fs_.TotalBytes(), 100u);
}

// Property sweep: a write at any offset/length yields size = max(old_end,
// offset+len) and the data reads back.
class WriteSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(WriteSweep, SizeInvariant) {
  SimTime now = 0;
  MemFs fs(&now);
  auto f = fs.Create(fs.root(), "f", 0644);
  ASSERT_TRUE(f.has_value());
  const auto [offset, len] = GetParam();
  Bytes data(static_cast<std::size_t>(len), 0x5a);
  auto size = fs.Write(*f, static_cast<std::uint64_t>(offset), data);
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, static_cast<std::uint64_t>(offset + len));
  auto read = fs.Read(*f, static_cast<std::uint64_t>(offset),
                      static_cast<std::uint32_t>(len));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->data, data);
}

INSTANTIATE_TEST_SUITE_P(
    OffsetsAndLengths, WriteSweep,
    ::testing::Values(std::pair{0, 1}, std::pair{0, 32768}, std::pair{100, 1},
                      std::pair{32768, 32768}, std::pair{1, 3},
                      std::pair{65535, 2}));

}  // namespace
}  // namespace gvfs::memfs
