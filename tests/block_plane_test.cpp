// End-to-end tests for the block plane (common/block.h): one WRITE's block
// is shared by the kernel page cache, the proxy disk cache and memfs, and a
// later write copies on write instead of changing it under them. Also: a
// REMOVE through the proxy lets go of the deleted file's blocks.
#include <gtest/gtest.h>

#include "test_util.h"
#include "workloads/testbed.h"

namespace gvfs::workloads {
namespace {

using kclient::MountOptions;
using kclient::OpenFlags;
using proxy::CacheMode;
using proxy::ConsistencyModel;
using proxy::SessionConfig;
using testutil::RunTask;

constexpr OpenFlags kWrite{.read = true, .write = true};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};
constexpr std::size_t kBlock = 32 * 1024;

/// fig5's GVFS2 session: delegations, write-through, noac kernel.
SessionConfig WriteThroughConfig() {
  SessionConfig config;
  config.model = ConsistencyModel::kDelegationCallback;
  config.cache_mode = CacheMode::kReadOnly;
  return config;
}

MountOptions NoacKernel() {
  MountOptions options;
  options.noac = true;
  return options;
}

class BlockPlaneTest : public ::testing::Test {
 protected:
  BlockPlaneTest() { bed_.AddWanClient(); }

  void WriteFile(kclient::KernelClient& mount, const std::string& path,
                 std::uint64_t offset, const Bytes& data, OpenFlags flags) {
    auto fd = RunTask(bed_.sched(), mount.Open(path, flags));
    ASSERT_TRUE(fd.has_value());
    auto wrote = RunTask(bed_.sched(), mount.Write(*fd, offset, data));
    ASSERT_TRUE(wrote.has_value());
    ASSERT_TRUE(RunTask(bed_.sched(), mount.Close(*fd)).has_value());
  }

  nfs3::Fh FhOf(const std::string& path) {
    return nfs3::Fh{1, *bed_.fs().ResolvePath(path)};
  }

  Bytes ServerBytes(const std::string& path) {
    auto data = bed_.fs().Read(*bed_.fs().ResolvePath(path), 0, kBlock);
    EXPECT_TRUE(data.has_value());
    return data->data;
  }

  Testbed bed_;
};

TEST_F(BlockPlaneTest, OneWriteIsOneSharedBlockAndRewritesCopyOnWrite) {
  auto& session = bed_.CreateSession(WriteThroughConfig(), {0}, NoacKernel());
  auto& mount = session.mount(0);
  WriteFile(mount, "/f", 0, Bytes(kBlock, 0x11), kCreateWrite);

  // The WRITE's block reached memfs and the disk cache by reference.
  const nfs3::Fh fh = FhOf("/f");
  const proxy::DiskCache::Block* cached = session.proxy(0).cache().FindBlock(fh, 0);
  ASSERT_NE(cached, nullptr);
  auto stored = bed_.fs().ReadBlock(fh.ino, 0, kBlock);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->data.data(), cached->data.data());

  // Rewrite part of the block in the page cache, before it is flushed: the
  // server and the disk cache still hold the written bytes.
  auto fd = RunTask(bed_.sched(), mount.Open("/f", kWrite));
  ASSERT_TRUE(fd.has_value());
  ASSERT_TRUE(RunTask(bed_.sched(), mount.Write(*fd, 5, Bytes(10, 0x22))).has_value());
  EXPECT_EQ(ServerBytes("/f"), Bytes(kBlock, 0x11));
  cached = session.proxy(0).cache().FindBlock(fh, 0);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->data, Bytes(kBlock, 0x11));

  // The flush carries the rewritten copy.
  ASSERT_TRUE(RunTask(bed_.sched(), mount.Close(*fd)).has_value());
  Bytes expected(kBlock, 0x11);
  std::fill(expected.begin() + 5, expected.begin() + 15, 0x22);
  EXPECT_EQ(ServerBytes("/f"), expected);
}

TEST_F(BlockPlaneTest, RemoveThroughProxyDropsTheVictim) {
  auto& session = bed_.CreateSession(WriteThroughConfig(), {0}, NoacKernel());
  auto& mount = session.mount(0);
  ASSERT_TRUE(RunTask(bed_.sched(), mount.Mkdir("/d")).has_value());
  WriteFile(mount, "/d/a", 0, Bytes(kBlock, 1), kCreateWrite);
  // A second CREATE in the directory stales the proxy's name entry for "a".
  WriteFile(mount, "/d/b", 0, Bytes(kBlock, 2), kCreateWrite);
  const nfs3::Fh a = FhOf("/d/a");
  const nfs3::Fh b = FhOf("/d/b");
  proxy::DiskCache& cache = session.proxy(0).cache();
  ASSERT_NE(cache.FindBlock(a, 0), nullptr);
  ASSERT_NE(cache.ValidAttr(a), nullptr);
  const std::uint64_t before = cache.CachedBytes();

  ASSERT_TRUE(RunTask(bed_.sched(), mount.Unlink("/d/a")).has_value());
  EXPECT_EQ(cache.ValidAttr(a), nullptr);
  EXPECT_EQ(cache.FindBlock(a, 0), nullptr);
  EXPECT_EQ(cache.CachedBytes(), before - kBlock);
  EXPECT_NE(cache.FindBlock(b, 0), nullptr);  // its neighbour is untouched
}

}  // namespace
}  // namespace gvfs::workloads
