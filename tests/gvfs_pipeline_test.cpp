// Tests for the windowed RPC pipelining paths: the concurrency toolkit
// (Semaphore/WaitGroup), sliding-window write-back, sequential read-ahead,
// and their interaction with recalls, crashes, and the serialized defaults.
//
// NOTE: coroutine lambdas must not capture (the closure dies before the
// frame); every coroutine here takes its state via parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "sim/concurrency.h"
#include "sim/scheduler.h"
#include "sim/task.h"
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

constexpr OpenFlags kRead{};
constexpr OpenFlags kWrite{.read = true, .write = true};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};
constexpr std::size_t kBlock = 32 * 1024;

// ---------------------------------------------------------------------------
// Toolkit unit tests
// ---------------------------------------------------------------------------

struct Gauge {
  int current = 0;
  int peak = 0;
};

sim::Task<void> HoldPermit(sim::Scheduler* sched, sim::Semaphore* sem,
                           Gauge* gauge) {
  co_await sem->Acquire();
  gauge->current++;
  gauge->peak = std::max(gauge->peak, gauge->current);
  co_await sim::Sleep(*sched, Seconds(1));
  gauge->current--;
  sem->Release();
}

TEST(SemaphoreTest, BoundsConcurrency) {
  sim::Scheduler sched;
  sim::Semaphore sem(sched, 3);
  Gauge gauge;
  for (int i = 0; i < 10; ++i) sim::Spawn(HoldPermit(&sched, &sem, &gauge));
  sched.Run();
  EXPECT_EQ(gauge.peak, 3);
  EXPECT_EQ(gauge.current, 0);
  EXPECT_EQ(sem.available(), 3u);
  // 10 holders, 3 at a time, 1 s each: four rounds.
  EXPECT_EQ(sched.Now(), Seconds(4));
}

sim::Task<void> SleepAndCount(sim::Scheduler* sched, Duration d, int* done) {
  co_await sim::Sleep(*sched, d);
  ++*done;
}

sim::Task<void> JoinGroup(sim::Scheduler* sched, sim::WaitGroup* wg, int* done,
                          bool* joined) {
  for (int i = 1; i <= 5; ++i) {
    wg->Spawn(SleepAndCount(sched, Seconds(i), done));
  }
  co_await wg->Wait();
  *joined = true;
  EXPECT_EQ(*done, 5);
  // Wait() completes immediately when nothing is outstanding.
  co_await wg->Wait();
}

TEST(WaitGroupTest, WaitJoinsAllSpawnedTasks) {
  sim::Scheduler sched;
  sim::WaitGroup wg(sched);
  int done = 0;
  bool joined = false;
  sim::Spawn(JoinGroup(&sched, &wg, &done, &joined));
  sched.Run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(wg.Outstanding(), 0);
  EXPECT_EQ(sched.Now(), Seconds(5));  // slowest task, not the sum
}

// ---------------------------------------------------------------------------
// End-to-end pipelining
// ---------------------------------------------------------------------------

SessionConfig PipelineConfig() {
  SessionConfig config;
  config.model = ConsistencyModel::kDelegationCallback;
  config.cache_mode = CacheMode::kWriteBack;
  config.deleg_expiry = Seconds(600);
  config.deleg_renew = Seconds(480);
  config.wb_flush_period = 0;  // flush driven by recalls/shutdown
  return config;
}

MountOptions NoacKernel() {
  MountOptions options;
  options.noac = true;
  return options;
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    bed_.AddWanClient();
    bed_.AddWanClient();
  }

  sim::Task<void> Advance(Duration d) { co_await sim::Sleep(bed_.sched(), d); }

  /// Dirties `blocks` cache blocks of `path` on mount 0 (block i holds
  /// i + 1). The first WRITE goes upstream to acquire the write delegation;
  /// the rest are absorbed into the disk cache.
  void DirtyFile(GvfsSession& session, const std::string& path, int blocks) {
    auto fd = RunTask(bed_.sched(), session.mount(0).Open(path, kCreateWrite));
    ASSERT_TRUE(fd.has_value());
    for (int i = 0; i < blocks; ++i) {
      Bytes payload(kBlock, static_cast<std::uint8_t>(i + 1));
      (void)RunTask(bed_.sched(),
                    session.mount(0).Write(*fd, i * kBlock, payload));
    }
    (void)RunTask(bed_.sched(), session.mount(0).Close(*fd));
  }

  Testbed bed_;
};

TEST_F(PipelineTest, WindowedFlushRespectsWindowCap) {
  SessionConfig config = PipelineConfig();
  config.wb_window = 4;
  auto& session = bed_.CreateSession(config, {0}, NoacKernel());
  DirtyFile(session, "/win", 13);
  const nfs3::Fh fh{1, *bed_.fs().ResolvePath("/win")};
  const std::size_t dirty = session.proxy(0).cache().DirtyBlockCount(fh);
  ASSERT_GE(dirty, 12u);

  session.stats->Reset();
  (void)RunTask(bed_.sched(), session.proxy(0).FlushAll());

  // The window filled up but never exceeded its cap, and every dirty block
  // went out exactly once, covered by one coalesced COMMIT.
  EXPECT_EQ(session.stats->PeakInFlight(), 4u);
  EXPECT_EQ(session.stats->Calls("WRITE"), dirty);
  EXPECT_EQ(session.stats->Calls("COMMIT"), 1u);
  EXPECT_EQ(session.proxy(0).cache().DirtyBlockCount(fh), 0u);

  // The parallel flush wrote correct data for every block.
  auto ino = bed_.fs().ResolvePath("/win");
  for (int i = 0; i < 13; ++i) {
    auto data = bed_.fs().Read(*ino, i * kBlock, kBlock);
    ASSERT_TRUE(data.has_value());
    ASSERT_FALSE(data->data.empty());
    EXPECT_EQ(data->data[0], i + 1) << "block " << i;
  }
}

TEST_F(PipelineTest, DefaultWindowKeepsSerialRpcPattern) {
  // wb_window defaults to 1: the flush must look exactly like the
  // pre-pipelining serial path (one WRITE in flight at a time).
  auto& session = bed_.CreateSession(PipelineConfig(), {0}, NoacKernel());
  ASSERT_EQ(session.proxy(0).config().wb_window, 1u);
  ASSERT_EQ(session.proxy(0).config().read_ahead, 0u);
  DirtyFile(session, "/serial", 9);
  const nfs3::Fh fh{1, *bed_.fs().ResolvePath("/serial")};
  const std::size_t dirty = session.proxy(0).cache().DirtyBlockCount(fh);
  ASSERT_GE(dirty, 8u);

  session.stats->Reset();
  (void)RunTask(bed_.sched(), session.proxy(0).FlushAll());
  EXPECT_EQ(session.stats->PeakInFlight(), 1u);
  EXPECT_EQ(session.stats->Calls("WRITE"), dirty);
  EXPECT_EQ(session.stats->Calls("COMMIT"), 1u);
}

TEST_F(PipelineTest, WindowedFlushIsFasterThanSerial) {
  SessionConfig serial = PipelineConfig();
  SessionConfig windowed = PipelineConfig();
  windowed.wb_window = 8;
  auto& s1 = bed_.CreateSession(serial, {0}, NoacKernel());
  auto& s2 = bed_.CreateSession(windowed, {1}, NoacKernel());
  DirtyFile(s1, "/a", 16);
  {
    // s2 was created on client 1 only, so its single mount/proxy is index 0.
    auto fd = RunTask(bed_.sched(), s2.mount(0).Open("/b", kCreateWrite));
    for (int i = 0; i < 16; ++i) {
      (void)RunTask(bed_.sched(), s2.mount(0).Write(
                                      *fd, i * kBlock,
                                      Bytes(kBlock, static_cast<std::uint8_t>(i + 1))));
    }
    (void)RunTask(bed_.sched(), s2.mount(0).Close(*fd));
  }

  const SimTime t0 = bed_.sched().Now();
  (void)RunTask(bed_.sched(), s1.proxy(0).FlushAll());
  const Duration serial_elapsed = bed_.sched().Now() - t0;

  const SimTime t1 = bed_.sched().Now();
  (void)RunTask(bed_.sched(), s2.proxy(0).FlushAll());
  const Duration windowed_elapsed = bed_.sched().Now() - t1;

  // The window overlaps the per-RPC round trips; even on a shared 4 Mbps
  // link (where serialization delay is irreducible) it is clearly faster.
  EXPECT_LT(windowed_elapsed, serial_elapsed);
}

TEST_F(PipelineTest, RecallMidFlushDrainsWindowBeforeRelease) {
  SessionConfig config = PipelineConfig();
  config.wb_window = 8;
  auto& session = bed_.CreateSession(config, {0, 1}, NoacKernel());
  DirtyFile(session, "/contended", 16);
  const nfs3::Fh fh{1, *bed_.fs().ResolvePath("/contended")};
  const std::size_t dirty = session.proxy(0).cache().DirtyBlockCount(fh);
  ASSERT_GE(dirty, 15u);
  session.stats->Reset();

  // Kick off the windowed flush in the background, then read from the other
  // client while the window is in flight: the recall's flush must wait for
  // the window to drain (per-file lock), and the reader then sees every
  // byte — with no duplicate WRITEs from the two flushers racing.
  sim::Spawn(session.proxy(0).FlushAll());
  auto fd_b = RunTask(bed_.sched(), session.mount(1).Open("/contended", kRead));
  ASSERT_TRUE(fd_b.has_value());
  auto data = RunTask(bed_.sched(), session.mount(1).Read(*fd_b, 9 * kBlock, kBlock));
  ASSERT_TRUE(data.has_value());
  ASSERT_FALSE(data->empty());
  EXPECT_EQ((*data)[0], 10);

  (void)RunTask(bed_.sched(), Advance(Seconds(5)));
  EXPECT_EQ(session.stats->Calls("WRITE"), dirty);
  EXPECT_EQ(session.proxy(0).cache().DirtyBlockCount(fh), 0u);
  EXPECT_GT(session.proxy(0).stats().callbacks_received, 0u);
}

TEST_F(PipelineTest, CrashMidFlushNeverMarksBlocksClean) {
  SessionConfig config = PipelineConfig();
  config.wb_window = 8;
  auto& session = bed_.CreateSession(config, {0}, NoacKernel());
  DirtyFile(session, "/crashy", 16);
  const nfs3::Fh fh{1, *bed_.fs().ResolvePath("/crashy")};
  const std::size_t dirty_before = session.proxy(0).cache().DirtyBlockCount(fh);
  ASSERT_GE(dirty_before, 15u);
  const std::uint64_t flushed_before = session.proxy(0).stats().blocks_flushed;

  // Let the window get airborne, then crash with WRITEs in flight.
  sim::Spawn(session.proxy(0).FlushAll());
  (void)RunTask(bed_.sched(), Advance(Milliseconds(250)));
  session.proxy(0).Crash();
  (void)RunTask(bed_.sched(), Advance(Seconds(30)));  // stale tasks drain

  // Accounting invariant: a WRITE whose reply arrived after the crash must
  // not have marked its block clean (the recovery re-scan depends on the
  // dirty flags). Every block is either still dirty or was counted flushed
  // strictly before the crash.
  const std::uint64_t flushed =
      session.proxy(0).stats().blocks_flushed - flushed_before;
  EXPECT_EQ(session.proxy(0).cache().DirtyBlockCount(fh) + flushed, dirty_before);
  EXPECT_LT(flushed, dirty_before);  // the crash really did interrupt it
}

TEST_F(PipelineTest, ReadAheadPipelinesSequentialScan) {
  SessionConfig config = PipelineConfig();
  config.read_ahead = 4;
  auto& session = bed_.CreateSession(config, {0}, NoacKernel());

  // Materialize a 16-block file on the server.
  auto ino = bed_.fs().Create(bed_.fs().root(), "seq", 0644);
  ASSERT_TRUE(ino.has_value());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(bed_.fs()
                    .Write(*ino, i * kBlock,
                           Bytes(kBlock, static_cast<std::uint8_t>(i + 1)))
                    .has_value());
  }

  auto fd = RunTask(bed_.sched(), session.mount(0).Open("/seq", kRead));
  ASSERT_TRUE(fd.has_value());
  for (int i = 0; i < 16; ++i) {
    auto data = RunTask(bed_.sched(), session.mount(0).Read(*fd, i * kBlock, kBlock));
    ASSERT_TRUE(data.has_value());
    ASSERT_FALSE(data->empty());
    EXPECT_EQ((*data)[0], i + 1) << "block " << i;
  }

  // The scan was detected and pipelined: blocks arrived via read-ahead, and
  // no block was fetched twice (demand misses join the in-flight prefetch).
  EXPECT_GT(session.proxy(0).stats().blocks_prefetched, 8u);
  EXPECT_LE(session.stats->Calls("READ"), 16u);
}

TEST_F(PipelineTest, ReadAheadNeverServesStaleBlockAfterInvalidation) {
  SessionConfig config = PipelineConfig();
  config.read_ahead = 4;
  auto& session = bed_.CreateSession(config, {0, 1}, NoacKernel());

  auto ino = bed_.fs().Create(bed_.fs().root(), "hot", 0644);
  ASSERT_TRUE(ino.has_value());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(bed_.fs().Write(*ino, i * kBlock, Bytes(kBlock, 1)).has_value());
  }

  // Client 0 scans the head of the file, which launches prefetches of the
  // blocks behind the read pointer.
  auto fd = RunTask(bed_.sched(), session.mount(0).Open("/hot", kRead));
  ASSERT_TRUE(fd.has_value());
  (void)RunTask(bed_.sched(), session.mount(0).Read(*fd, 0, kBlock));
  (void)RunTask(bed_.sched(), session.mount(0).Read(*fd, kBlock, kBlock));

  // Client 1 overwrites block 4; strong consistency recalls client 0's read
  // delegation before the write proceeds.
  auto fd_b = RunTask(bed_.sched(), session.mount(1).Open("/hot", kWrite));
  ASSERT_TRUE(fd_b.has_value());
  (void)RunTask(bed_.sched(), session.mount(1).Write(*fd_b, 4 * kBlock,
                                                     Bytes(kBlock, 9)));
  (void)RunTask(bed_.sched(), session.mount(1).Close(*fd_b));
  (void)RunTask(bed_.sched(), session.proxy(1).FlushAll());

  // Client 0 now reads block 4. Whatever the prefetches were doing around
  // the invalidation, it must see client 1's bytes — a prefetched copy must
  // never re-validate invalidated attributes or shadow the fresh data.
  auto data = RunTask(bed_.sched(), session.mount(0).Read(*fd, 4 * kBlock, kBlock));
  ASSERT_TRUE(data.has_value());
  ASSERT_FALSE(data->empty());
  EXPECT_EQ((*data)[0], 9);
}

TEST_F(PipelineTest, ShutdownDrainsWindowedFlush) {
  SessionConfig config = PipelineConfig();
  config.wb_window = 8;
  auto& session = bed_.CreateSession(config, {0}, NoacKernel());
  DirtyFile(session, "/bye", 12);
  const nfs3::Fh fh{1, *bed_.fs().ResolvePath("/bye")};
  ASSERT_GE(session.proxy(0).cache().DirtyBlockCount(fh), 11u);

  (void)RunTask(bed_.sched(), session.proxy(0).Shutdown());
  EXPECT_FALSE(session.proxy(0).running());
  EXPECT_EQ(session.proxy(0).cache().DirtyBlockCount(fh), 0u);

  auto ino = bed_.fs().ResolvePath("/bye");
  for (int i = 0; i < 12; ++i) {
    auto data = bed_.fs().Read(*ino, i * kBlock, kBlock);
    ASSERT_TRUE(data.has_value());
    ASSERT_FALSE(data->data.empty());
    EXPECT_EQ(data->data[0], i + 1) << "block " << i;
  }
}

// Regression: FlushAll used to open one full WRITE window per file, so 30
// dirty files put 240 WRITEs on the 4 Mbps link at once. Fixed-timeout
// retransmissions then swamped the link, the last WRITEs of several files
// never got a reply, and Shutdown left those files short on the server.
// One proxy-wide window bounds every pipelined WRITE.
struct ManyFilesFlush {
  std::vector<std::uint64_t> sizes;
  std::vector<std::uint64_t> server_sizes;
  Duration shutdown_time = 0;
};

ManyFilesFlush FlushManyFiles(std::uint32_t wb_window) {
  Testbed bed;
  bed.AddWanClient();
  SessionConfig config = PipelineConfig();
  config.wb_window = wb_window;
  auto& session = bed.CreateSession(config, {0}, NoacKernel());
  ManyFilesFlush out;
  Rng rng(7);
  for (int f = 0; f < 30; ++f) {
    const std::string path = "/f" + std::to_string(f);
    const auto size = static_cast<std::uint64_t>(rng.Range(32 * 1024, 640 * 1024));
    out.sizes.push_back(size);
    auto fd = RunTask(bed.sched(), session.mount(0).Open(path, kCreateWrite));
    EXPECT_TRUE(fd.has_value());
    for (std::uint64_t off = 0; off < size; off += kBlock) {
      const std::uint64_t len = std::min<std::uint64_t>(kBlock, size - off);
      (void)RunTask(bed.sched(),
                    session.mount(0).Write(*fd, off, Bytes(len, static_cast<std::uint8_t>(f))));
    }
    (void)RunTask(bed.sched(), session.mount(0).Close(*fd));
  }
  const SimTime start = bed.sched().Now();
  RunTask(bed.sched(), session.Shutdown());
  out.shutdown_time = bed.sched().Now() - start;
  for (int f = 0; f < 30; ++f) {
    auto ino = bed.fs().ResolvePath("/f" + std::to_string(f));
    auto attr = ino ? bed.fs().GetAttr(*ino) : memfs::FsResult<memfs::InodeAttr>(
                                                   Unexpected(memfs::FsError::kNoEnt));
    out.server_sizes.push_back(attr ? attr->size : 0);
  }
  return out;
}

TEST(PipelineFlushTest, ConcurrentFileFlushesShareOneWindow) {
  const ManyFilesFlush windowed = FlushManyFiles(8);
  const ManyFilesFlush serial = FlushManyFiles(1);
  EXPECT_EQ(windowed.server_sizes, windowed.sizes);
  EXPECT_EQ(serial.server_sizes, serial.sizes);
  EXPECT_LE(windowed.shutdown_time, serial.shutdown_time);
  RecordProperty("windowed_flush_ms", static_cast<int>(windowed.shutdown_time / kMillisecond));
  RecordProperty("serial_flush_ms", static_cast<int>(serial.shutdown_time / kMillisecond));
}

}  // namespace
}  // namespace gvfs::workloads
