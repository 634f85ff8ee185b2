// postmark-deleg: a PostMark-shaped transaction stream on one WAN client
// over fig5's GVFS2 session (delegation callbacks, noac kernel, read-ahead 8,
// write window 8, write-through), with every byte checked.
//
// Set-up is the testbed, the session and the file pool, which PostMark
// itself creates over the wire; the pool's data is then dropped from the
// proxy's disk cache. The timed phase is the transactions. After
// it, a fixed probe reproduces fault F1 (see content.h) once per round, and
// every surviving file is compared with the shadow straight from the
// server's memfs after the session shut down.
#include <algorithm>
#include <string>

#include "common/rng.h"
#include "content.h"
#include "harness.h"

namespace perfbench {

namespace {

using gvfs::Bytes;
using gvfs::Rng;
using gvfs::kclient::KernelClient;
using gvfs::kclient::OpenFlags;

constexpr int kFiles = 600;
constexpr int kSubdirs = 100;
constexpr int kTransactions = 3000;
constexpr std::uint64_t kMinSize = 32 * 1024;
constexpr std::uint64_t kMaxSize = 640 * 1024;
constexpr std::uint32_t kBlock = 32 * 1024;
constexpr int kReadBias = 9;  // of 10 read/append transactions, reads
constexpr int kRwBias = 5;    // of 10 transactions, read/append
constexpr std::uint64_t kMinAppend = 1;
constexpr std::uint64_t kMaxAppend = 32 * 1024;
// F1 probe: the minimal reproduction (40 000 bytes, drop caches, append).
constexpr std::uint64_t kProbeSize = 40000;
constexpr std::uint64_t kProbeAppend = 8000;
const char* const kProbePath = "/probe/f1";

struct PoolFile {
  std::string path;
  ShadowFile shadow;
  bool exists = false;
};

class Postmark {
 public:
  Postmark(const RoundSpec& spec, RoundContext& ctx,
           gvfs::sim::Scheduler& sched, KernelClient& mount, RoundOutcome& out)
      : spec_(spec), ctx_(ctx), sched_(sched), m_(ctx.meter), mount_(mount),
        out_(out), rng_(spec.seed) {}

  gvfs::sim::Task<void> CreatePool() {
    for (int d = 0; d < kSubdirs; ++d) {
      auto r = co_await m_.Call(VfsOp::kMkdir, 0,
                                mount_.Mkdir("/p" + std::to_string(d)));
      if (!r) out_.Fail("mkdir failed during set-up");
    }
    auto r = co_await m_.Call(VfsOp::kMkdir, 0, mount_.Mkdir("/probe"));
    if (!r) out_.Fail("mkdir /probe failed during set-up");
    pool_.resize(kFiles);
    for (auto& file : pool_) co_await Create(file, 0);
  }

  /// Drops the pool's file data from the proxy's disk cache, which pool
  /// creation filled, so that timed reads missing the kernel page cache
  /// cross the WAN (READ and read-ahead) as on a fresh proxy.
  void DropProxyData(gvfs::proxy::DiskCache& cache, gvfs::nfs3::Nfs3Server& nfsd,
                     gvfs::memfs::MemFs& fs) {
    for (const auto& file : pool_) {
      if (auto ino = fs.ResolvePath(file.path)) cache.DropFileData(nfsd.FhFor(*ino));
    }
  }

  gvfs::sim::Task<void> Transactions() {
    // PostMark's biases, applied as exact shares of a shuffled sequence so
    // that every seed runs the same mix: half read/append (9 reads to 1
    // append), half create/delete.
    enum Kind { kReadKind, kAppendKind, kCreateDeleteKind };
    std::vector<Kind> kinds;
    const int rw = kTransactions * kRwBias / 10;
    const int reads = rw * kReadBias / 10;
    kinds.insert(kinds.end(), reads, kReadKind);
    kinds.insert(kinds.end(), rw - reads, kAppendKind);
    kinds.insert(kinds.end(), kTransactions - rw, kCreateDeleteKind);
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng_.Below(i)]);
    }
    for (const Kind kind : kinds) {
      PoolFile& file = pool_[rng_.Below(pool_.size())];
      const std::uint64_t op = m_.BeginOp();
      const std::int64_t w0 = ctx_.tracer.on() ? WallNs() : 0;
      const SimTime v0 = sched_.Now();
      const char* name = "txn.create";
      if (!file.exists) {
        co_await Create(file, op);
      } else if (kind == kCreateDeleteKind) {
        name = "txn.delete";
        co_await Delete(file, op);
      } else if (kind == kReadKind) {
        name = "txn.read";
        co_await ReadWhole(file, op);
      } else {
        name = "txn.append";
        co_await Append(file, op);
      }
      m_.EndOp(op, name, w0, v0);
    }
  }

  /// The F1 reproduction: write 40 000 bytes, drop the kernel caches,
  /// reopen and append at the unaligned end of file.
  gvfs::sim::Task<void> Probe() {
    probe_.path = kProbePath;
    probe_.exists = true;
    OpenFlags create{.read = true, .write = true, .create = true};
    auto fd = co_await m_.Call(VfsOp::kOpen, 0, mount_.Open(kProbePath, create));
    if (!fd) co_return out_.Fail("probe open failed");
    const std::uint64_t tag0 = NextTag();
    Bytes data = MakeContent(tag0, 0, kProbeSize);
    auto w = co_await m_.Call(VfsOp::kWrite, 0, mount_.Write(*fd, 0, data));
    if (!w) co_return out_.Fail("probe write failed");
    probe_.shadow.Append(kProbeSize, tag0);
    (void)co_await m_.Call(VfsOp::kClose, 0, mount_.Close(*fd));
    mount_.DropCaches();
    OpenFlags rw{.read = true, .write = true};
    fd = co_await m_.Call(VfsOp::kOpen, 0, mount_.Open(kProbePath, rw));
    if (!fd) co_return out_.Fail("probe reopen failed");
    const std::uint64_t tag1 = NextTag();
    data = MakeContent(tag1, kProbeSize, kProbeAppend);
    w = co_await m_.Call(VfsOp::kWrite, 0, mount_.Write(*fd, kProbeSize, data));
    if (!w) co_return out_.Fail("probe append failed");
    probe_.shadow.Append(kProbeAppend, tag1);
    auto c = co_await m_.Call(VfsOp::kClose, 0, mount_.Close(*fd));
    if (!c) out_.Fail("probe close failed");
  }

  /// After shutdown: every surviving file, read straight from the server's
  /// store, must equal its shadow; live bytes and inode count must match.
  void CheckServer(gvfs::memfs::MemFs& fs) {
    if (spec_.inject == "shorten-file") ShortenOneFile(fs);
    if (spec_.inject == "f1-zero") ZeroOneTail(fs);
    std::uint64_t live = 0;
    std::uint64_t files = 0;
    auto check = [&](const PoolFile& file) {
      ++files;
      live += file.shadow.size();
      auto ino = fs.ResolvePath(file.path);
      if (!ino) return out_.Fail("server lost " + file.path);
      auto attr = fs.GetAttr(*ino);
      auto data = fs.Read(*ino, 0, static_cast<std::uint32_t>(attr->size));
      const Verdict v = CheckStoredFile(file.shadow, data->data, kBlock);
      if (v == Verdict::kF1) {
        ++out_.failed;
      } else if (v != Verdict::kMatch) {
        out_.Fail("server copy of " + file.path + " differs (size " +
                  std::to_string(attr->size) + ", want " +
                  std::to_string(file.shadow.size()) + ")");
      }
    };
    for (const auto& file : pool_) {
      if (file.exists) check(file);
    }
    if (probe_.exists) check(probe_);
    if (fs.TotalBytes() != live) {
      out_.Fail("memfs holds " + std::to_string(fs.TotalBytes()) +
                " live bytes, shadow " + std::to_string(live));
    }
    const std::uint64_t inodes = 1 + kSubdirs + 1 + files;  // root, dirs, /probe
    if (fs.InodeCount() != inodes) {
      out_.Fail("memfs holds " + std::to_string(fs.InodeCount()) +
                " inodes, expected " + std::to_string(inodes));
    }
  }

 private:
  /// File sizes, uniform over [kMinSize, kMaxSize], as a golden-ratio
  /// (Weyl) sequence from a seeded start: any run of consecutive sizes
  /// covers the range evenly, so every seed's files carry nearly the same
  /// bytes and the figures move little from seed to seed.
  std::uint64_t NextSize() {
    if (sizes_made_ == 0) size_phase_ = rng_.NextDouble();
    double u = size_phase_ + 0.6180339887498949 * static_cast<double>(sizes_made_++);
    u -= static_cast<double>(static_cast<std::uint64_t>(u));
    return kMinSize +
           static_cast<std::uint64_t>(u * static_cast<double>(kMaxSize - kMinSize + 1));
  }

  std::uint64_t NextTag() { return Mix(spec_.seed * 0x100000001b3ULL + ++writes_); }

  gvfs::sim::Task<void> Create(PoolFile& file, std::uint64_t op) {
    file.path = "/p" + std::to_string(rng_.Below(kSubdirs)) + "/f" +
                std::to_string(next_file_id_++);
    const std::uint64_t size = NextSize();
    file.shadow = ShadowFile{};
    OpenFlags flags{.read = true, .write = true, .create = true};
    auto fd = co_await m_.Call(VfsOp::kOpen, op, mount_.Open(file.path, flags));
    if (!fd) co_return out_.Fail("create " + file.path + " failed");
    const std::uint64_t tag = NextTag();
    Bytes block;
    for (std::uint64_t off = 0; off < size; off += kBlock) {
      const std::uint64_t len = std::min<std::uint64_t>(kBlock, size - off);
      m_.Own(op, "generate", [&] {
        block.resize(len);
        FillContent(tag, off, len, block.data());
        return 0;
      });
      auto w = co_await m_.Call(VfsOp::kWrite, op, mount_.Write(*fd, off, block));
      if (!w || *w != len) co_return out_.Fail("write " + file.path + " failed");
    }
    file.shadow.Append(size, tag);
    auto c = co_await m_.Call(VfsOp::kClose, op, mount_.Close(*fd));
    if (!c) out_.Fail("close " + file.path + " failed");
    file.exists = true;
  }

  gvfs::sim::Task<void> Delete(PoolFile& file, std::uint64_t op) {
    auto r = co_await m_.Call(VfsOp::kUnlink, op, mount_.Unlink(file.path));
    if (!r) out_.Fail("unlink " + file.path + " failed");
    file.exists = false;
  }

  /// Reads [offset, offset + len) and checks it; false on a failed call.
  gvfs::sim::Task<bool> CheckedRead(const PoolFile& file, gvfs::kclient::Fd fd,
                                    std::uint64_t offset, std::uint64_t len,
                                    std::uint64_t op) {
    auto got = co_await m_.Call(
        VfsOp::kRead, op,
        mount_.Read(fd, offset, static_cast<std::uint32_t>(len)));
    if (!got) {
      out_.Fail("read " + file.path + " failed");
      co_return false;
    }
    if (spec_.inject == "flip-read" && !flipped_ && !got->empty()) {
      (*got)[got->size() / 2] ^= 0x01;
      flipped_ = true;
    }
    const Verdict v = m_.Own(op, "check", [&] {
      return CheckRead(file.shadow, offset, len, *got, kBlock);
    });
    if (v == Verdict::kF1) {
      op_failed_ = true;
    } else if (v != Verdict::kMatch) {
      out_.Fail("read of " + file.path + " at " + std::to_string(offset) +
                " returned wrong bytes");
    }
    co_return true;
  }

  gvfs::sim::Task<void> ReadWhole(PoolFile& file, std::uint64_t op) {
    op_failed_ = false;
    auto fd = co_await m_.Call(VfsOp::kOpen, op, mount_.Open(file.path, OpenFlags{}));
    if (!fd) co_return out_.Fail("open " + file.path + " failed");
    for (std::uint64_t off = 0; off < file.shadow.size(); off += kBlock) {
      if (!co_await CheckedRead(file, *fd, off, kBlock, op)) co_return;
    }
    auto c = co_await m_.Call(VfsOp::kClose, op, mount_.Close(*fd));
    if (!c) out_.Fail("close " + file.path + " failed");
    if (op_failed_) ++out_.failed;
  }

  /// PostMark's append: a random-length write at the (unaligned) end of
  /// file. The tail fragment is read and checked first, which puts the
  /// tail block in the kernel page cache, so that F1 cannot strike here
  /// (see README.md, "F1's failed operations").
  gvfs::sim::Task<void> Append(PoolFile& file, std::uint64_t op) {
    op_failed_ = false;
    OpenFlags flags{.read = true, .write = true};
    auto fd = co_await m_.Call(VfsOp::kOpen, op, mount_.Open(file.path, flags));
    if (!fd) co_return out_.Fail("open " + file.path + " failed");
    const std::uint64_t eof = file.shadow.size();
    const std::uint64_t tail = eof % kBlock;
    if (tail != 0 && !co_await CheckedRead(file, *fd, eof - tail, tail, op)) {
      co_return;
    }
    const auto len = static_cast<std::uint64_t>(
        rng_.Range(static_cast<std::int64_t>(kMinAppend),
                   static_cast<std::int64_t>(kMaxAppend)));
    const std::uint64_t tag = NextTag();
    const Bytes data =
        m_.Own(op, "generate", [&] { return MakeContent(tag, eof, len); });
    auto w = co_await m_.Call(VfsOp::kWrite, op, mount_.Write(*fd, eof, data));
    if (!w || *w != len) co_return out_.Fail("append " + file.path + " failed");
    file.shadow.Append(len, tag);
    auto c = co_await m_.Call(VfsOp::kClose, op, mount_.Close(*fd));
    if (!c) out_.Fail("close " + file.path + " failed");
    if (op_failed_) ++out_.failed;
  }

  /// Seeded fault: a surviving file loses its last block on the server.
  void ShortenOneFile(gvfs::memfs::MemFs& fs) {
    for (const auto& file : pool_) {
      if (!file.exists || file.shadow.size() <= kBlock) continue;
      gvfs::memfs::SetAttrRequest req;
      req.size = file.shadow.size() - kBlock;
      (void)fs.SetAttr(*fs.ResolvePath(file.path), req);
      return;
    }
    out_.Fail("inject shorten-file: no candidate file");
  }

  /// Seeded fault: F1's signature on a file that had an unaligned append.
  void ZeroOneTail(gvfs::memfs::MemFs& fs) {
    for (const auto& file : pool_) {
      if (!file.exists) continue;
      for (std::size_t i = 1; i < file.shadow.extents().size(); ++i) {
        const std::uint64_t eof = file.shadow.extents()[i].begin;
        if (eof % kBlock == 0) continue;
        const std::uint64_t start = eof - eof % kBlock;
        (void)fs.Write(*fs.ResolvePath(file.path), start, Bytes(eof - start, 0));
        return;
      }
    }
    out_.Fail("inject f1-zero: no file with an unaligned append");
  }

  const RoundSpec& spec_;
  RoundContext& ctx_;
  gvfs::sim::Scheduler& sched_;
  Meter& m_;
  KernelClient& mount_;
  RoundOutcome& out_;
  Rng rng_;
  std::vector<PoolFile> pool_;
  PoolFile probe_;
  int next_file_id_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t sizes_made_ = 0;
  double size_phase_ = 0;
  bool flipped_ = false;
  bool op_failed_ = false;
};

}  // namespace

RoundOutcome RunPostmarkRound(const RoundSpec& spec) {
  RoundOutcome out;
  std::int64_t step = WallNs();
  gvfs::workloads::Testbed bed;  // paper WAN: 40 ms RTT, 4 Mbps
  const int client = bed.AddWanClient();
  RoundContext ctx(bed.sched(), spec.trace);
  ctx.EndSetupStep("setup.populate_s", step, &out);
  out.Set("memfs.populate_s", 0);
  out.Set("fleet.rss_kb_per_client", 0);

  step = WallNs();
  gvfs::proxy::SessionConfig config;
  config.model = gvfs::proxy::ConsistencyModel::kDelegationCallback;
  config.cache_mode = gvfs::proxy::CacheMode::kReadOnly;
  config.read_ahead = 8;
  config.wb_window = 8;
  gvfs::kclient::MountOptions kernel;
  kernel.noac = true;
  auto& session = bed.CreateSession(config, {client}, kernel);
  KernelClient& mount = session.mount(0);
  ctx.EndSetupStep("setup.session_s", step, &out);

  Topology topo;
  topo.bed = &bed;
  topo.session_stats = session.stats;
  topo.mounts = {&mount};
  topo.proxies = session.proxies;
  topo.servers = {session.server};
  topo.AddWanClients({bed.client_host(client)}, bed.server_host(),
                     gvfs::kInvalidHost);
  ctx.meter.WatchCaches(topo.mounts, topo.proxies);

  step = WallNs();
  Postmark pm(spec, ctx, bed.sched(), mount, out);
  if (!ctx.stepper.Drive(pm.CreatePool())) out.Fail("pool creation stalled");
  pm.DropProxyData(session.proxy(0).cache(), bed.nfsd(), bed.fs());
  ctx.EndSetupStep("setup.pool_s", step, &out);

  ctx.BeginTimed(topo, &out);
  if (!ctx.stepper.Drive(pm.Transactions())) out.Fail("transactions stalled");
  const double virtual_s = gvfs::ToSeconds(ctx.TimedVirtual());
  ctx.EndTimed(topo, kTransactions + 1, virtual_s, &out);

  if (!ctx.stepper.Drive(pm.Probe())) out.Fail("probe stalled");
  if (!ctx.stepper.Drive(session.Shutdown())) out.Fail("shutdown stalled");
  pm.CheckServer(bed.fs());
  out.attempted = kTransactions + 1;  // the transactions and the probe
  out.spans = ctx.tracer.spans();
  return out;
}

}  // namespace perfbench
