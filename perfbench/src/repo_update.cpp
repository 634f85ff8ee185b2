// repo-update-poll: fig7's software repository over an invalidation-polling
// session (30 s period, 20 000-entry invalidation buffers).
//
// Set-up writes a ~14 K-entry tree straight into the server's memfs (file
// contents derived from path and version) and creates the session. The
// timed phase is eight iterations in which six WAN clients stat, open and
// read their working sets in parallel, then compute; between iterations 4
// and 5 a LAN administrator rewrites the whole MATLAB subtree. Every read
// is classified as the old or the new version and held to the §4.2 bound:
// old before the update, new from update end + poll period + 2·RTT on.
#include <algorithm>
#include <string>

#include "common/rng.h"
#include "content.h"
#include "harness.h"
#include "sim/sync.h"

namespace perfbench {

namespace {

using gvfs::Bytes;
using gvfs::Rng;
using gvfs::kclient::KernelClient;
using gvfs::kclient::OpenFlags;

constexpr int kClients = 6;
constexpr int kMatlabDirs = 96;
constexpr int kFilesPerDir = 140;
constexpr int kMpitbFiles = 540;
constexpr int kWorkingDirs = 6;  // MATLAB toolboxes each client loads
constexpr int kIterations = 8;
constexpr int kUpdateAfter = 4;
constexpr std::uint32_t kReadBytes = 8 * 1024;
constexpr Duration kPollPeriod = gvfs::Seconds(30);
constexpr Duration kCompute = gvfs::Seconds(35);
constexpr Duration kGap = gvfs::Seconds(40);
constexpr std::size_t kInvBuffer = 20000;

struct RepoFile {
  std::string path;
  std::uint64_t size[2] = {0, 0};  // by version
  std::uint64_t hash[2] = {0, 0};  // of the first kReadBytes, by version
};

class RepoUpdate {
 public:
  RepoUpdate(const RoundSpec& spec, RoundContext& ctx,
             gvfs::sim::Scheduler& sched, RoundOutcome& out)
      : spec_(spec), ctx_(ctx), sched_(sched), m_(ctx.meter), out_(out),
        rng_(spec.seed) {}

  /// Writes version 0 of the tree into the server's store.
  void Populate(gvfs::memfs::MemFs& fs) {
    auto matlab = fs.Mkdir(fs.root(), "matlab", 0755);
    for (int d = 0; d < kMatlabDirs; ++d) {
      const std::string dir = "d" + std::to_string(d);
      auto ino = fs.Mkdir(*matlab, dir, 0755);
      for (int f = 0; f < kFilesPerDir; ++f) {
        AddFile(fs, *ino, "/matlab/" + dir, "f" + std::to_string(f) + ".m", 1024, 3072);
      }
    }
    auto mpitb = fs.Mkdir(*matlab, "mpitb", 0755);
    for (int f = 0; f < kMpitbFiles; ++f) {
      AddFile(fs, *mpitb, "/matlab/mpitb", "f" + std::to_string(f) + ".m", 4096, 12288);
    }
    dirs_ = 2 + kMatlabDirs;
    // Each client's working set: all of MPITB plus its own toolboxes.
    for (int c = 0; c < kClients; ++c) {
      std::vector<int> set;
      for (int f = 0; f < kMpitbFiles; ++f) {
        set.push_back(kMatlabDirs * kFilesPerDir + f);
      }
      std::vector<int> dirs(kMatlabDirs);
      for (int d = 0; d < kMatlabDirs; ++d) dirs[d] = d;
      for (int i = 0; i < kWorkingDirs; ++i) {
        std::swap(dirs[i], dirs[i + rng_.Below(kMatlabDirs - i)]);
        for (int f = 0; f < kFilesPerDir; ++f) {
          set.push_back(dirs[i] * kFilesPerDir + f);
        }
      }
      working_.push_back(std::move(set));
    }
  }

  gvfs::sim::Task<void> Run(std::vector<KernelClient*> mounts,
                            KernelClient* admin) {
    for (int iteration = 1; iteration <= kIterations; ++iteration) {
      if (iteration == kUpdateAfter + 1) {
        update_begin_ = sched_.Now();
        co_await Update(admin);
        update_end_ = sched_.Now();
        busy_ += update_end_ - update_begin_;
        co_await gvfs::sim::Sleep(sched_, kGap);
      }
      const SimTime start = sched_.Now();
      std::vector<gvfs::sim::Task<void>> clients;
      SimTime io_end = start;
      for (int c = 0; c < kClients; ++c) {
        clients.push_back(Iteration(mounts[c], c, &io_end));
      }
      co_await gvfs::sim::WhenAll(sched_, std::move(clients));
      busy_ += io_end - start;
      if (iteration < kIterations) co_await gvfs::sim::Sleep(sched_, kGap);
    }
  }

  Duration busy() const { return busy_; }
  std::uint64_t ops() const { return ops_; }
  /// Operations every round attempts: one per working-set file per client
  /// per iteration, one per rewritten file.
  static std::uint64_t PlannedOps() {
    const std::uint64_t per_client = kMpitbFiles + kWorkingDirs * kFilesPerDir;
    return kClients * kIterations * per_client +
           kMatlabDirs * kFilesPerDir + kMpitbFiles;
  }

  void CheckServer(gvfs::memfs::MemFs& fs) {
    std::uint64_t live = 0;
    for (const RepoFile& f : files_) live += f.size[1];
    if (fs.TotalBytes() != live) {
      out_.Fail("memfs holds " + std::to_string(fs.TotalBytes()) +
                " live bytes, model " + std::to_string(live));
    }
    if (fs.InodeCount() != 1 + dirs_ + files_.size()) {
      out_.Fail("memfs inode count " + std::to_string(fs.InodeCount()) +
                " differs from the tree");
    }
  }

 private:
  std::uint64_t Tag(const std::string& path, int version) const {
    return Mix(HashPath(path) ^ Mix(spec_.seed + 0x51ed27 * (version + 1)));
  }

  static std::uint64_t PrefixHash(const Bytes& content) {
    const std::size_t n = std::min<std::size_t>(content.size(), kReadBytes);
    return HashBytes(gvfs::ByteView(content.data(), n));
  }

  void AddFile(gvfs::memfs::MemFs& fs, gvfs::memfs::InodeId dir,
               const std::string& dir_path, const std::string& name,
               std::int64_t min_size, std::int64_t max_size) {
    RepoFile file;
    file.path = dir_path + "/" + name;
    for (int v = 0; v < 2; ++v) {
      file.size[v] = static_cast<std::uint64_t>(rng_.Range(min_size, max_size));
    }
    const Bytes content = MakeContent(Tag(file.path, 0), 0, file.size[0]);
    file.hash[0] = PrefixHash(content);
    auto ino = fs.Create(dir, name, 0644);
    (void)fs.Write(*ino, 0, content);
    files_.push_back(std::move(file));
  }

  gvfs::sim::Task<void> Iteration(KernelClient* mount, int client,
                                  SimTime* io_end) {
    for (int index : working_[client]) {
      co_await Access(mount, files_[index]);
    }
    *io_end = std::max(*io_end, sched_.Now());
    co_await gvfs::sim::Sleep(sched_, kCompute);
  }

  /// One working-set access: stat, open, read the head, close.
  gvfs::sim::Task<void> Access(KernelClient* mount, const RepoFile& file) {
    ++ops_;
    const std::uint64_t op = m_.BeginOp();
    const std::int64_t w0 = ctx_.tracer.on() ? WallNs() : 0;
    const SimTime issued = sched_.Now();
    auto attr = co_await m_.Call(VfsOp::kStat, op, mount->Stat(file.path));
    if (!attr) co_return out_.Fail("stat " + file.path + " failed");
    auto fd = co_await m_.Call(VfsOp::kOpen, op, mount->Open(file.path, OpenFlags{}));
    if (!fd) co_return out_.Fail("open " + file.path + " failed");
    auto got = co_await m_.Call(VfsOp::kRead, op, mount->Read(*fd, 0, kReadBytes));
    if (!got) co_return out_.Fail("read " + file.path + " failed");
    auto closed = co_await m_.Call(VfsOp::kClose, op, mount->Close(*fd));
    if (!closed) co_return out_.Fail("close " + file.path + " failed");
    const bool ok = m_.Own(op, "check", [&] {
      std::uint64_t hash = HashBytes(*got);
      if (spec_.inject == "stale-read" && !injected_ &&
          issued >= update_end_ + Bound()) {
        hash = file.hash[0];  // a pre-update read after the bound
        injected_ = true;
      }
      const Version v = ClassifyVersion(hash, file.hash[0], file.hash[1]);
      return ReadWithinBound(v, issued, update_begin_, update_end_, Bound());
    });
    if (!ok) {
      out_.Fail("read of " + file.path + " at t=" +
                std::to_string(gvfs::ToSeconds(issued)) +
                " s returned a version outside the staleness bound");
    }
    m_.EndOp(op, "access", w0, issued);
  }

  /// The administrator rewrites every file of the MATLAB subtree.
  gvfs::sim::Task<void> Update(KernelClient* admin) {
    OpenFlags flags{.read = true, .write = true, .truncate = true};
    for (RepoFile& file : files_) {
      ++ops_;
      const std::uint64_t op = m_.BeginOp();
      const std::int64_t w0 = ctx_.tracer.on() ? WallNs() : 0;
      const SimTime v0 = sched_.Now();
      const Bytes content = m_.Own(op, "generate", [&] {
        Bytes bytes = MakeContent(Tag(file.path, 1), 0, file.size[1]);
        file.hash[1] = PrefixHash(bytes);
        return bytes;
      });
      auto fd = co_await m_.Call(VfsOp::kOpen, op, admin->Open(file.path, flags));
      if (!fd) co_return out_.Fail("update open " + file.path + " failed");
      auto w = co_await m_.Call(VfsOp::kWrite, op, admin->Write(*fd, 0, content));
      if (!w) co_return out_.Fail("update write " + file.path + " failed");
      auto c = co_await m_.Call(VfsOp::kClose, op, admin->Close(*fd));
      if (!c) co_return out_.Fail("update close " + file.path + " failed");
      m_.EndOp(op, "update", w0, v0);
    }
  }

  static Duration Bound() {
    return kPollPeriod + 2 * 2 * gvfs::workloads::TestbedConfig{}.wan.one_way_latency;
  }

  const RoundSpec& spec_;
  RoundContext& ctx_;
  gvfs::sim::Scheduler& sched_;
  Meter& m_;
  RoundOutcome& out_;
  Rng rng_;
  std::vector<RepoFile> files_;
  std::vector<std::vector<int>> working_;
  std::uint64_t dirs_ = 0;
  // Until the update runs, its window lies beyond any simulated time.
  SimTime update_begin_ = SimTime{1} << 62;
  SimTime update_end_ = SimTime{1} << 62;
  Duration busy_ = 0;
  std::uint64_t ops_ = 0;
  bool injected_ = false;
};

}  // namespace

RoundOutcome RunRepoUpdateRound(const RoundSpec& spec) {
  RoundOutcome out;
  std::int64_t step = WallNs();
  gvfs::workloads::Testbed bed;  // paper WAN: 40 ms RTT, 4 Mbps
  std::vector<int> members;
  std::vector<gvfs::HostId> wan_hosts;
  for (int i = 0; i < kClients; ++i) {
    members.push_back(bed.AddWanClient());
    wan_hosts.push_back(bed.client_host(members.back()));
  }
  members.push_back(bed.AddLanClient());  // the administrator
  RoundContext ctx(bed.sched(), spec.trace);
  RepoUpdate repo(spec, ctx, bed.sched(), out);
  const std::int64_t populate = WallNs();
  repo.Populate(bed.fs());
  out.Set("memfs.populate_s", Seconds(WallNs() - populate));
  ctx.EndSetupStep("setup.populate_s", step, &out);

  step = WallNs();
  gvfs::proxy::SessionConfig config;
  config.model = gvfs::proxy::ConsistencyModel::kInvalidationPolling;
  config.poll_period = kPollPeriod;
  config.poll_max_period = kPollPeriod;
  config.cache_mode = gvfs::proxy::CacheMode::kReadOnly;
  config.inv_buffer_capacity = kInvBuffer;
  auto& session = bed.CreateSession(config, members);
  ctx.EndSetupStep("setup.session_s", step, &out);
  out.Set("setup.pool_s", 0);
  out.Set("fleet.rss_kb_per_client", 0);

  Topology topo;
  topo.bed = &bed;
  topo.session_stats = session.stats;
  std::vector<KernelClient*> clients;
  for (int i = 0; i < kClients; ++i) clients.push_back(&session.mount(i));
  topo.mounts = session.mounts;  // the six clients and the administrator
  topo.proxies = session.proxies;
  topo.servers = {session.server};
  topo.AddWanClients(wan_hosts, bed.server_host(), gvfs::kInvalidHost);
  ctx.meter.WatchCaches(topo.mounts, topo.proxies);

  ctx.BeginTimed(topo, &out);
  if (!ctx.stepper.Drive(repo.Run(clients, &session.mount(kClients)))) {
    out.Fail("iterations stalled");
  }
  ctx.EndTimed(topo, RepoUpdate::PlannedOps(), gvfs::ToSeconds(repo.busy()), &out);
  if (repo.ops() != RepoUpdate::PlannedOps()) out.Fail("not every access ran");

  if (!ctx.stepper.Drive(session.Shutdown())) out.Fail("shutdown stalled");
  repo.CheckServer(bed.fs());
  out.attempted = RepoUpdate::PlannedOps();
  out.spans = ctx.tracer.spans();
  return out;
}

}  // namespace perfbench
