// fleet-agg-poll: fig_scale's largest topology — 4 096 WAN clients, four
// proxy-server shards behind the GETINV aggregation tier — run for many
// polling periods. One writer rewrites and renames a small file set; three
// readers read it back once the §4.2 bound has passed. Every other client
// is a poll-only proxy, so the per-message path (scheduler, net, rpc, small
// XDR messages, per-client soft state) does the work.
//
// Checks: every reader sees each file's latest version, and the shards
// absorb no more GETINVs than one per shard per aggregator period plus one
// bootstrap poll each.
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

constexpr int kFleetClients = 4096;
constexpr std::uint32_t kShards = 4;
constexpr int kReaders = 3;
constexpr int kFiles = 8;
constexpr int kCycles = 12;
constexpr Duration kPollPeriod = gvfs::Seconds(15);
constexpr std::size_t kInvBuffer = 1 << 20;  // no overflow, as fig_scale

struct FleetFile {
  std::uint64_t id = 0;  // content key; survives renames
  std::string name;
  std::uint64_t size = 0;
  int version = 0;
};

class FleetPoll {
 public:
  FleetPoll(const RoundSpec& spec, RoundContext& ctx,
            gvfs::sim::Scheduler& sched, RoundOutcome& out)
      : spec_(spec), ctx_(ctx), sched_(sched), m_(ctx.meter), out_(out),
        rng_(spec.seed) {
    for (int f = 0; f < kFiles; ++f) {
      files_.push_back(FleetFile{static_cast<std::uint64_t>(f),
                                 "/w/f" + std::to_string(f),
                                 static_cast<std::uint64_t>(rng_.Range(512, 4096)),
                                 0});
    }
  }

  gvfs::sim::Task<void> Run(KernelClient* writer,
                            std::vector<KernelClient*> readers) {
    auto made = co_await m_.Call(VfsOp::kMkdir, 0, writer->Mkdir("/w"));
    if (!made) co_return out_.Fail("mkdir /w failed");
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const SimTime begin = sched_.Now();
      co_await Write(writer, cycle);
      const SimTime end = sched_.Now();
      busy_ += end - begin;
      co_await gvfs::sim::Sleep(sched_, Bound());
      const SimTime read_start = sched_.Now();
      std::vector<gvfs::sim::Task<void>> tasks;
      for (KernelClient* reader : readers) {
        tasks.push_back(ReadAll(reader, begin, end));
      }
      co_await gvfs::sim::WhenAll(sched_, std::move(tasks));
      busy_ += sched_.Now() - read_start;
    }
  }

  Duration busy() const { return busy_; }
  std::uint64_t ops() const { return ops_; }
  static std::uint64_t PlannedOps() {
    return kCycles * (kFiles + 1 + kReaders * kFiles);
  }

  static Duration Bound() {
    return kPollPeriod + 2 * 2 * gvfs::workloads::TestbedConfig{}.wan.one_way_latency;
  }

 private:
  Bytes Content(const FleetFile& file, int version) const {
    return MakeContent(Mix(Mix(spec_.seed ^ (file.id << 32)) ^
                           static_cast<std::uint64_t>(version)),
                       0, file.size);
  }

  /// The writer's cycle: rewrite every file, then rename one of them.
  gvfs::sim::Task<void> Write(KernelClient* writer, int cycle) {
    OpenFlags flags{.read = true, .write = true, .create = true};
    for (FleetFile& file : files_) {
      ++ops_;
      const std::uint64_t op = m_.BeginOp();
      const std::int64_t w0 = ctx_.tracer.on() ? WallNs() : 0;
      const SimTime v0 = sched_.Now();
      const Bytes data =
          m_.Own(op, "generate", [&] { return Content(file, file.version + 1); });
      auto fd = co_await m_.Call(VfsOp::kOpen, op, writer->Open(file.name, flags));
      if (!fd) co_return out_.Fail("writer open " + file.name + " failed");
      auto w = co_await m_.Call(VfsOp::kWrite, op, writer->Write(*fd, 0, data));
      if (!w) co_return out_.Fail("writer write " + file.name + " failed");
      auto c = co_await m_.Call(VfsOp::kClose, op, writer->Close(*fd));
      if (!c) co_return out_.Fail("writer close " + file.name + " failed");
      ++file.version;
      m_.EndOp(op, "write", w0, v0);
    }
    ++ops_;
    const std::uint64_t op = m_.BeginOp();
    const std::int64_t w0 = ctx_.tracer.on() ? WallNs() : 0;
    const SimTime v0 = sched_.Now();
    FleetFile& moved = files_[rng_.Below(files_.size())];
    const std::string to = "/w/r" + std::to_string(cycle);
    auto r = co_await m_.Call(VfsOp::kRename, op, writer->Rename(moved.name, to));
    if (!r) co_return out_.Fail("rename " + moved.name + " failed");
    moved.name = to;
    m_.EndOp(op, "rename", w0, v0);
  }

  /// One reader checks every file's latest version after the bound.
  gvfs::sim::Task<void> ReadAll(KernelClient* reader, SimTime begin,
                                SimTime end) {
    for (const FleetFile& file : files_) {
      ++ops_;
      const std::uint64_t op = m_.BeginOp();
      const std::int64_t w0 = ctx_.tracer.on() ? WallNs() : 0;
      const SimTime issued = sched_.Now();
      auto attr = co_await m_.Call(VfsOp::kStat, op, reader->Stat(file.name));
      if (!attr) co_return out_.Fail("reader stat " + file.name + " failed");
      auto fd = co_await m_.Call(VfsOp::kOpen, op, reader->Open(file.name, OpenFlags{}));
      if (!fd) co_return out_.Fail("reader open " + file.name + " failed");
      auto got = co_await m_.Call(
          VfsOp::kRead, op,
          reader->Read(*fd, 0, static_cast<std::uint32_t>(file.size)));
      if (!got) co_return out_.Fail("reader read " + file.name + " failed");
      auto c = co_await m_.Call(VfsOp::kClose, op, reader->Close(*fd));
      if (!c) co_return out_.Fail("reader close " + file.name + " failed");
      const bool ok = m_.Own(op, "check", [&] {
        const Version v =
            ClassifyVersion(HashBytes(*got), HashBytes(Content(file, file.version - 1)),
                            HashBytes(Content(file, file.version)));
        return ReadWithinBound(v, issued, begin, end, Bound());
      });
      if (!ok) {
        out_.Fail("reader saw a stale " + file.name + " at t=" +
                  std::to_string(gvfs::ToSeconds(issued)) + " s");
      }
      m_.EndOp(op, "read", w0, issued);
    }
  }

  const RoundSpec& spec_;
  RoundContext& ctx_;
  gvfs::sim::Scheduler& sched_;
  Meter& m_;
  RoundOutcome& out_;
  Rng rng_;
  std::vector<FleetFile> files_;
  Duration busy_ = 0;
  std::uint64_t ops_ = 0;
};

}  // namespace

RoundOutcome RunFleetRound(const RoundSpec& spec) {
  RoundOutcome out;
  std::int64_t step = WallNs();
  const std::uint64_t rss_before = CurrentRssKb();
  gvfs::workloads::Testbed bed;  // paper WAN: 40 ms RTT, 4 Mbps
  std::vector<int> members;
  std::vector<gvfs::HostId> hosts;
  members.reserve(kFleetClients);
  for (int i = 0; i < kFleetClients; ++i) {
    members.push_back(bed.AddWanClient());
    hosts.push_back(bed.client_host(members.back()));
  }
  RoundContext ctx(bed.sched(), spec.trace);
  FleetPoll fleet(spec, ctx, bed.sched(), out);
  ctx.EndSetupStep("setup.populate_s", step, &out);
  out.Set("memfs.populate_s", 0);

  step = WallNs();
  gvfs::workloads::FleetConfig config;
  config.shards = kShards;
  config.aggregate = true;
  config.session.model = gvfs::proxy::ConsistencyModel::kInvalidationPolling;
  config.session.poll_period = kPollPeriod;
  config.session.poll_max_period = kPollPeriod;
  config.session.inv_buffer_capacity = kInvBuffer;
  config.aggregator.poll_period = kPollPeriod;
  config.aggregator.inv_buffer_capacity = kInvBuffer;
  const SimTime session_start = bed.sched().Now();
  auto& session = bed.CreateFleetSession(config, members, 1 + kReaders);
  ctx.EndSetupStep("setup.session_s", step, &out);
  out.Set("setup.pool_s", 0);
  const std::uint64_t rss_after = CurrentRssKb();
  out.Set("fleet.rss_kb_per_client",
          static_cast<double>(rss_after > rss_before ? rss_after - rss_before : 0) /
              kFleetClients);

  gvfs::HostId agg_host = gvfs::kInvalidHost;
  for (gvfs::HostId h = 0; h < bed.network().HostCount(); ++h) {
    const std::string& name = bed.network().HostName(h);
    if (name.size() > 4 && name.compare(name.size() - 4, 4, "-agg") == 0) agg_host = h;
  }
  if (agg_host == gvfs::kInvalidHost) out.Fail("aggregator host not found");

  Topology topo;
  topo.bed = &bed;
  topo.session_stats = session.stats;
  topo.mounts = session.mounts;
  topo.proxies = session.proxies;
  topo.servers = session.shards;
  topo.aggregator = session.aggregator;
  topo.AddWanClients(hosts, bed.server_host(), agg_host);
  ctx.meter.WatchCaches(topo.mounts, {session.proxies.begin(),
                                      session.proxies.begin() + 1 + kReaders});

  std::vector<KernelClient*> readers;
  for (int r = 1; r <= kReaders; ++r) readers.push_back(&session.mount(r));
  ctx.BeginTimed(topo, &out);
  if (!ctx.stepper.Drive(fleet.Run(&session.mount(0), readers))) {
    out.Fail("fleet workload stalled");
  }
  ctx.EndTimed(topo, FleetPoll::PlannedOps(), gvfs::ToSeconds(fleet.busy()), &out);
  if (fleet.ops() != FleetPoll::PlannedOps()) out.Fail("not every operation ran");

  std::uint64_t absorbed = 0;
  for (const auto* shard : session.shards) absorbed += shard->stats().getinv_served;
  if (spec.inject == "getinv-over") {
    absorbed = GetinvBound(kShards, bed.sched().Now() - session_start,
                           config.aggregator.poll_period) + 1;
  }
  const std::uint64_t bound = GetinvBound(
      kShards, bed.sched().Now() - session_start, config.aggregator.poll_period);
  if (absorbed > bound) {
    out.Fail("shards absorbed " + std::to_string(absorbed) +
             " GETINVs, bound " + std::to_string(bound));
  }

  if (!ctx.stepper.Drive(session.Shutdown())) out.Fail("shutdown stalled");
  out.attempted = FleetPoll::PlannedOps();
  out.spans = ctx.tracer.spans();
  return out;
}

}  // namespace perfbench
