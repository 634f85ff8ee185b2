#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sys/resource.h>
#include <unistd.h>

#include "common/json_writer.h"

namespace perfbench {

namespace {

Clock::time_point& ProcessStart() {
  static Clock::time_point start = Clock::now();
  return start;
}

gvfs::sim::Task<void> MarkDone(gvfs::sim::Task<void> task, bool* done) {
  co_await std::move(task);
  *done = true;
}

}  // namespace

void MarkProcessStart() { ProcessStart() = Clock::now(); }

std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              ProcessStart())
      .count();
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }


std::uint64_t CurrentRssKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

std::uint64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

void Tracer::Record(const char* name, std::uint64_t parent, std::uint64_t op,
                    std::int64_t wall_begin, SimTime virt_begin,
                    SimTime virt_end) {
  spans_.push_back(
      Span{NewId(), parent, op, name, wall_begin, WallNs(), virt_begin, virt_end});
}

std::vector<SpanSummary> Summarize(const std::vector<Span>& spans) {
  // Children of each parent, as wall intervals, to subtract their union.
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.wall_begin, s.wall_end);
  }
  std::map<std::string, SpanSummary> by_name;
  for (const Span& s : spans) {
    SpanSummary& sum = by_name[s.name];
    sum.name = s.name;
    ++sum.count;
    const std::int64_t total = s.wall_end - s.wall_begin;
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t lo = 0;
      std::int64_t hi = -1;
      for (auto [b, e] : intervals) {
        b = std::max(b, s.wall_begin);
        e = std::min(e, s.wall_end);
        if (e <= b) continue;
        if (b > hi) {
          if (hi > lo) covered += hi - lo;
          lo = b;
          hi = e;
        } else {
          hi = std::max(hi, e);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    sum.total_s += Seconds(total);
    sum.self_s += Seconds(total - covered);
  }
  std::vector<SpanSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::vector<SpanSummary>& summary) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) out << ",\n";
    first = false;
    char line[512];
    std::snprintf(
        line, sizeof line,
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
        "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
        "\"virt_begin_ms\":%.6f,\"virt_end_ms\":%.6f}}",
        s.name, static_cast<double>(s.wall_begin) / 1e3,
        static_cast<double>(s.wall_end - s.wall_begin) / 1e3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.op),
        static_cast<double>(s.virt_begin) / 1e6,
        static_cast<double>(s.virt_end) / 1e6);
    out << line;
  }
  out << "\n],\"summary\":[\n";
  first = true;
  for (const SpanSummary& s : summary) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":" << gvfs::JsonQuote(s.name) << ",\"count\":" << s.count
        << ",\"total_s\":" << s.total_s << ",\"self_s\":" << s.self_s << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Stepping
// ---------------------------------------------------------------------------

bool Stepper::Drive(gvfs::sim::Task<void> task) {
  // Spans cover slices of this many events, so tracing costs two clock reads
  // per slice rather than per event.
  constexpr std::uint64_t kSlice = 512;
  bool done = false;
  gvfs::sim::Spawn(MarkDone(std::move(task), &done));
  if (!tracer_.on()) {
    while (!done && !sched_.Idle()) events_ += sched_.Run(1);
    return done;
  }
  while (!done && !sched_.Idle()) {
    const std::int64_t w0 = WallNs();
    const SimTime v0 = sched_.Now();
    std::uint64_t n = 0;
    while (n < kSlice && !done && !sched_.Idle()) n += sched_.Run(1);
    events_ += n;
    tracer_.Record("sched.run", 0, 0, w0, v0, sched_.Now());
  }
  return done;
}

// ---------------------------------------------------------------------------
// Meter
// ---------------------------------------------------------------------------

const char* VfsOpName(VfsOp op) {
  static const char* const kNames[kVfsOpCount] = {
      "open", "close", "read", "write", "stat", "unlink", "mkdir", "readdir",
      "rename"};
  return kNames[static_cast<int>(op)];
}

namespace {
const char* VfsSpanName(VfsOp op) {
  static const char* const kNames[kVfsOpCount] = {
      "vfs.open",   "vfs.close", "vfs.read",    "vfs.write", "vfs.stat",
      "vfs.unlink", "vfs.mkdir", "vfs.readdir", "vfs.rename"};
  return kNames[static_cast<int>(op)];
}
}  // namespace

void Meter::WatchCaches(std::vector<gvfs::kclient::KernelClient*> mounts,
                        std::vector<gvfs::proxy::ProxyClient*> proxies) {
  mounts_ = std::move(mounts);
  proxies_ = std::move(proxies);
}

void Meter::Record(VfsOp op, std::uint64_t op_id, SimTime v0, std::int64_t w0) {
  if (!timed_) return;
  const int k = static_cast<int>(op);
  latency_[k].push_back(sched_.Now() - v0);
  if (tracer_.on()) {
    tracer_.Record(VfsSpanName(op), op_id, op_id, w0, v0, sched_.Now());
    wall_ns_[k] += tracer_.spans().back().wall_end - w0;
  }
  std::uint64_t cached = 0;
  for (const auto* mount : mounts_) cached += mount->CachedBytes();
  kclient_peak_ = std::max(kclient_peak_, cached);
  std::uint64_t disk = 0;
  for (auto* proxy : proxies_) disk += proxy->cache().CachedBytes();
  disk_peak_ = std::max(disk_peak_, disk);
}

void Meter::EndOp(std::uint64_t op_id, const char* name,
                  std::int64_t wall_begin, SimTime virt_begin) {
  if (!tracer_.on() || !timed_) return;
  tracer_.Record(Span{op_id, 0, op_id, name, wall_begin, WallNs(), virt_begin,
                      sched_.Now()});
}

std::uint64_t Meter::calls() const {
  std::uint64_t n = 0;
  for (const auto& v : latency_) n += v.size();
  return n;
}

Duration Meter::Percentile(std::vector<Duration> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least pct% at or below it.
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

Duration Meter::Percentile(double pct) const {
  std::vector<Duration> all;
  all.reserve(calls());
  for (const auto& v : latency_) all.insert(all.end(), v.begin(), v.end());
  return Percentile(std::move(all), pct);
}

double Meter::wall_us_mean(VfsOp op) const {
  const auto& v = latency_[static_cast<int>(op)];
  if (v.empty()) return 0;
  return static_cast<double>(wall_ns_[static_cast<int>(op)]) / 1e3 /
         static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Outcome and counters
// ---------------------------------------------------------------------------

void RoundOutcome::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

void RoundOutcome::Set(const std::string& name, double value) {
  layers.emplace_back(name, value);
}

void Topology::AddWanClients(const std::vector<gvfs::HostId>& hosts,
                             gvfs::HostId server, gvfs::HostId aggregator_host) {
  for (gvfs::HostId h : hosts) {
    wan_links.emplace_back(h, server);
    wan_links.emplace_back(server, h);
    if (aggregator_host != gvfs::kInvalidHost) {
      wan_links.emplace_back(h, aggregator_host);
      wan_links.emplace_back(aggregator_host, h);
    }
  }
}

namespace {

// Procedures whose per-call figures are reported (the WAN traffic the paper
// counts, plus the fleet tier's cross-shard forwards).
const char* const kRpcProcs[] = {"READ",  "WRITE",  "GETATTR",
                                 "LOOKUP", "GETINV", "NOTIFYINV"};
const char* const kNfsProcs[] = {"GETATTR", "LOOKUP", "READ",  "WRITE",
                                 "CREATE",  "REMOVE", "COMMIT"};

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double Ms(Duration d) { return static_cast<double>(d) / 1e6; }
constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

LayerCounters::Snapshot LayerCounters::Take(const Topology& topo) {
  Snapshot s;
  for (const auto* m : topo.mounts) {
    const auto& c = m->stats();
    s.kclient.attr_hits += c.attr_hits;
    s.kclient.attr_misses += c.attr_misses;
    s.kclient.dnlc_hits += c.dnlc_hits;
    s.kclient.dnlc_misses += c.dnlc_misses;
    s.kclient.page_hits += c.page_hits;
    s.kclient.page_misses += c.page_misses;
  }
  for (const auto* p : topo.proxies) {
    const auto& c = p->stats();
    s.proxy.served_locally += c.served_locally;
    s.proxy.forwarded += c.forwarded;
    s.proxy.polls += c.polls;
    s.proxy.invalidations_applied += c.invalidations_applied;
    s.proxy.force_invalidations += c.force_invalidations;
    s.proxy.blocks_prefetched += c.blocks_prefetched;
    s.proxy.prefetches_discarded += c.prefetches_discarded;
  }
  for (const auto* srv : topo.servers) {
    const auto& c = srv->stats();
    s.server.getinv_served += c.getinv_served;
    s.server.invalidations_recorded += c.invalidations_recorded;
    s.server.inv_entries_peak += c.inv_entries_peak;
    s.server.callbacks_sent += c.callbacks_sent;
    s.server.recalls_read += c.recalls_read;
    s.server.recalls_write += c.recalls_write;
    s.server.notifyinv_sent += c.notifyinv_sent;
  }
  if (topo.aggregator != nullptr) s.agg = topo.aggregator->stats();
  for (auto [from, to] : topo.wan_links) {
    const auto link = topo.bed->network().StatsFor(from, to);
    s.wan.packets += link.packets;
    s.wan.bytes += link.bytes;
    s.wan.dropped += link.dropped;
  }
  const auto& served = topo.bed->nfsd().served();
  s.nfs3_total = served.TotalCalls();
  for (const char* proc : kNfsProcs) {
    s.nfs3_served.emplace_back(proc, served.Calls(proc));
  }
  s.alloc = ReadAllocCounts();
  return s;
}

void LayerCounters::Begin(const Topology& topo) {
  begin_ = Take(topo);
  // Per-procedure latency histograms cannot be differenced, so the session's
  // RPC window is re-armed instead (counters zeroed, handles kept).
  if (topo.session_stats != nullptr) topo.session_stats->Reset();
}

void LayerCounters::End(const Topology& topo, const Meter& meter,
                        std::uint64_t ops, RoundOutcome* out) {
  const Snapshot end = Take(topo);
  const Snapshot& b = begin_;
  out->wan_mb = static_cast<double>(end.wan.bytes - b.wan.bytes) / kMiB;
  out->vfs_calls = meter.calls();

  // sim
  out->Set("sim.events", static_cast<double>(out->events));
  out->Set("sim.events_per_op", Ratio(out->events, ops));
  // process (traced executable only)
  out->Set("mem.allocs_per_op", Ratio(end.alloc.allocs - b.alloc.allocs, ops));
  out->Set("mem.alloc_mb",
           static_cast<double>(end.alloc.bytes - b.alloc.bytes) / kMiB);
  // net
  out->Set("net.wan_packets", static_cast<double>(end.wan.packets - b.wan.packets));
  out->Set("net.wan_mb", out->wan_mb);
  out->Set("net.dropped", static_cast<double>(end.wan.dropped - b.wan.dropped));
  // rpc / xdr
  const gvfs::rpc::StatsMap* rpc = topo.session_stats;
  out->Set("rpc.wan_calls", rpc ? static_cast<double>(rpc->TotalCalls()) : 0);
  out->Set("rpc.peak_in_flight",
           rpc ? static_cast<double>(rpc->PeakInFlight()) : 0);
  for (const char* proc : kRpcProcs) {
    const std::string p = "rpc." + Lower(proc);
    out->Set(p + ".calls", rpc ? static_cast<double>(rpc->Calls(proc)) : 0);
    out->Set(p + ".kb", rpc ? static_cast<double>(rpc->Bytes(proc)) / 1024.0 : 0);
    out->Set(p + ".vlat_p50_ms", rpc ? Ms(rpc->LatencyP50(proc)) : 0);
    out->Set(p + ".vlat_p99_ms", rpc ? Ms(rpc->LatencyP99(proc)) : 0);
  }
  // nfs3
  out->Set("nfs3.served_calls", static_cast<double>(end.nfs3_total - b.nfs3_total));
  for (std::size_t i = 0; i < end.nfs3_served.size(); ++i) {
    out->Set("nfs3." + Lower(end.nfs3_served[i].first) + ".served",
             static_cast<double>(end.nfs3_served[i].second -
                                 b.nfs3_served[i].second));
  }
  // memfs
  out->Set("memfs.live_mb", static_cast<double>(topo.bed->fs().TotalBytes()) / kMiB);
  out->Set("memfs.inodes", static_cast<double>(topo.bed->fs().InodeCount()));
  // kclient
  for (int k = 0; k < kVfsOpCount; ++k) {
    const auto op = static_cast<VfsOp>(k);
    if (op == VfsOp::kRename) continue;  // not a reported kclient op
    const std::string p = std::string("kclient.") + VfsOpName(op);
    const auto& lat = meter.latencies(op);
    out->Set(p + ".count", static_cast<double>(lat.size()));
    out->Set(p + ".vlat_p50_ms", Ms(Meter::Percentile(lat, 50)));
    out->Set(p + ".vlat_p99_ms", Ms(Meter::Percentile(lat, 99)));
    out->Set(p + ".wall_us", meter.wall_us_mean(op));
  }
  const auto attr_hits = end.kclient.attr_hits - b.kclient.attr_hits;
  const auto attr_all = attr_hits + end.kclient.attr_misses - b.kclient.attr_misses;
  const auto dnlc_hits = end.kclient.dnlc_hits - b.kclient.dnlc_hits;
  const auto dnlc_all = dnlc_hits + end.kclient.dnlc_misses - b.kclient.dnlc_misses;
  const auto page_hits = end.kclient.page_hits - b.kclient.page_hits;
  const auto page_all = page_hits + end.kclient.page_misses - b.kclient.page_misses;
  out->Set("kclient.attr_lookups", static_cast<double>(attr_all));
  out->Set("kclient.attr_hit_ratio", Ratio(attr_hits, attr_all));
  out->Set("kclient.dnlc_lookups", static_cast<double>(dnlc_all));
  out->Set("kclient.dnlc_hit_ratio", Ratio(dnlc_hits, dnlc_all));
  out->Set("kclient.page_lookups", static_cast<double>(page_all));
  out->Set("kclient.page_hit_ratio", Ratio(page_hits, page_all));
  out->Set("kclient.cached_mb_peak",
           static_cast<double>(meter.kclient_cached_peak()) / kMiB);
  // gvfs client
  const auto local = end.proxy.served_locally - b.proxy.served_locally;
  const auto requests = local + end.proxy.forwarded - b.proxy.forwarded;
  const auto kept = end.proxy.blocks_prefetched - b.proxy.blocks_prefetched;
  const auto prefetches =
      kept + end.proxy.prefetches_discarded - b.proxy.prefetches_discarded;
  out->Set("gvfs.requests", static_cast<double>(requests));
  out->Set("gvfs.local_ratio", Ratio(local, requests));
  out->Set("gvfs.prefetched", static_cast<double>(prefetches));
  out->Set("gvfs.prefetch_useful_ratio", Ratio(kept, prefetches));
  out->Set("gvfs.polls", static_cast<double>(end.proxy.polls - b.proxy.polls));
  out->Set("gvfs.inv_applied",
           static_cast<double>(end.proxy.invalidations_applied -
                               b.proxy.invalidations_applied));
  out->Set("gvfs.force_inv", static_cast<double>(end.proxy.force_invalidations -
                                                 b.proxy.force_invalidations));
  out->Set("gvfs.disk_cache_mb_peak",
           static_cast<double>(meter.disk_cache_peak()) / kMiB);
  // gvfs server
  out->Set("gvfs.getinv_served",
           static_cast<double>(end.server.getinv_served - b.server.getinv_served));
  out->Set("gvfs.inv_recorded",
           static_cast<double>(end.server.invalidations_recorded -
                               b.server.invalidations_recorded));
  out->Set("gvfs.inv_entries_peak",
           static_cast<double>(end.server.inv_entries_peak));
  out->Set("gvfs.callbacks_sent",
           static_cast<double>(end.server.callbacks_sent - b.server.callbacks_sent));
  out->Set("gvfs.recalls",
           static_cast<double>(end.server.recalls_read + end.server.recalls_write -
                               b.server.recalls_read - b.server.recalls_write));
  out->Set("gvfs.notifyinv",
           static_cast<double>(end.server.notifyinv_sent - b.server.notifyinv_sent));
  // fleet
  out->Set("fleet.agg_upstream_polls",
           static_cast<double>(end.agg.upstream_polls - b.agg.upstream_polls));
  out->Set("fleet.agg_getinv_served",
           static_cast<double>(end.agg.getinv_served - b.agg.getinv_served));
  out->Set("fleet.agg_fanned_out",
           static_cast<double>(end.agg.handles_fanned_out - b.agg.handles_fanned_out));
  out->Set("fleet.agg_delivered",
           static_cast<double>(end.agg.handles_delivered - b.agg.handles_delivered));
  out->Set("fleet.agg_inv_peak", static_cast<double>(end.agg.inv_entries_peak));
}

void RoundContext::BeginTimed(const Topology& topo, RoundOutcome* out) {
  counters.Begin(topo);
  meter.set_timed(true);
  virt_begin_ = sched_.Now();
  events_begin_ = stepper.events();
  own_begin_ = meter.own_s();
  wall_begin_ = WallNs();
  out->setup_end_ns = wall_begin_;
}

void RoundContext::EndTimed(const Topology& topo, std::uint64_t ops,
                            double virtual_s, RoundOutcome* out) {
  const std::int64_t wall_end = WallNs();
  meter.set_timed(false);
  out->wall_s = Seconds(wall_end - wall_begin_) - (meter.own_s() - own_begin_);
  out->virtual_s = virtual_s;
  out->events = stepper.events() - events_begin_;
  out->vfs_p99_ms = Ms(meter.Percentile(99));
  counters.End(topo, meter, ops, out);
  if (tracer.on()) {
    tracer.Record(Span{tracer.NewId(), 0, 0, "phase.timed", wall_begin_,
                       wall_end, virt_begin_, sched_.Now()});
  }
}

void RoundContext::EndSetupStep(const char* name, std::int64_t wall_begin,
                                RoundOutcome* out) {
  const std::int64_t wall_end = WallNs();
  if (tracer.on()) {
    tracer.Record(Span{tracer.NewId(), 0, 0, name, wall_begin, wall_end,
                       sched_.Now(), sched_.Now()});
  }
  out->Set(name, Seconds(wall_end - wall_begin));
}

}  // namespace perfbench
