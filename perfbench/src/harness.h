// Shared machinery of the benchmark's workloads: the scheduler stepping loop,
// the meter that times every application Vfs call, in-memory spans for the
// traced run, and per-layer counters read from each layer's public stats.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fleet/inv_aggregator.h"
#include "gvfs/proxy_client.h"
#include "gvfs/proxy_server.h"
#include "kclient/kernel_client.h"
#include "rpc/stats.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "workloads/testbed.h"

namespace perfbench {

using gvfs::Duration;
using gvfs::SimTime;
using Clock = std::chrono::steady_clock;

/// Wall nanoseconds since the process started (main's first statement).
std::int64_t WallNs();
void MarkProcessStart();
double Seconds(std::int64_t ns);

/// Current and peak resident set size of this process, in KiB.
std::uint64_t CurrentRssKb();
std::uint64_t PeakRssKb();

/// Heap allocations counted by the traced executable (zero otherwise).
struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
AllocCounts ReadAllocCounts();

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = top level
  std::uint64_t op = 0;      // application operation the span belongs to
  const char* name = "";
  std::int64_t wall_begin = 0;  // ns since process start
  std::int64_t wall_end = 0;
  SimTime virt_begin = 0;
  SimTime virt_end = 0;
};

/// Spans kept in memory and written when the run ends. Disabled tracers
/// record nothing; every call site checks on() first.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  std::uint64_t NewId() { return ++next_id_; }
  void Record(const Span& span) { spans_.push_back(span); }
  /// Records a span ending now, with a fresh id.
  void Record(const char* name, std::uint64_t parent, std::uint64_t op,
              std::int64_t wall_begin, SimTime virt_begin, SimTime virt_end);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Wall time of each span name, in total and as self time (duration minus
/// the union of its direct children), in seconds.
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::vector<SpanSummary> Summarize(const std::vector<Span>& spans);

/// Writes the spans as a Chrome trace-event file (wall microseconds, with
/// the virtual interval and parent/op ids in args), plus the summary.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::vector<SpanSummary>& summary);

// ---------------------------------------------------------------------------
// Scheduler stepping
// ---------------------------------------------------------------------------

/// Runs workload coroutines to completion one event at a time (sessions keep
/// background pollers alive, so the queue never drains by itself), counting
/// events from Scheduler::Run's return value.
class Stepper {
 public:
  Stepper(gvfs::sim::Scheduler& sched, Tracer& tracer)
      : sched_(sched), tracer_(tracer) {}

  /// False when the event queue drained before the task finished.
  bool Drive(gvfs::sim::Task<void> task);
  std::uint64_t events() const { return events_; }

 private:
  gvfs::sim::Scheduler& sched_;
  Tracer& tracer_;
  std::uint64_t events_ = 0;
};

// ---------------------------------------------------------------------------
// Vfs meter
// ---------------------------------------------------------------------------

enum class VfsOp { kOpen, kClose, kRead, kWrite, kStat, kUnlink, kMkdir, kReadDir, kRename };
constexpr int kVfsOpCount = 9;
const char* VfsOpName(VfsOp op);

/// Times every application Vfs call: simulated latency always, wall time
/// and a span when tracing. Only calls inside the timed phase are sampled.
class Meter {
 public:
  Meter(gvfs::sim::Scheduler& sched, Tracer& tracer)
      : sched_(sched), tracer_(tracer) {}

  /// Caches whose occupancy peaks are sampled after each timed call.
  void WatchCaches(std::vector<gvfs::kclient::KernelClient*> mounts,
                   std::vector<gvfs::proxy::ProxyClient*> proxies);

  void set_timed(bool timed) { timed_ = timed; }

  template <typename T>
  gvfs::sim::Task<T> Call(VfsOp op, std::uint64_t op_id,
                          gvfs::sim::Task<T> task) {
    const SimTime v0 = sched_.Now();
    const std::int64_t w0 = tracer_.on() ? WallNs() : 0;
    T result = co_await std::move(task);
    Record(op, op_id, v0, w0);
    co_return result;
  }

  /// Runs the benchmark's own work for one operation: an output check
  /// ("check") or making the bytes a write carries ("generate"). Its wall
  /// time is subtracted from the timed phase's wall time, so that the
  /// figure is the program's, not the benchmark's.
  template <typename F>
  auto Own(std::uint64_t op_id, const char* span, F&& work) {
    const std::int64_t w0 = WallNs();
    auto result = work();
    const std::int64_t w1 = WallNs();
    own_ns_ += w1 - w0;
    if (tracer_.on() && timed_) {
      tracer_.Record(Span{tracer_.NewId(), op_id, op_id, span, w0, w1,
                          sched_.Now(), sched_.Now()});
    }
    return result;
  }

  /// Application operations group Vfs calls; their spans parent the calls'.
  std::uint64_t BeginOp() { return tracer_.on() ? tracer_.NewId() : 0; }
  void EndOp(std::uint64_t op_id, const char* name, std::int64_t wall_begin,
             SimTime virt_begin);

  std::uint64_t calls() const;
  const std::vector<Duration>& latencies(VfsOp op) const {
    return latency_[static_cast<int>(op)];
  }
  /// Exact percentile (nearest rank) over every timed call, or one kind.
  Duration Percentile(double pct) const;
  static Duration Percentile(std::vector<Duration> samples, double pct);
  double wall_us_mean(VfsOp op) const;
  double own_s() const { return static_cast<double>(own_ns_) * 1e-9; }
  std::uint64_t kclient_cached_peak() const { return kclient_peak_; }
  std::uint64_t disk_cache_peak() const { return disk_peak_; }

 private:
  void Record(VfsOp op, std::uint64_t op_id, SimTime v0, std::int64_t w0);

  gvfs::sim::Scheduler& sched_;
  Tracer& tracer_;
  bool timed_ = false;
  std::vector<Duration> latency_[kVfsOpCount];
  std::int64_t wall_ns_[kVfsOpCount] = {};
  std::int64_t own_ns_ = 0;
  std::vector<gvfs::kclient::KernelClient*> mounts_;
  std::vector<gvfs::proxy::ProxyClient*> proxies_;
  std::uint64_t kclient_peak_ = 0;
  std::uint64_t disk_peak_ = 0;
};

// ---------------------------------------------------------------------------
// Per-round outcome and per-layer counters
// ---------------------------------------------------------------------------

struct RoundOutcome {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::int64_t setup_end_ns = 0;  // wall clock when the timed phase began
  double wall_s = 0;              // timed phase, benchmark checks excluded
  double virtual_s = 0;
  double vfs_p99_ms = 0;
  double wan_mb = 0;
  std::uint64_t events = 0;
  std::uint64_t vfs_calls = 0;

  std::vector<std::pair<std::string, double>> layers;  // per-layer metrics
  std::vector<Span> spans;  // traced run only

  void Fail(const std::string& why);
  void Set(const std::string& name, double value);
};

/// What a workload built: the parts whose public stats the round reads.
struct Topology {
  gvfs::workloads::Testbed* bed = nullptr;
  gvfs::rpc::StatsMap* session_stats = nullptr;
  std::vector<gvfs::kclient::KernelClient*> mounts;
  std::vector<gvfs::proxy::ProxyClient*> proxies;
  std::vector<gvfs::proxy::ProxyServer*> servers;
  gvfs::fleet::InvAggregator* aggregator = nullptr;
  /// Directed WAN links (client <-> server, client <-> aggregator).
  std::vector<std::pair<gvfs::HostId, gvfs::HostId>> wan_links;

  /// Adds both directions of every listed client's WAN link(s).
  void AddWanClients(const std::vector<gvfs::HostId>& hosts,
                     gvfs::HostId server, gvfs::HostId aggregator_host);
};

/// Counters of every layer, snapshot at the start of the timed phase and
/// turned into per-layer metrics (deltas over the timed phase) at its end.
class LayerCounters {
 public:
  void Begin(const Topology& topo);
  /// Fills wan_mb and the per-layer metrics of `out`.
  void End(const Topology& topo, const Meter& meter, std::uint64_t ops,
           RoundOutcome* out);

 private:
  struct Snapshot {
    gvfs::kclient::ClientStats kclient;
    gvfs::proxy::ProxyClientStats proxy;
    gvfs::proxy::ProxyServerStats server;
    gvfs::fleet::InvAggregatorStats agg;
    gvfs::net::LinkStats wan;
    std::vector<std::pair<std::string, std::uint64_t>> nfs3_served;
    std::uint64_t nfs3_total = 0;
    AllocCounts alloc;
  };
  static Snapshot Take(const Topology& topo);
  Snapshot begin_;
};

/// Shared state of one round of any workload.
class RoundContext {
 public:
  RoundContext(gvfs::sim::Scheduler& sched, bool trace)
      : tracer(trace), stepper(sched, tracer), meter(sched, tracer),
        sched_(sched) {}

  /// Ends set-up: snapshots every layer and starts the timed phase.
  void BeginTimed(const Topology& topo, RoundOutcome* out);
  /// Ends the timed phase. `virtual_s` is the simulated time the
  /// application spent waiting on the file system.
  void EndTimed(const Topology& topo, std::uint64_t ops, double virtual_s,
                RoundOutcome* out);
  /// Simulated time since BeginTimed.
  Duration TimedVirtual() const { return sched_.Now() - virt_begin_; }
  /// Ends one set-up step begun at `wall_begin`: records its span when
  /// tracing and stores its wall seconds as per-layer metric `name`.
  void EndSetupStep(const char* name, std::int64_t wall_begin,
                    RoundOutcome* out);

  Tracer tracer;
  Stepper stepper;
  Meter meter;
  LayerCounters counters;

 private:
  gvfs::sim::Scheduler& sched_;
  std::int64_t wall_begin_ = 0;
  SimTime virt_begin_ = 0;
  std::uint64_t events_begin_ = 0;
  double own_begin_ = 0;
};


/// Parameters of one round.
struct RoundSpec {
  std::uint64_t seed = 1;
  bool trace = false;
  /// Seeded fault for the checker tests ("" = none); see check_faults.py.
  std::string inject;
};

RoundOutcome RunPostmarkRound(const RoundSpec& spec);
RoundOutcome RunRepoUpdateRound(const RoundSpec& spec);
RoundOutcome RunFleetRound(const RoundSpec& spec);

}  // namespace perfbench
