#include "report.h"

#include <cstdio>

#include "common/json_writer.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},     {"wall_s", "s"},        {"peak_rss_mb", "MB"},
      {"virtual_s", "s"},   {"vfs_op_p99_ms", "ms"}, {"wan_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d = {
        {"bench.ops", "count"},
        {"sim.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.events_per_op", "count/op"},
        {"mem.allocs_per_op", "count/op"},
        {"mem.alloc_mb", "MB"},
        {"net.wan_packets", "count"},
        {"net.wan_mb", "MB"},
        {"net.dropped", "count"},
        {"rpc.wan_calls", "count"},
        {"rpc.peak_in_flight", "count"},
    };
    for (const char* p : {"read", "write", "getattr", "lookup", "getinv",
                          "notifyinv"}) {
      const std::string base = std::string("rpc.") + p;
      d.push_back({base + ".calls", "count"});
      d.push_back({base + ".kb", "KB"});
      d.push_back({base + ".vlat_p50_ms", "ms"});
      d.push_back({base + ".vlat_p99_ms", "ms"});
    }
    d.push_back({"nfs3.served_calls", "count"});
    for (const char* p : {"getattr", "lookup", "read", "write", "create",
                          "remove", "commit"}) {
      d.push_back({std::string("nfs3.") + p + ".served", "count"});
    }
    d.push_back({"memfs.live_mb", "MB"});
    d.push_back({"memfs.inodes", "count"});
    d.push_back({"memfs.populate_s", "s"});
    for (const char* o : {"open", "close", "read", "write", "stat", "unlink",
                          "mkdir", "readdir"}) {
      const std::string base = std::string("kclient.") + o;
      d.push_back({base + ".count", "count"});
      d.push_back({base + ".vlat_p50_ms", "ms"});
      d.push_back({base + ".vlat_p99_ms", "ms"});
      d.push_back({base + ".wall_us", "us"});
    }
    const std::vector<MetricDef> rest = {
        {"kclient.attr_lookups", "count"},
        {"kclient.attr_hit_ratio", "ratio"},
        {"kclient.dnlc_lookups", "count"},
        {"kclient.dnlc_hit_ratio", "ratio"},
        {"kclient.page_lookups", "count"},
        {"kclient.page_hit_ratio", "ratio"},
        {"kclient.cached_mb_peak", "MB"},
        {"gvfs.requests", "count"},
        {"gvfs.local_ratio", "ratio"},
        {"gvfs.prefetched", "count"},
        {"gvfs.prefetch_useful_ratio", "ratio"},
        {"gvfs.polls", "count"},
        {"gvfs.inv_applied", "count"},
        {"gvfs.force_inv", "count"},
        {"gvfs.disk_cache_mb_peak", "MB"},
        {"gvfs.getinv_served", "count"},
        {"gvfs.inv_recorded", "count"},
        {"gvfs.inv_entries_peak", "count"},
        {"gvfs.callbacks_sent", "count"},
        {"gvfs.recalls", "count"},
        {"gvfs.notifyinv", "count"},
        {"fleet.agg_upstream_polls", "count"},
        {"fleet.agg_getinv_served", "count"},
        {"fleet.agg_fanned_out", "count"},
        {"fleet.agg_delivered", "count"},
        {"fleet.agg_inv_peak", "count"},
        {"fleet.rss_kb_per_client", "KB"},
        {"setup.populate_s", "s"},
        {"setup.session_s", "s"},
        {"setup.pool_s", "s"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return kDefs;
}

namespace {

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string RoundJson(bool correct, std::uint64_t attempted,
                      std::uint64_t failed, std::uint64_t events,
                      std::uint64_t vfs_calls,
                      const std::vector<MetricValue>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"events\": " + std::to_string(events);
  out += ", \"vfs_calls\": " + std::to_string(vfs_calls);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ", ";
    first = false;
    out += gvfs::JsonQuote(m.def->name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + gvfs::JsonQuote(m.def->unit) + "}";
  }
  out += "}}";
  return out;
}

std::string MetricListJson() {
  auto list = [](const std::vector<MetricDef>& defs) {
    std::string out = "[";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"name\": " + gvfs::JsonQuote(defs[i].name) +
             ", \"unit\": " + gvfs::JsonQuote(defs[i].unit) + "}";
    }
    return out + "]";
  };
  return "{\"end_to_end\": " + list(EndToEndMetrics()) +
         ", \"per_layer\": " + list(PerLayerMetrics()) + "}";
}

}  // namespace perfbench
