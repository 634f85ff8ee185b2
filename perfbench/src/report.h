// Metric names and units, and the one-line JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics, printed by untraced runs.
const std::vector<MetricDef>& EndToEndMetrics();
/// The per-layer metrics, printed by traced runs.
const std::vector<MetricDef>& PerLayerMetrics();

struct MetricValue {
  const MetricDef* def;
  double value;
};

/// One round's result: {"correct", "attempted", "failed", "events",
/// "vfs_calls", "metrics": {name: {"value", "unit"}}}.
std::string RoundJson(bool correct, std::uint64_t attempted,
                      std::uint64_t failed, std::uint64_t events,
                      std::uint64_t vfs_calls,
                      const std::vector<MetricValue>& metrics);

/// Both metric lists as JSON, for generating BENCHMARK.json.
std::string MetricListJson();

}  // namespace perfbench
