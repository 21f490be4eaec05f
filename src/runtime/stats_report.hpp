#pragma once

#include <string>
#include <vector>

#include "noc/route_cache.hpp"
#include "runtime/admission.hpp"
#include "shapes/library.hpp"
#include "verify/engine.hpp"

namespace rtsm::runtime {

/// One aggregate observability snapshot, produced by
/// ConcurrentRuntimeManager::stats_report(). It replaces the four separate
/// stats()/verification_stats()/shape_stats()/drain_release_errors()
/// round-trips every JSON-emitting bench used to hand-roll — the benches
/// now embed to_json() as one sub-object next to their gated metrics.
struct StatsReport {
  AdmissionStats admission;
  verify::EngineStats verification;
  shapes::ShapeLibraryStats shapes;
  /// Step-3 route-cache counters of the underlying mapper (idle-route
  /// lookups, validated hits, live-search fallbacks). Zeros when the
  /// mapper routes without a cache.
  noc::RouteCacheStats route_cache;
  /// Release errors recorded since the last report; taking a report drains
  /// the manager's buffer exactly like drain_release_errors().
  std::vector<ReleaseError> release_errors;

  /// The report as one JSON object with keys "admission" (counters,
  /// latency percentiles, hot-path / defrag / shapes / preemption /
  /// switch / portfolio sub-objects), "verification", "shape_library",
  /// "route_cache" and "release_errors".
  [[nodiscard]] std::string to_json() const;
};

}  // namespace rtsm::runtime
