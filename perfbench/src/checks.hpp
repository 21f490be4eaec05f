// Output checks of the admission benchmark, computed apart from the
// library's own bookkeeping: placements, capacities and routes are
// re-derived from arch::Platform and each core::Mapping alone; QoS from an
// uncached verification; energy from the implementation descriptors and
// the energy model's per-token prices.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "core/mapping.hpp"
#include "core/resource_state.hpp"
#include "inputs.hpp"

namespace perfbench {

/// What the library reported for an application when it was admitted.
struct Claim {
  double energy_nj = 0.0;
  std::uint64_t period_ps = 0;
  std::uint64_t latency_ps = 0;
};

/// One running application as read back from a manager.
struct LiveApp {
  AppPtr app;
  rtsm::core::Mapping mapping{0, 0};
  /// Engaged while the mapping is the one the admission reported on (a
  /// mode switch or a defrag migration replaces it).
  std::optional<Claim> claim;
};

/// Accumulated verdict of every check run during one benchmark run.
struct CheckReport {
  std::uint64_t checkpoints = 0;
  std::uint64_t apps_checked = 0;
  std::vector<std::string> failures;

  void fail(std::string message);
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Structural check of one application's mapping: every process on a tile
/// of its implementation's type (fixtures on their named tile) and every
/// inter-tile channel routed over a contiguous chain of mesh links from
/// the source router to the destination router. Returns the first
/// violation, or an empty string.
[[nodiscard]] std::string check_structure(const rtsm::arch::Platform& platform,
                                          const rtsm::kpn::Application& app,
                                          const rtsm::core::Mapping& mapping);

/// Every check on the applications running on one platform instance:
/// structure; per-tile utilisation, memory and process slots and per-link
/// demand within capacity; QoS of an uncached verification (and equality
/// with the claimed period/latency); recomputed energy (equal to the claim
/// and, summed, to @p claimed_total_energy); conservation (a replay onto a
/// fresh state, and the independent per-tile/per-link tallies, equal
/// @p live).
void check_platform(const rtsm::arch::Platform& platform,
                    const std::vector<LiveApp>& apps,
                    const rtsm::core::ResourceState& live,
                    double claimed_total_energy, const std::string& where,
                    CheckReport& report);

/// Negative self-check: corrupts copies of one live mapping (a process
/// moved to a tile of a wrong type; a route with a link removed) and
/// requires check_structure to flag both. Records a failure when either
/// corruption goes unnoticed or no live application could be corrupted.
void negative_self_check(const rtsm::arch::Platform& platform,
                         const std::vector<LiveApp>& apps,
                         CheckReport& report);

}  // namespace perfbench
