#include "audit/check_state.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "audit/lockdep.hpp"
#include "core/mapper.hpp"
#include "util/error.hpp"

namespace rtsm::audit {

namespace {

/// Mirrors ResourceState::approx_equals: float sums (utilisation, link
/// rates) are compared within a relative tolerance because their rounding
/// depends on commit order; everything integral must match exactly.
constexpr double kRelEps = 1e-9;

bool close(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= kRelEps * scale;
}

void add_issue(CheckResult& result, const std::string& where,
               std::string detail) {
  result.ok = false;
  result.issues.push_back("[" + where + "] " + std::move(detail));
}

}  // namespace

CheckResult check_state(const core::ResourceState& live,
                        const std::vector<LiveApp>& running,
                        const std::string& where) {
  CheckResult result;
  const arch::Platform& platform = live.platform();

  // Rebuild the books from first principles: an empty state plus one
  // commit per live application, through the same mutators the managers
  // use. Only the summation order can differ from the live history.
  core::ResourceState replayed(platform);
  for (const LiveApp& run : running) {
    if (run.app == nullptr || run.mapping == nullptr) {
      add_issue(result, where, "running set contains a null app or mapping");
      return result;
    }
    try {
      core::commit_mapping(replayed, *run.app, *run.mapping);
    } catch (const Error& e) {
      // The replay over-committing a tile or link means the live books
      // under-count what is actually reserved (the commit of this very
      // mapping succeeded against them earlier).
      add_issue(result, where,
                "replaying live mappings overflows the platform (live "
                "accounting under-counts): " +
                    std::string(e.what()));
      return result;
    }
  }

  for (std::uint32_t i = 0; i < platform.tile_count(); ++i) {
    const TileId tile{i};
    const double live_util = live.utilization(tile);
    const double replay_util = replayed.utilization(tile);
    if (!close(live_util, replay_util)) {
      add_issue(result, where,
                "tile " + std::to_string(i) + " utilisation drift: live " +
                    std::to_string(live_util) + " vs replayed " +
                    std::to_string(replay_util));
    }
    if (live_util < -core::ResourceState::kUtilSlack ||
        live_util > 1.0 + core::ResourceState::kUtilSlack) {
      add_issue(result, where,
                "tile " + std::to_string(i) + " utilisation " +
                    std::to_string(live_util) + " outside [0, 1]");
    }
    if (live.memory_used(tile) != replayed.memory_used(tile)) {
      add_issue(result, where,
                "tile " + std::to_string(i) + " memory drift: live " +
                    std::to_string(live.memory_used(tile)) +
                    " vs replayed " +
                    std::to_string(replayed.memory_used(tile)));
    }
    if (live.memory_used(tile) > platform.tile(tile).memory_bytes) {
      add_issue(result, where,
                "tile " + std::to_string(i) + " books " +
                    std::to_string(live.memory_used(tile)) +
                    " bytes beyond its capacity " +
                    std::to_string(platform.tile(tile).memory_bytes));
    }
    if (live.processes_hosted(tile) != replayed.processes_hosted(tile)) {
      add_issue(result, where,
                "tile " + std::to_string(i) + " process-count drift: live " +
                    std::to_string(live.processes_hosted(tile)) +
                    " vs replayed " +
                    std::to_string(replayed.processes_hosted(tile)));
    }
  }

  for (std::uint32_t i = 0; i < platform.link_count(); ++i) {
    const LinkId link{i};
    const double live_rate = live.links().reserved(link);
    const double replay_rate = replayed.links().reserved(link);
    if (!close(live_rate, replay_rate)) {
      add_issue(result, where,
                "link " + std::to_string(i) + " load drift: live " +
                    std::to_string(live_rate) + " vs replayed " +
                    std::to_string(replay_rate));
    }
  }

  return result;
}

void audit_state(const core::ResourceState& live,
                 const std::vector<LiveApp>& running,
                 const std::string& where) {
  const CheckResult result = check_state(live, running, where);
  if (result.ok) return;
  std::string message =
      "ResourceState conservation check failed at '" + where + "':";
  for (const std::string& issue : result.issues) {
    message += "\n  " + issue;
  }
  report_violation({Violation::Kind::StateMismatch, std::move(message)});
}

}  // namespace rtsm::audit
