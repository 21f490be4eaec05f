#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/fragmentation.hpp"
#include "core/mapper.hpp"
#include "runtime/admission.hpp"
#include "runtime/defrag.hpp"

namespace rtsm::runtime {

/// The victim set and feasible plan a preemption would commit. The
/// manager commits it and re-parks the victims under its own locks.
struct PreemptionPlan {
  /// Eviction admits the arrival: @p victims + @p plan are valid.
  [[nodiscard]] bool admits() const { return plan.success; }

  /// Victims in eviction order (cheapest first).
  std::vector<AppId> victims;
  /// The arrival's plan, feasible against @p state minus the victims.
  core::MappingResult plan;
  /// Mapper attempts / wall clock the planning consumed. The caller adds
  /// them to the request's counters even when admits() is false — the
  /// time was spent either way and feeds deadline accounting.
  std::uint32_t attempts = 0;
  double mapping_us = 0.0;
};

/// Selects the cheapest set of lower-priority preemptible victims whose
/// eviction lets @p app fit. Candidates are ranked by (priority class,
/// fragmentation of the platform after the hypothetical eviction, running
/// energy) and evicted greedily — re-planning after each — up to
/// options.max_victims. Pure planning: @p state and @p running are never
/// modified. admits() is false when no eviction admits the app, when no
/// candidate is outranked, or when the added mapper time would blow
/// @p deadline_us (given @p mapping_us_spent so far) — evicting for an
/// arrival that then misses its deadline would sacrifice victims for
/// nothing.
[[nodiscard]] PreemptionPlan plan_preemption(
    const core::ResourceState& state,
    const std::map<AppId, RunningApp>& running, const kpn::Application& app,
    RequestClass cls, double deadline_us, double mapping_us_spent,
    const core::Mapper& mapper, const PreemptionOptions& options,
    const core::FragmentationOptions& fragmentation);

}  // namespace rtsm::runtime
