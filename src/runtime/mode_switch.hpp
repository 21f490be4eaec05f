#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/migration.hpp"
#include "runtime/defrag.hpp"

namespace rtsm::runtime {

// The in-place mode-switch planner/committer shared by both runtime
// managers. A mode switch replaces the graph of a *running* instance —
// same AppId, new token geometry and possibly new processes — without
// going through release + readmit, so an infeasible new mode can roll
// back to the old one instead of killing the stream.

/// How a mode switch ended.
enum class SwitchStatus {
  /// Name-matched processes stayed pinned to their tiles; only the delta
  /// was re-planned and the new mode committed onto the same instance.
  InPlace,
  /// The pinned plan was infeasible (or the structural diff was total):
  /// the new mode was fully re-planned, still committed atomically onto
  /// the same instance id.
  Replanned,
  /// No feasible plan for the new mode (even after a defrag-assisted
  /// retry): the old mode keeps running with its booking intact. Note:
  /// when the retry's defragmentation pass ran, *other* applications may
  /// have been migrated (compacted) even though this switch rolled back
  /// — a switch probe is not side-effect-free unless
  /// ModeSwitchOptions::defrag_on_misfit is off.
  RolledBack,
  /// The id was never admitted or was already released; nothing changed.
  UnknownId,
  /// ModeSwitchOptions::deadline_us was blown before the new mode could
  /// commit: the switch aborted and the old mode keeps running with its
  /// booking intact (same guarantee as RolledBack). The QoS story of the
  /// paper's arrivals — a bounded wall-clock budget — applied to the
  /// switch itself.
  DeadlineMiss,
};

/// Outcome of one switch_mode() call. The instance keeps its AppId across
/// every non-UnknownId outcome; on RolledBack the *old* mode keeps it.
struct SwitchOutcome {
  SwitchStatus status = SwitchStatus::UnknownId;
  AppId app_id;

  /// No process name is shared between the old and the new graph, so the
  /// pinned attempt was skipped entirely (release+replan semantics).
  bool structural_total = false;

  /// Name-matched processes that kept their tile and implementation.
  std::uint32_t pinned = 0;
  /// Name-matched processes that changed tile or implementation.
  std::uint32_t moved = 0;

  /// Modelled migration cost of the moved processes (pause + state
  /// transfer over the NoC), microseconds.
  double migration_cost_us = 0.0;

  /// Wall-clock time of the whole switch call, microseconds.
  double switch_us = 0.0;

  std::string message;
};

struct ModeSwitchOptions {
  /// When neither the pinned nor the free replan fits, spend one
  /// defragmentation pass (on the live state, migrating *other*
  /// applications) and retry once before rolling back.
  bool defrag_on_misfit = true;

  /// Wall-clock budget of the switch itself, microseconds (0 = none).
  /// Checked between planning stages and before the two-phase commit;
  /// once blown the switch aborts with DeadlineMiss and the old mode
  /// keeps its booking. The commit itself is never interrupted, so a
  /// switch either misses wholly or lands wholly.
  double deadline_us = 0.0;
};

/// Plans and commits the switch of running instance @p id to graph
/// @p next against @p state / @p running. The caller must hold whatever
/// lock guards the pair (the manager calls this under its state mutex,
/// like a defrag pass). @p planner may be null (no defrag-assisted
/// retry). @p cost prices the state transfer of moved processes.
///
/// Plan: release the instance's own booking on a scratch snapshot, then
/// (1) map a copy of @p next whose name-matched processes are pinned —
///     as fixtures — to the tiles they currently occupy, so only the
///     structural delta is a decision variable and unchanged placements
///     hit the mapper's step-4 verification cache;
/// (2) on failure, map @p next unconstrained (full replan, still
///     in-place);
/// (3) on failure, run one defrag pass (policy-independent) and retry
///     the free replan against the compacted platform.
/// Commit: two-phase — release the old booking from the live state,
/// re-check the fit, commit the new mode; any misfit re-commits the old
/// booking exactly and reports RolledBack. The pass result of step (3)
/// is returned through @p defrag_out (engaged only when a pass ran) so
/// the caller can merge its counters.
[[nodiscard]] SwitchOutcome switch_mode_in_place(
    core::ResourceState& state, std::map<AppId, RunningApp>& running,
    AppId id, std::shared_ptr<const kpn::Application> next,
    const core::Mapper& mapper, const DefragPlanner* planner,
    const core::MigrationCostModel& cost,
    std::optional<DefragPassResult>* defrag_out,
    const ModeSwitchOptions& options = {});

}  // namespace rtsm::runtime
