#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "core/fragmentation.hpp"
#include "core/mapper.hpp"
#include "core/migration.hpp"
#include "kpn/application.hpp"
#include "runtime/admission.hpp"

namespace rtsm::runtime {

/// When the runtime manager compacts the platform.
enum class DefragPolicy {
  /// Never migrate (the paper's base behaviour: admissions only ever add).
  Off,
  /// After a release, when the fragmentation score exceeds a threshold —
  /// capacity was just freed, so compacting *before* waking parked
  /// requests maximises what the retry sees.
  OnReleaseThreshold,
  /// When an admission fails: compact once, then retry the request
  /// against the compacted state (reactive, no background work).
  OnReject,
};

/// Tuning of the defragmentation planner.
struct DefragOptions {
  DefragPolicy policy = DefragPolicy::Off;

  /// OnReleaseThreshold: a pass runs only when the fragmentation score
  /// (core::FragmentationMetrics::score) is at least this.
  double fragmentation_threshold = 0.3;

  /// Budget k: at most this many running applications are migrated per
  /// pass (greedy, most score reduction first).
  std::uint32_t max_migrations_per_pass = 2;

  /// At most this many running applications are evaluated as relocation
  /// candidates per greedy round (bounds the mapper invocations; the
  /// shared verify::Engine makes structurally-equal re-plans near-free).
  std::uint32_t max_candidates = 16;

  /// A candidate migration must reduce the fragmentation score by at
  /// least this much to be worth the move.
  double min_score_improvement = 1e-3;

  /// Upper bound on the summed migration cost of one pass, microseconds
  /// (0 = unbounded). Candidates whose transfer would exceed the
  /// remaining budget are skipped.
  double migration_budget_us = 0.0;

  core::FragmentationOptions fragmentation;
  core::MigrationCostModel cost;
};

/// A running application as both runtime managers book it. The map key
/// (AppId) — not the application's graph name — is the instance identity:
/// the same graph admitted twice yields two RunningApp entries that differ
/// only in their key and @p instance, and a mode switch replaces @p app
/// while the key stays.
struct RunningApp {
  std::shared_ptr<const kpn::Application> app;
  core::Mapping mapping{0, 0};
  double energy_nj = 0.0;

  /// Priority class of the admitting request; drives victim selection
  /// when a higher-priority arrival preempts.
  RequestClass cls;

  /// Id of the request that admitted this instance (display/bookkeeping
  /// breadcrumb; unique even when graph names collide).
  std::uint64_t instance = 0;
};

/// Outcome of one defragmentation pass.
struct DefragPassResult {
  std::uint32_t migrations = 0;
  std::uint32_t migration_failures = 0;
  std::uint32_t deltas_applied = 0;
  double fragmentation_before = 0.0;
  double fragmentation_after = 0.0;
  double migration_cost_us = 0.0;
  double migration_energy_nj = 0.0;
};

/// Plans and commits bounded-budget compaction passes.
///
/// One pass runs up to max_migrations_per_pass greedy rounds. Each round
/// re-plans every candidate application with the *existing* mapper
/// strategy on a scratch snapshot that excludes the candidate's own
/// booking (phase 1 — the mapper re-verifies the moved mapping through
/// its shared verify::Engine, where equal-clock moves hit the structural
/// cache), scores the hypothetical state, and picks the relocation that
/// most reduces the fragmentation score. The winning migration is then
/// committed onto the *live* state as a MappingDelta sequence (phase 2);
/// if any delta stops fitting mid-commit, the applied prefix is rolled
/// back in reverse order, the live state is exactly restored, and the
/// pass aborts with a recorded migration failure. On a sharded
/// manager the mapper plans across the whole platform, so a
/// pass also rebalances applications across shard stripes (cross-shard
/// work stealing).
class DefragPlanner {
 public:
  DefragPlanner(std::shared_ptr<const core::Mapper> mapper,
                DefragOptions options);

  [[nodiscard]] const DefragOptions& options() const { return options_; }

  /// True when the policy wants a pass after a release, given the current
  /// fragmentation @p score.
  [[nodiscard]] bool triggers_after_release(double score) const {
    return options_.policy == DefragPolicy::OnReleaseThreshold &&
           score >= options_.fragmentation_threshold;
  }

  /// Runs one pass against @p state / @p running (mutating both: migrated
  /// applications get their new mapping and energy). The caller must hold
  /// whatever lock guards the pair; the planner itself takes none.
  DefragPassResult run_pass(core::ResourceState& state,
                            std::map<AppId, RunningApp>& running) const;

 private:
  std::shared_ptr<const core::Mapper> mapper_;
  DefragOptions options_;

  /// Reusable candidate-snapshot buffers, copy-assigned per candidate so
  /// each reuse recycles their vector capacity instead of allocating.
  /// Callers already serialize passes (the manager runs them under its
  /// state lock), which is what makes these mutable members safe in the
  /// const run_pass().
  mutable std::optional<core::ResourceState> plan_scratch_;
  mutable std::optional<core::ResourceState> packed_scratch_;
};

}  // namespace rtsm::runtime
