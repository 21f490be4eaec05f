#include "runtime/defrag.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace rtsm::runtime {

DefragPlanner::DefragPlanner(std::shared_ptr<const core::Mapper> mapper,
                             DefragOptions options)
    : mapper_(std::move(mapper)), options_(options) {
  require(mapper_ != nullptr, "DefragPlanner needs a mapper");
  require(options_.max_migrations_per_pass >= 1,
          "max_migrations_per_pass must be >= 1");
}

DefragPassResult DefragPlanner::run_pass(
    core::ResourceState& state, std::map<AppId, RunningApp>& running) const {
  const auto score_of = [&](const core::ResourceState& s) {
    return core::measure_fragmentation(s, options_.fragmentation).score();
  };

  DefragPassResult result;
  double current = score_of(state);
  result.fragmentation_before = current;
  result.fragmentation_after = current;
  if (running.empty()) return result;

  double budget_left = options_.migration_budget_us;
  for (std::uint32_t round = 0; round < options_.max_migrations_per_pass;
       ++round) {
    struct Candidate {
      AppId id;
      core::MappingResult plan;
      double score = 0.0;
      double cost_us = 0.0;
      double energy_nj = 0.0;
    };
    std::optional<Candidate> best;

    // Phase 1 — plan: hypothetically relocate each candidate on a scratch
    // copy (its own booking released first, so the mapper sees the
    // capacity the app itself would vacate) and score the result. The
    // first planning attempt masks every fully-free tile as saturated:
    // a first-fit mapper would otherwise scatter into the holes defrag
    // is trying to grow, while the masked plan *packs* the candidate
    // into existing partial slack (best-fit bias) and leaves whole-tile
    // holes intact. When the packed plan fails, the unmasked snapshot is
    // the fallback.
    std::uint32_t considered = 0;
    for (const auto& [id, run] : running) {
      if (considered++ >= options_.max_candidates) break;
      plan_scratch_ = state;  // copy-assign once warm: reuses capacity
      core::ResourceState& scratch = *plan_scratch_;
      core::release_mapping(scratch, *run.app, run.mapping);

      std::vector<TileId> maskable;
      for (const TileId tid : scratch.platform().tile_ids()) {
        if (core::is_free_tile(scratch, tid, options_.fragmentation)) {
          maskable.push_back(tid);
        }
      }
      core::MappingResult plan;
      if (!maskable.empty()) {
        packed_scratch_ = scratch;
        core::ResourceState& packed = *packed_scratch_;
        for (const TileId tid : maskable) packed.saturate_tile(tid);
        plan = mapper_->map(*run.app, packed);
      }
      if (!plan.success) plan = mapper_->map(*run.app, scratch);
      if (!plan.success) continue;
      if (core::diff_mappings(*run.app, run.mapping, plan.mapping).empty()) {
        continue;  // the mapper kept the placement: nothing to move
      }
      if (!core::mapping_fits(scratch, *run.app, plan.mapping)) continue;
      core::commit_mapping(scratch, *run.app, plan.mapping);
      const double cand_score = score_of(scratch);
      if (current - cand_score < options_.min_score_improvement) continue;
      const double cost_us = options_.cost.migration_us(
          *run.app, state.platform(), run.mapping, plan.mapping);
      if (options_.migration_budget_us > 0.0 && cost_us > budget_left) {
        continue;
      }
      if (!best || cand_score < best->score) {
        const double energy_nj = options_.cost.migration_energy_nj(
            *run.app, state.platform(), run.mapping, plan.mapping);
        best =
            Candidate{id, std::move(plan), cand_score, cost_us, energy_nj};
      }
    }
    if (!best) break;

    // Phase 2 — commit: replay the winning relocation onto the live state
    // as its delta sequence; roll the applied prefix back on any misfit.
    RunningApp& run = running.at(best->id);
    const std::vector<core::MappingDelta> deltas =
        core::diff_mappings(*run.app, run.mapping, best->plan.mapping);
    core::Mapping next = run.mapping;
    std::vector<const core::MappingDelta*> applied;
    applied.reserve(deltas.size());
    bool committed = true;
    for (const core::MappingDelta& delta : deltas) {
      if (!core::apply_delta(state, *run.app, next, delta)) {
        committed = false;
        break;
      }
      applied.push_back(&delta);
    }
    if (!committed) {
      for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
        core::rollback_delta(state, *run.app, next, **it);
      }
      ++result.migration_failures;
      break;  // the live state diverged from the plan: end the pass
    }

    result.deltas_applied += static_cast<std::uint32_t>(applied.size());
    run.mapping = std::move(next);
    run.energy_nj = best->plan.energy_nj_per_symbol;
    ++result.migrations;
    result.migration_cost_us += best->cost_us;
    result.migration_energy_nj += best->energy_nj;
    if (options_.migration_budget_us > 0.0) budget_left -= best->cost_us;
    current = score_of(state);
  }
  result.fragmentation_after = current;
  return result;
}

}  // namespace rtsm::runtime
