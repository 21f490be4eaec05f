#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/mutex.hpp"
#include "core/cancellation.hpp"
#include "core/mapper.hpp"
#include "core/mapper_registry.hpp"
#include "core/portfolio.hpp"
#include "core/resource_state.hpp"
#include "runtime/admission.hpp"

namespace rtsm::runtime {

struct ManagerOptions;

/// One strategy's part in a portfolio race.
struct StrategyRun {
  std::string name;
  bool started = false;    ///< The mapper actually ran.
  bool timed_out = false;  ///< The shared budget expired before/while it ran.
  /// Stopped by the shared token — either the budget or a FirstFeasible
  /// winner cancelling the losers. Skipped runs (never started) count too.
  bool cancelled = false;
  double spent_us = 0.0;  ///< Mapper wall-clock of this strategy.
  core::MappingResult result;
  /// result.success and the plan fits the race's base snapshot.
  bool feasible = false;
};

/// What one portfolio race produced.
struct RaceOutcome {
  /// Index of the winning strategy; -1 when no strategy produced a
  /// feasible plan (budget exhausted or every strategy failed) — the
  /// manager then falls back to one unbudgeted run of its primary mapper
  /// (AdmissionStats::portfolio_fallbacks).
  int winner = -1;
  /// Per-strategy records, indexed like the portfolio's strategy list.
  std::vector<StrategyRun> runs;
  std::uint32_t attempts = 0;  ///< Strategies that started.
  double total_us = 0.0;       ///< Summed mapper wall-clock.

  [[nodiscard]] bool has_winner() const { return winner >= 0; }
  [[nodiscard]] StrategyRun& winning_run() {
    return runs[static_cast<std::size_t>(winner)];
  }
};

/// The raced strategy set of one manager, resolved once at construction
/// from a MapperRegistry. Immutable and therefore freely shared between
/// worker threads (the strategies themselves are const and plan on private
/// state copies).
class MapperPortfolio {
 public:
  /// Throws rtsm::Error when @p options names a strategy the registry does
  /// not have.
  MapperPortfolio(const core::MapperRegistry& registry,
                  core::PortfolioOptions options);

  [[nodiscard]] std::size_t size() const { return strategies_.size(); }
  [[nodiscard]] const std::string& name(std::size_t i) const {
    return options_.strategies[i];
  }
  [[nodiscard]] const core::Mapper& strategy(std::size_t i) const {
    return *strategies_[i];
  }
  [[nodiscard]] const core::PortfolioOptions& options() const {
    return options_;
  }

 private:
  core::PortfolioOptions options_;
  std::vector<std::unique_ptr<const core::Mapper>> strategies_;
};

/// One race in flight over an immutable base snapshot.
///
/// Built by the admitting thread (the pump caller or the owning pool
/// worker); any thread may then claim and run individual strategies — the
/// manager queues helper jobs so idle workers join in. The owner finishes
/// by claiming whatever is still unclaimed itself and calling
/// close_and_wait(), which blocks only while a strategy is actively
/// running on another thread. The protocol
/// therefore cannot deadlock regardless of pool size (including zero
/// workers, where the owner simply runs every strategy sequentially).
///
/// @p base must outlive the race (the owner blocks in close_and_wait()
/// until every runner is done, so a stack snapshot is safe).
class PortfolioRace {
 public:
  PortfolioRace(const MapperPortfolio& portfolio, const kpn::Application& app,
                const core::ResourceState& base);

  PortfolioRace(const PortfolioRace&) = delete;
  PortfolioRace& operator=(const PortfolioRace&) = delete;

  /// Claims and runs strategy @p i on the calling thread. Returns false
  /// without running when the slot is already claimed or the race closed
  /// (a stale helper job is a harmless no-op). A claim after the shared
  /// token stopped — budget expiry or a FirstFeasible winner — records a
  /// skipped run instead of starting the mapper, which is what makes a
  /// tiny budget deterministically produce zero attempts.
  bool run(std::size_t i);

  /// Closes the race: marks everything unclaimed as skipped, waits for
  /// running strategies to finish, and picks the winner per the
  /// portfolio's selection rule (FirstFeasible: first feasible plan
  /// recorded; BestEnergy: lowest energy among feasible plans, ties to the
  /// lowest strategy index). One-shot; owner only.
  [[nodiscard]] RaceOutcome close_and_wait();

 private:
  enum class Slot { Unclaimed, Running, Done };

  const MapperPortfolio* portfolio_;
  const kpn::Application* app_;
  const core::ResourceState* base_;
  /// Shared stop/budget token handed to every strategy. Allocated (not
  /// inline) only because the deadline variant needs a different
  /// constructor; owned exclusively by the race.
  std::unique_ptr<core::CancelToken> token_;

  /// Guards only the claim/record bookkeeping below — never held while a
  /// mapper runs, which is why its rank sits above state_mutex_: a worker
  /// holding the state lock may start a race, never the other way around.
  audit::Mutex mutex_{audit::LockRank::kPortfolioRace, "portfolio.race"};
  std::condition_variable_any cv_;
  std::vector<Slot> slots_ RTSM_GUARDED_BY(mutex_);
  std::vector<StrategyRun> runs_ RTSM_GUARDED_BY(mutex_);
  /// Indices of feasible runs in the order they recorded; the front is the
  /// FirstFeasible winner.
  std::vector<std::size_t> feasible_order_ RTSM_GUARDED_BY(mutex_);
  bool closed_ RTSM_GUARDED_BY(mutex_) = false;
};

/// Folds one race into the admission counters: portfolio_races, and per
/// strategy runs/wins/losses/timeouts/spent_us (the vector is sized and
/// named on first use). The caller holds whatever guards @p stats; it also
/// counts portfolio_fallbacks itself when the race produced no winner.
void merge_portfolio_stats(AdmissionStats& stats,
                           const MapperPortfolio& portfolio,
                           const RaceOutcome& outcome);

/// Builds the portfolio configured in @p options; null when disabled.
/// Throws rtsm::Error when the portfolio is enabled without a registry, or
/// names a strategy the registry does not have.
[[nodiscard]] std::unique_ptr<MapperPortfolio> make_portfolio(
    const ManagerOptions& options);

}  // namespace rtsm::runtime
