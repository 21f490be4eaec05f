#include "runtime/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "runtime/manager_options.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace rtsm::runtime {

MapperPortfolio::MapperPortfolio(const core::MapperRegistry& registry,
                                 core::PortfolioOptions options)
    : options_(std::move(options)) {
  strategies_.reserve(options_.strategies.size());
  for (const std::string& name : options_.strategies) {
    strategies_.push_back(registry.create(name));  // throws on unknown names
  }
}

PortfolioRace::PortfolioRace(const MapperPortfolio& portfolio,
                             const kpn::Application& app,
                             const core::ResourceState& base)
    : portfolio_(&portfolio),
      app_(&app),
      base_(&base),
      slots_(portfolio.size(), Slot::Unclaimed),
      runs_(portfolio.size()) {
  const double budget_us = portfolio.options().budget_us;
  if (budget_us > 0.0) {
    token_ = std::make_unique<core::CancelToken>(
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::micro>(budget_us)));
  } else {
    token_ = std::make_unique<core::CancelToken>();
  }
}

bool PortfolioRace::run(std::size_t i) {
  {
    const audit::LockGuard lock(mutex_);
    if (closed_ || i >= slots_.size() || slots_[i] != Slot::Unclaimed) {
      return false;
    }
    slots_[i] = Slot::Running;
  }

  StrategyRun run;
  run.name = portfolio_->name(i);
  if (!token_->stop_requested()) {
    const auto start = std::chrono::steady_clock::now();
    run.started = true;
    run.result = portfolio_->strategy(i).map(*app_, *base_, token_.get());
    run.spent_us = elapsed_us(start);
    run.cancelled = run.result.cancelled;
    run.timed_out = run.result.cancelled && token_->deadline_expired();
    // A winner must fit the snapshot it planned against; this also screens
    // a (hypothetical) strategy that ignores the residual state.
    run.feasible = run.result.success &&
                   core::mapping_fits(*base_, *app_, run.result.mapping);
  } else {
    // Never started: the budget expired, or a winner stopped the race.
    run.cancelled = true;
    run.timed_out = token_->deadline_expired();
  }

  {
    const audit::LockGuard lock(mutex_);
    const bool feasible = run.feasible;
    runs_[i] = std::move(run);
    slots_[i] = Slot::Done;
    if (feasible) {
      feasible_order_.push_back(i);
      if (portfolio_->options().selection ==
          core::PortfolioSelection::FirstFeasible) {
        token_->request_stop();  // cancel the losers cooperatively
      }
    }
  }
  cv_.notify_all();
  return true;
}

// Parks on cv_ until every claimed strategy finished; clang cannot model
// the wait's unlock/relock through std::unique_lock, so the function opts
// out of the static analysis (lockdep still audits it).
RaceOutcome PortfolioRace::close_and_wait() RTSM_NO_THREAD_SAFETY_ANALYSIS {
  audit::UniqueLock lock(mutex_);
  closed_ = true;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == Slot::Unclaimed) {
      // Nobody claimed it before the race closed (tiny budget, or a
      // FirstFeasible win while helper jobs were still queued).
      slots_[i] = Slot::Done;
      runs_[i].name = portfolio_->name(i);
      runs_[i].cancelled = true;
      runs_[i].timed_out = token_->deadline_expired();
    }
  }
  cv_.wait(lock, [&] {
    return std::none_of(slots_.begin(), slots_.end(),
                        [](Slot s) { return s == Slot::Running; });
  });

  RaceOutcome out;
  switch (portfolio_->options().selection) {
    case core::PortfolioSelection::FirstFeasible:
      if (!feasible_order_.empty()) {
        out.winner = static_cast<int>(feasible_order_.front());
      }
      break;
    case core::PortfolioSelection::BestEnergy: {
      double best = 0.0;
      for (std::size_t i = 0; i < runs_.size(); ++i) {
        if (!runs_[i].feasible) continue;
        const double energy = runs_[i].result.energy_nj_per_symbol;
        if (out.winner < 0 || energy < best) {
          best = energy;
          out.winner = static_cast<int>(i);
        }
      }
      break;
    }
  }
  for (const StrategyRun& run : runs_) {
    if (run.started) ++out.attempts;
    out.total_us += run.spent_us;
  }
  out.runs = std::move(runs_);
  return out;
}

void merge_portfolio_stats(AdmissionStats& stats,
                           const MapperPortfolio& portfolio,
                           const RaceOutcome& outcome) {
  ++stats.portfolio_races;
  if (stats.portfolio.size() != portfolio.size()) {
    stats.portfolio.assign(portfolio.size(), {});
    for (std::size_t i = 0; i < portfolio.size(); ++i) {
      stats.portfolio[i].name = portfolio.name(i);
    }
  }
  for (std::size_t i = 0; i < outcome.runs.size(); ++i) {
    PortfolioStrategyStats& s = stats.portfolio[i];
    const StrategyRun& run = outcome.runs[i];
    if (run.started) ++s.runs;
    s.spent_us += run.spent_us;
    if (static_cast<int>(i) == outcome.winner) {
      ++s.wins;
    } else if (run.timed_out) {
      ++s.timeouts;
    } else if (run.started) {
      ++s.losses;
    }
  }
}

std::unique_ptr<MapperPortfolio> make_portfolio(const ManagerOptions& options) {
  if (!options.portfolio.enabled()) return nullptr;
  if (options.registry == nullptr) {
    throw Error(
        "portfolio admission is enabled but ManagerOptions::registry is "
        "null; supply the registry the strategies resolve from (e.g. "
        "baselines::builtin_mappers())");
  }
  return std::make_unique<MapperPortfolio>(*options.registry,
                                           options.portfolio);
}

}  // namespace rtsm::runtime
