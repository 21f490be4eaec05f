#pragma once

#include <string>
#include <vector>

namespace rtsm::core {

/// How a portfolio race picks its winner.
enum class PortfolioSelection {
  /// Commit the first strategy that produces a feasible plan; cancel the
  /// rest. Minimizes admission latency.
  FirstFeasible,
  /// Run every strategy (budget permitting) and commit the feasible plan
  /// with the lowest energy per symbol (ties broken by configuration
  /// order). Maximizes mapping quality.
  BestEnergy,
};

[[nodiscard]] inline const char* to_string(PortfolioSelection selection) {
  switch (selection) {
    case PortfolioSelection::FirstFeasible:
      return "first-feasible";
    case PortfolioSelection::BestEnergy:
      return "best-energy";
  }
  return "?";
}

/// Configuration of portfolio admission: on a shape-library miss, race the
/// named registry strategies on independent ResourceState snapshots and
/// commit the winner through the ordinary two-phase validate/commit path.
/// The manager fans the strategies out across its worker pool (with no
/// pool, workers = 0, the admitting thread runs them in order) under the
/// shared budget and cancels the losers cooperatively. An empty strategy
/// list disables the portfolio (the manager's single primary mapper runs
/// as before).
struct PortfolioOptions {
  /// MapperRegistry names to race, in priority order: the first strategy is
  /// owned by the admitting thread (run first without a pool), and ties in
  /// BestEnergy selection resolve to the earliest name.
  std::vector<std::string> strategies;

  PortfolioSelection selection = PortfolioSelection::FirstFeasible;

  /// Shared wall-clock budget of one race, microseconds; <= 0 = unbounded.
  /// When the budget expires before any strategy produced a feasible plan,
  /// the race reports budget exhaustion and the manager falls back to one
  /// unbudgeted run of its primary mapper (counted in
  /// AdmissionStats::portfolio_fallbacks).
  double budget_us = 0.0;

  [[nodiscard]] bool enabled() const { return !strategies.empty(); }
};

}  // namespace rtsm::core
