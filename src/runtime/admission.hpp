#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/mapper.hpp"
#include "kpn/application.hpp"
#include "util/ids.hpp"

namespace rtsm::runtime {

struct DefragPassResult;
struct SwitchOutcome;

/// Priority class of an admission request (and of the running application
/// it becomes). @p priority orders drained bursts — larger is admitted
/// first — and gates preemption: when a request is about to be rejected,
/// it may evict running applications of *strictly lower* priority that
/// declared themselves @p preemptible. The default class (priority 0,
/// preemptible) never evicts anything and never outranks anyone, so the
/// pre-class behaviour is unchanged.
struct RequestClass {
  std::int32_t priority = 0;
  bool preemptible = true;
};

/// Tuning of the admission engine's preemption path. Preemption only ever
/// triggers after the mapper (and, when configured, a defragmentation
/// pass) failed to place a request the ordinary way.
struct PreemptionOptions {
  /// Master switch. Even when enabled, only an arrival whose class
  /// outranks a running preemptible application can evict.
  bool enabled = true;

  /// At most this many victims are evicted for one granted arrival.
  std::uint32_t max_victims = 4;
};

/// Verdict of an admission policy after a failed mapping attempt.
enum class FailureAction {
  /// Give up on the request immediately.
  Reject,
  /// Park the request; the manager retries it after resources are next
  /// released.
  Retry,
};

/// Admission-control strategy of the admission engine: decides what happens
/// to a request the mapper could not place against the current residual
/// resources.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called after mapping attempt @p attempt (1-based) of a request failed
  /// with @p result; the failed MappingResult carries the mapper's feedback
  /// (failure reason, refinement trace) for policies that want it.
  [[nodiscard]] virtual FailureAction on_failure(
      const core::MappingResult& result, std::uint32_t attempt) const = 0;
};

/// First-fit admission: one mapping attempt against the current residual
/// state; failure rejects the application outright (the paper's base
/// scenario — an application that does not fit now is refused).
class FirstFitAdmission final : public AdmissionPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "first-fit"; }

  [[nodiscard]] FailureAction on_failure(const core::MappingResult&,
                                         std::uint32_t) const override {
    return FailureAction::Reject;
  }
};

/// Retry-with-feedback admission: a failed request is parked and retried —
/// against the then-current residual state — whenever a release returns
/// resources, up to @p max_attempts total mapping attempts. Models admission
/// control that queues arrivals instead of dropping them.
class RetryAdmission final : public AdmissionPolicy {
 public:
  explicit RetryAdmission(std::uint32_t max_attempts = 4)
      : max_attempts_(max_attempts) {}

  [[nodiscard]] std::string name() const override { return "retry"; }

  [[nodiscard]] FailureAction on_failure(const core::MappingResult&,
                                         std::uint32_t attempt) const override {
    return attempt < max_attempts_ ? FailureAction::Retry
                                   : FailureAction::Reject;
  }

 private:
  std::uint32_t max_attempts_;
};

/// Orders the arrivals of one drained burst before they are admitted
/// greedily (ConcurrentRuntimeManager batching). Higher priority is
/// admitted first; ties fall back to arrival (request id) order, so the
/// default policy degenerates to FIFO.
class PriorityPolicy {
 public:
  virtual ~PriorityPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Priority of an arrival; larger = earlier in the batch. @p deadline_us
  /// is the request's mapper budget (0 = none).
  [[nodiscard]] virtual double priority(const kpn::Application& app,
                                        double deadline_us) const = 0;
};

/// All arrivals equal: batches are admitted in arrival order.
class FifoPriority final : public PriorityPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "fifo"; }

  [[nodiscard]] double priority(const kpn::Application&,
                                double) const override {
    return 0.0;
  }
};

/// Earliest-deadline-first: tighter mapper budgets go first; requests
/// without a deadline go last (in arrival order).
class DeadlinePriority final : public PriorityPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "deadline"; }

  [[nodiscard]] double priority(const kpn::Application&,
                                double deadline_us) const override {
    return deadline_us > 0.0 ? -deadline_us
                             : -std::numeric_limits<double>::infinity();
  }
};

/// Smallest-application-first: admitting small applications before large
/// ones maximises the admitted count of a burst (greedy knapsack order).
class SmallestFirstPriority final : public PriorityPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "smallest-first"; }

  [[nodiscard]] double priority(const kpn::Application& app,
                                double) const override {
    return -static_cast<double>(app.process_count());
  }
};

/// Identifier of a submitted admission request.
using RequestId = std::uint64_t;

/// How a processed admission request ended.
enum class AdmitStatus {
  /// Mapped and committed; the application is running.
  Admitted,
  /// The mapper found no placement and the policy gave up.
  Rejected,
  /// The mapper exceeded the request's wall-clock deadline; the application
  /// was not admitted (a run-time mapper that misses its budget is useless
  /// to a stream that has already started).
  DeadlineMiss,
  /// Parked by a retry policy; resolved after a future release.
  Waiting,
};

/// Outcome of one admission request.
struct AdmitOutcome {
  RequestId request = 0;
  AdmitStatus status = AdmitStatus::Rejected;
  /// Handle of the running application; valid when status == Admitted.
  AppId app_id;
  core::MappingResult mapping;
  /// Wall-clock time the mapper spent on this request, microseconds
  /// (summed over retry attempts).
  double mapping_us = 0.0;
  std::uint32_t attempts = 0;
  /// Admitted from the shape library (anchor instantiation of a learned
  /// placement) instead of a full mapper run.
  bool shape_hit = false;
  /// Name of the portfolio strategy whose plan was committed; empty when
  /// the portfolio is disabled, the admission was a shape hit, or the
  /// unbudgeted fallback run of the primary mapper produced the plan.
  std::string portfolio_winner;
};

/// A release request that could not be honoured: the id was never admitted
/// or was already released. Reported (not silently dropped, not fatal to
/// the event stream) so operators can spot double-release bugs in clients.
struct ReleaseError {
  AppId id;
  std::string message;
};

/// Bounded latency sample: exact while fewer than kCapacity values were
/// recorded, an unbiased uniform reservoir (Vitter's algorithm R over a
/// deterministic xorshift64 stream) beyond that. Replaces the unbounded
/// per-request vector — which grew without limit and was copied whole on
/// every percentile query — with O(kCapacity) memory and O(kCapacity)
/// queries under sustained traffic. count/mean/min/max stay exact via
/// running accumulators; interior percentiles are exact until the
/// reservoir first overflows and an estimate thereafter.
class LatencyReservoir {
 public:
  static constexpr std::size_t kCapacity = 2048;

  void record(double value_us);

  /// Values recorded (not the retained sample size).
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Values retained; never exceeds kCapacity.
  [[nodiscard]] std::size_t sample_size() const { return samples_.size(); }

  [[nodiscard]] double mean_us() const;
  [[nodiscard]] double min_us() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max_us() const { return count_ == 0 ? 0.0 : max_; }

  /// Percentile @p p in [0, 100] (clamped); 0 when nothing was recorded.
  /// p <= 0 and p >= 100 return the exact stream minimum / maximum even
  /// after the reservoir overflowed.
  [[nodiscard]] double percentile_us(double p) const;

 private:
  std::vector<double> samples_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  /// xorshift64 state; fixed seed so runs are reproducible.
  std::uint64_t rng_ = 0x2545f4914f6cdd1dull;
};

/// Per-strategy tallies of portfolio admission (see runtime/portfolio.hpp);
/// indexed like PortfolioOptions::strategies.
struct PortfolioStrategyStats {
  std::string name;
  std::uint64_t runs = 0;      ///< Races in which the strategy started.
  std::uint64_t wins = 0;      ///< Races whose plan this strategy supplied.
  std::uint64_t losses = 0;    ///< Ran (or was cancelled mid-run) but lost.
  std::uint64_t timeouts = 0;  ///< Stopped/skipped by the expired budget.
  double spent_us = 0.0;       ///< Summed mapper wall-clock.
};

/// Counters and latency distribution of the admission stream.
struct AdmissionStats {
  std::uint64_t offered = 0;    ///< Admit requests submitted.
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t retries = 0;    ///< Extra mapping attempts by a retry policy.
  std::uint64_t releases = 0;   ///< Release requests processed.
  std::uint64_t release_errors = 0;  ///< Unknown-id / double releases.
  /// Optimistic validation conflicts: a plan stopped fitting between
  /// snapshot and commit and was re-mapped.
  std::uint64_t conflicts = 0;

  /// Sharded-mode requests that fell back to whole-platform admission
  /// after their stripe could not host them.
  std::uint64_t shard_fallbacks = 0;

  // -- defragmentation (see runtime/defrag.hpp) ----------------------------
  std::uint64_t defrag_passes = 0;        ///< Passes that ran.
  std::uint64_t migrations = 0;           ///< Applications relocated.
  std::uint64_t migration_failures = 0;   ///< Rolled-back commit attempts.
  /// Parked requests whose wake-up followed a defrag pass that migrated
  /// at least one application in the same release event.
  std::uint64_t parked_woken_by_defrag = 0;
  /// Fragmentation score around the most recent pass.
  double last_fragmentation_before = 0.0;
  double last_fragmentation_after = 0.0;
  /// Summed modelled migration cost, microseconds.
  double migration_cost_us = 0.0;

  // -- shape library (see shapes/library.hpp) ------------------------------
  std::uint64_t shape_hits = 0;    ///< Admissions committed from a shape.
  std::uint64_t shape_misses = 0;  ///< Lookups that ran the full mapper.
  std::uint64_t shape_inserts = 0;    ///< Placements learned on admit.
  std::uint64_t shape_evictions = 0;  ///< Shapes evicted by those inserts.
  /// Anchor transforms screened on behalf of this manager's lookups.
  std::uint64_t shape_anchor_probes = 0;

  /// Snapshot copies served by reusing a per-worker scratch ResourceState
  /// instead of allocating a fresh one.
  std::uint64_t snapshot_reuses = 0;

  // -- admission hot path (see docs/architecture.md) -----------------------
  /// Commits that skipped the full mapping_fits re-validation because the
  /// live state's version had not moved since the plan was pre-validated
  /// on its snapshot.
  std::uint64_t gated_commits = 0;
  /// Commits that ran the mapping_fits re-validation (the plan's snapshot
  /// was stale, masked, or never pre-validated).
  std::uint64_t validated_commits = 0;
  /// Wall-clock per admission phase, microseconds, summed over requests:
  /// snapshot refreshes, mapper/race/shape-probe planning, fit
  /// (re-)validation, and state commits.
  double snapshot_time_us = 0.0;
  double map_time_us = 0.0;
  double validate_time_us = 0.0;
  double commit_time_us = 0.0;

  // -- portfolio admission (see runtime/portfolio.hpp) ---------------------
  std::uint64_t portfolio_races = 0;  ///< Races run on shape-library misses.
  /// Races that produced no feasible plan (budget exhausted or every
  /// strategy failed); the primary mapper then ran once, unbudgeted.
  std::uint64_t portfolio_fallbacks = 0;
  /// Per-strategy wins/losses/timeouts/budget spend; empty until the first
  /// race.
  std::vector<PortfolioStrategyStats> portfolio;

  // -- preemption (see PreemptionOptions in runtime/admission.hpp) ---------
  std::uint64_t preemption_grants = 0;     ///< Arrivals admitted by evicting.
  std::uint64_t preemption_evictions = 0;  ///< Victims evicted (re-parked).

  // -- mode switches (see switch_mode()) -----------------------------------
  std::uint64_t mode_switches = 0;          ///< switch_mode() calls.
  std::uint64_t switches_in_place = 0;      ///< Committed with pins held.
  std::uint64_t switches_replanned = 0;     ///< Committed via full replan.
  std::uint64_t switches_rolled_back = 0;   ///< Old mode kept on misfit.
  std::uint64_t switch_failures = 0;        ///< Unknown-id switches.
  /// Switches aborted because their own wall-clock deadline blew while
  /// planning (old mode kept; see ModeSwitchOptions::deadline_us).
  std::uint64_t switch_deadline_misses = 0;
  /// Summed modelled migration cost of committed switches, microseconds.
  double switch_migration_cost_us = 0.0;
  /// Wall-clock latency of every switch_mode() call, us (bounded sample).
  LatencyReservoir switch_latencies;

  /// Mapper wall-clock latency of every resolved admit request, us.
  /// Bounded (see LatencyReservoir) so sustained traffic cannot grow the
  /// stats without limit.
  LatencyReservoir latencies;

  /// Latency percentile @p p in [0, 100] over resolved requests (0 when no
  /// request resolved yet).
  [[nodiscard]] double latency_percentile_us(double p) const {
    return latencies.percentile_us(p);
  }
  [[nodiscard]] double mean_latency_us() const { return latencies.mean_us(); }
};

/// Merges one defragmentation pass into @p stats. Shared by every trigger
/// path (policy-driven, on-reject, defrag_now, the mode-switch misfit
/// retry); the caller holds whatever guards @p stats.
void merge_defrag_stats(AdmissionStats& stats, const DefragPassResult& pass);

/// Counts one switch outcome into @p stats (mode_switches, the per-status
/// counter, the latency sample and the migration cost) and returns
/// whether the switch committed. The caller holds whatever guards
/// @p stats.
bool record_switch_stats(AdmissionStats& stats, const SwitchOutcome& out);

}  // namespace rtsm::runtime
