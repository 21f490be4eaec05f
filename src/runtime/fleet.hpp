#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/platform.hpp"
#include "audit/mutex.hpp"
#include "core/migration.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/scenario.hpp"
#include "runtime/stats_report.hpp"

namespace rtsm::runtime {

/// Rate limiting of the fleet's background maintenance loop.
struct BackgroundDefragOptions {
  /// Start the maintenance thread (off by default: deterministic fleets
  /// and tests drive compaction through defrag_tick() instead).
  bool enabled = false;

  /// Sleep between maintenance ticks, microseconds. The budget knob: one
  /// tick spends at most `platforms_per_tick` bounded defrag passes, so
  /// the maintenance cost per second is platforms_per_tick/period — never
  /// a function of admission traffic.
  std::uint64_t period_us = 20000;

  /// Platforms visited (round-robin) per tick; each gets at most one
  /// defrag_now() pass.
  std::size_t platforms_per_tick = 1;

  /// Fragmentation score below which a platform's pass is skipped (the
  /// pass would migrate nothing useful; counted in defrag_skipped).
  double min_fragmentation = 0.05;
};

/// Tuning of a FleetManager.
struct FleetOptions {
  /// Platform instances (K). Each is an independent ResourceState over
  /// one shared arch::Platform copy owned by the fleet.
  std::size_t platforms = 2;

  /// Fleet dispatcher threads popping the submit queue. 0 = no threads:
  /// submissions queue up and pump() (or admit()) dispatches them inline
  /// on the caller's thread in submission order — deterministic, the mode
  /// scenario replays and tests use.
  std::uint32_t workers = 2;

  /// Worker pool of each per-platform ConcurrentRuntimeManager. 0 (the
  /// default) keeps platform managers in pump mode: the dispatcher thread
  /// that picked a platform runs the admission itself, so fleet
  /// parallelism comes from dispatchers, not nested pools.
  std::uint32_t platform_workers = 0;

  /// Bound of the fleet submit queue (back-pressure, like the managers').
  std::size_t queue_capacity = 256;

  /// Platforms tried per admission: the least-loaded choice plus up to
  /// this many spill-over retries on the next-best platforms. Defaults to
  /// every other platform.
  std::size_t spill_retries = SIZE_MAX;

  /// After the last spill target rejected: migrate the cheapest running
  /// app off the first-choice platform onto the emptiest other platform
  /// (priced by ManagerOptions::defrag.cost) and retry the admission once
  /// on the vacated platform.
  bool cross_migration = false;

  /// Load score = mean live tile occupancy + this weight x in-flight
  /// dispatches already heading to the platform (so concurrent
  /// dispatchers spread even while occupancies still look equal).
  double queue_depth_weight = 0.05;

  BackgroundDefragOptions background_defrag;

  /// Template applied to every platform manager (mapper / policy / defrag
  /// / preemption / shapes / portfolio). A shape library given here is
  /// shared by all platforms — legal because every manager maps the same
  /// platform object. Parking admission policies are not fleet-tracked:
  /// the fleet's spill-over is its retry story, so keep the default
  /// first-fit policy unless something else drives per-platform releases.
  ManagerOptions manager;
};

/// Fleet counters (on top of the per-platform StatsReports).
struct FleetStats {
  /// Admissions dispatched to a first-choice platform.
  std::uint64_t dispatches = 0;
  /// Retries on a spill-over platform after a reject.
  std::uint64_t spills = 0;
  /// Admissions rejected by the first choice and every spill target.
  std::uint64_t spill_failures = 0;

  std::uint64_t cross_migrations = 0;
  std::uint64_t cross_migration_failures = 0;
  /// Summed modelled cost of committed cross-platform migrations, us.
  double cross_migration_cost_us = 0.0;

  /// Maintenance loop: ticks run, defrag passes spent, passes skipped
  /// because the platform was already compact.
  std::uint64_t defrag_ticks = 0;
  std::uint64_t defrag_passes = 0;
  std::uint64_t defrag_skipped = 0;

  /// Largest (max - min) mean-occupancy gap observed at dispatch time —
  /// how unbalanced the fleet ever got.
  double max_imbalance = 0.0;

  std::vector<std::uint64_t> per_platform_dispatches;
};

/// Fleet-wide observability snapshot: fleet counters + one StatsReport
/// per platform.
struct FleetStatsReport {
  FleetStats fleet;
  std::vector<StatsReport> platforms;

  /// {"fleet":{...},"platforms":[StatsReport...]} — same conventions as
  /// StatsReport::to_json().
  [[nodiscard]] std::string to_json() const;
};

/// Multi-platform federation: K independent platform instances — each its
/// own ConcurrentRuntimeManager over a private ResourceState — behind one
/// submit/release/switch_mode front-end. One mesh is one chip; the fleet
/// is the row of chips a production deployment load-balances across.
///
/// Dispatch lifts the shard machinery's least-loaded heuristic to platform
/// granularity: an admission goes to the platform with the lowest mean
/// live tile occupancy (+ a small in-flight term), spills over to the
/// next-best platform when rejected, and can optionally make room by
/// migrating a running app across platforms (priced by the existing
/// MigrationCostModel) before giving up. A rate-limited background
/// maintenance thread walks the platforms round-robin and spends bounded
/// defrag_now() passes off the admission path.
///
/// Ids: the fleet assigns its own AppIds (stable across cross-platform
/// migration) and routes them to the owning platform's local id. All
/// public APIs speak fleet ids.
class FleetManager {
 public:
  /// @p platform must outlive the fleet (the managers' own contract);
  /// every platform manager references this one object, so a shape
  /// library built on it may be shared across the whole fleet.
  FleetManager(const arch::Platform& platform, FleetOptions options);

  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  /// shutdown(), then joins everything.
  ~FleetManager();

  /// Enqueues an admission; blocks while the fleet queue is full. The
  /// future resolves with the terminal outcome (app_id is a fleet id).
  /// With workers == 0 nothing resolves until pump() runs.
  std::future<AdmitOutcome> submit(std::shared_ptr<const kpn::Application> app,
                                   double deadline_us = 0.0,
                                   RequestClass cls = {});

  /// submit() + wait (pumping inline first when workers == 0).
  AdmitOutcome admit(const kpn::Application& app, double deadline_us = 0.0,
                     RequestClass cls = {});

  /// Dispatches queued submissions inline on the caller's thread until
  /// the queue is empty — the workers == 0 event loop, also a helping
  /// hand next to a running dispatcher pool.
  void pump();

  /// Blocks until every submitted request has been dispatched + resolved.
  void wait_idle();

  /// Releases fleet id @p id on its platform. False (with the owning
  /// manager's ReleaseError recorded) when unknown or already released.
  bool release(AppId id);

  /// Routes ConcurrentRuntimeManager::switch_mode to the owning platform.
  /// @p deadline_us > 0 bounds the switch's own wall-clock budget.
  SwitchOutcome switch_mode(AppId id,
                            std::shared_ptr<const kpn::Application> next,
                            double deadline_us = 0.0);

  /// Moves running fleet app @p id onto platform @p to: admit there,
  /// release here, fleet id unchanged. Priced by the cost model into
  /// stats. False (nothing changed) when the id is unknown, already on
  /// @p to, or @p to cannot host it.
  bool migrate(AppId id, std::size_t to);

  /// Stops dispatchers and the maintenance thread, drains the queue
  /// (resolving everything), shuts every platform manager down.
  /// Idempotent.
  void shutdown();

  // -- observers ----------------------------------------------------------

  [[nodiscard]] std::size_t platform_count() const { return fleet_.size(); }

  /// The shared platform object every manager maps onto.
  [[nodiscard]] const arch::Platform& platform() const { return *platform_; }

  /// Platform index hosting fleet id @p id; platform_count() if unknown.
  [[nodiscard]] std::size_t platform_of(AppId id) const;

  /// All running fleet ids, ascending.
  [[nodiscard]] std::vector<AppId> running_ids() const;
  [[nodiscard]] std::size_t running_count() const;

  [[nodiscard]] std::shared_ptr<const kpn::Application> app_of(AppId id) const;
  [[nodiscard]] core::Mapping mapping_of(AppId id) const;

  /// Residual state snapshot of platform @p p.
  [[nodiscard]] core::ResourceState state_snapshot(std::size_t p) const;

  /// Mean live tile occupancy of platform @p p (the dispatch probe).
  [[nodiscard]] double platform_occupancy(std::size_t p) const;

  /// Direct access to platform @p p's manager (operators, tests).
  [[nodiscard]] ConcurrentRuntimeManager& manager(std::size_t p) {
    return *fleet_[p]->manager;
  }

  /// One deterministic maintenance tick, inline: walk up to
  /// background_defrag.platforms_per_tick platforms round-robin and run a
  /// defrag pass on each fragmented one — exactly what the background
  /// thread does per period, callable without the thread (benches that
  /// must stay reproducible, workers == 0 fleets).
  void defrag_tick();

  /// Fleet counters + per-platform StatsReports.
  [[nodiscard]] FleetStatsReport stats_report();
  [[nodiscard]] FleetStats fleet_stats() const;

 private:
  struct PlatformEntry {
    std::unique_ptr<ConcurrentRuntimeManager> manager;
    /// Dispatches currently in flight toward this platform (picked but
    /// not yet resolved) — the queue-depth term of the load score.
    std::atomic<std::uint64_t> pending{0};
  };

  struct FleetRequest {
    std::shared_ptr<const kpn::Application> app;
    double deadline_us = 0.0;
    RequestClass cls;
    std::promise<AdmitOutcome> promise;
  };

  void worker_loop();
  /// Dispatch + spill-over + optional cross-migration retry for one
  /// request; resolves its promise.
  void dispatch(FleetRequest request);
  /// Platform indices in ascending load-score order.
  [[nodiscard]] std::vector<std::size_t> ranked_platforms();
  /// Synchronous admission on platform @p p (the manager runs in pump
  /// mode, so this plans inline on the calling thread).
  AdmitOutcome admit_on(std::size_t p, const FleetRequest& request);
  /// Cross-migration escape hatch: vacate the cheapest app of @p from
  /// onto another platform. True when an app moved.
  bool try_make_room(std::size_t from);
  /// migrate() body; caller holds route_mutex_.
  bool migrate_locked(AppId id, std::size_t to) RTSM_REQUIRES(route_mutex_);
  void maintenance_loop();

#if RTSM_AUDIT
  /// Route-table consistency: every fleet route must resolve to an app
  /// actually running on its platform (a platform may run extras — parked
  /// admissions the fleet abandoned — but never miss a routed one).
  void audit_routes(const char* where) const RTSM_REQUIRES(route_mutex_);
#endif
  /// One round-robin maintenance step over up to @p budget platforms.
  void defrag_step(std::size_t budget);
  void finish_one();

  /// The caller's platform object, referenced by all managers (shape
  /// libraries check pointer identity between their platform and the
  /// manager's).
  const arch::Platform* platform_;
  FleetOptions options_;
  core::MigrationCostModel cost_;

  std::vector<std::unique_ptr<PlatformEntry>> fleet_;

  /// Guards routes_ (fleet id -> platform + local id) and next_id_.
  /// Outermost of the whole tree bar the maintenance/defrag pair: held
  /// across manager release / submit+pump / switch calls.
  mutable audit::Mutex route_mutex_{audit::LockRank::kFleetRoute,
                                    "fleet.route"};
  struct Route {
    std::size_t platform = 0;
    AppId local;
  };
  std::map<AppId, Route> routes_ RTSM_GUARDED_BY(route_mutex_);
  std::uint32_t next_id_ RTSM_GUARDED_BY(route_mutex_) = 0;

  mutable audit::Mutex stats_mutex_{audit::LockRank::kFleetStats,
                                    "fleet.stats"};
  FleetStats stats_ RTSM_GUARDED_BY(stats_mutex_);
  /// Next platform the round-robin maintenance walk visits.
  std::size_t defrag_cursor_ RTSM_GUARDED_BY(defrag_mutex_) = 0;
  /// Serializes maintenance ticks (thread vs. defrag_tick() callers);
  /// held across whole manager defrag passes, hence ranked above only the
  /// maintenance sleep lock.
  audit::Mutex defrag_mutex_{audit::LockRank::kFleetDefrag, "fleet.defrag"};

  BoundedQueue<FleetRequest> queue_;
  std::vector<std::thread> workers_;
  std::thread maintenance_;
  /// Only pairs the shutdown flag with the maintenance thread's timed
  /// sleep; nothing else nests inside it.
  audit::Mutex maintenance_mutex_{audit::LockRank::kFleetMaintenance,
                                  "fleet.maintenance"};
  std::condition_variable_any maintenance_cv_;

  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<bool> stopped_{false};
  audit::Mutex idle_mutex_{audit::LockRank::kFleetIdle, "fleet.idle"};
  std::condition_variable_any idle_cv_;
};

/// Drives a FleetManager through the scenario engine — ConcurrentTarget
/// semantics (futures collected on settle()), fleet ids throughout, and a
/// per-platform serial-replay oracle.
class FleetTarget final : public ScenarioTarget {
 public:
  explicit FleetTarget(FleetManager& fleet) : fleet_(&fleet) {}

  std::uint64_t submit(std::shared_ptr<const kpn::Application> app,
                       double deadline_us, RequestClass cls) override;
  bool release(AppId id) override { return fleet_->release(id); }
  SwitchOutcome switch_mode(AppId id,
                            std::shared_ptr<const kpn::Application> next,
                            double deadline_us) override {
    return fleet_->switch_mode(id, std::move(next), deadline_us);
  }
  std::vector<SettledOutcome> settle() override;
  std::vector<SettledOutcome> finish() override;

  bool is_running(AppId id) const override;
  std::vector<AppId> running_ids() const override {
    return fleet_->running_ids();
  }
  std::shared_ptr<const kpn::Application> app_of(AppId id) const override {
    return fleet_->app_of(id);
  }
  core::Mapping mapping_of(AppId id) const override {
    return fleet_->mapping_of(id);
  }
  /// Platform 0's snapshot (the oracle below checks every platform and
  /// never goes through this).
  core::ResourceState state_copy() const override {
    return fleet_->state_snapshot(0);
  }
  /// Integer counters summed over the platforms (latency reservoirs stay
  /// per-platform; read them through FleetManager::stats_report()).
  AdmissionStats stats() const override;

  /// Serial-replay oracle per platform: every platform's live state must
  /// equal the replay of its own surviving (app, mapping) pairs.
  [[nodiscard]] bool replay_matches() const override;

 private:
  FleetManager* fleet_;
  std::uint64_t next_ticket_ = 0;
  std::vector<std::pair<std::uint64_t, std::future<AdmitOutcome>>> pending_;
};

}  // namespace rtsm::runtime
