#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "arch/platform.hpp"
#include "audit/mutex.hpp"
#include "core/mapper.hpp"
#include "runtime/admission.hpp"
#include "runtime/defrag.hpp"
#include "runtime/manager_options.hpp"
#include "runtime/mode_switch.hpp"
#include "runtime/request_queue.hpp"
#include "shapes/library.hpp"
#include "verify/engine.hpp"

namespace rtsm::runtime {

class MapperPortfolio;
class PortfolioRace;
struct StatsReport;

/// Tuning knobs of the ConcurrentRuntimeManager.
struct ConcurrentOptions {
  /// Worker threads consuming the arrival queue. 0 = no pool: the serial
  /// mode. Requests queue up and are processed inline by pump() (or
  /// admit()) on the caller's thread — deterministic, used by the benches,
  /// the tests and for embedding the manager into an external event loop.
  std::uint32_t workers = 4;

  /// Bound of the arrival queue. submit() blocks while the queue is full,
  /// back-pressuring arrival sources instead of growing without limit.
  std::size_t queue_capacity = 256;

  /// Arrivals drained per worker wake: one burst batch. The batch is
  /// reordered by the PriorityPolicy and admitted greedily, so a burst is
  /// admitted in priority order even though arrivals raced.
  std::size_t max_batch = 8;

  /// Re-map attempts after an optimistic validation conflict (the residual
  /// state changed between snapshot and commit so the plan no longer
  /// fits). Each retry plans against a fresh snapshot.
  std::uint32_t validation_retries = 3;

  /// Batch-ordering policy: how requests within one drained burst are
  /// ranked (after the RequestClass, before arrival order). Null defaults
  /// to FifoPriority.
  std::shared_ptr<const PriorityPolicy> priority;

  /// Number of tile-region shards (vertical mesh stripes). >= 2 enables
  /// two-phase sharded admission: a request first plans confined to the
  /// least-loaded shard (per-shard lock, tiles outside the shard masked as
  /// saturated), and falls back to whole-platform optimistic admission
  /// when the shard cannot host it (counted in stats().shard_fallbacks).
  std::uint32_t shards = 1;
};

/// The run-time admission engine: the paper's run-time scenario as a
/// subsystem, and the only admission manager of the library.
///
/// Owns the platform's ResourceState and admits, maps and releases
/// streaming applications against it. Every admission is planned by the
/// pluggable Mapper strategy against the residual resources, screened by
/// mapping_fits() and booked with commit_mapping(); releases return the
/// reservation with release_mapping(). A pluggable AdmissionPolicy decides
/// whether failed requests are dropped (first-fit) or parked and retried
/// when capacity is next released. An optional DefragPolicy compacts the
/// platform by migrating running applications after releases (before
/// parked requests are woken) or when an admission fails — see
/// runtime/defrag.hpp. With a ShapeLibrary, admission first instantiates
/// a learned relocatable placement against the live state and only falls
/// back to the full mapper on a miss, learning the placements it commits.
///
/// workers = 0 is the serial mode: nothing runs until the caller pumps,
/// and pump() processes the queue on the caller's thread in bursts of up
/// to max_batch arrivals. Each burst is ordered by RequestClass priority,
/// then by the PriorityPolicy, then by arrival order — so with classes
/// present a later high-priority arrival is admitted ahead of an earlier
/// default-class one in the same burst. Woken parked requests re-enter
/// the queue behind whatever is already queued.
///
/// The expensive part of an admission — running the spatial mapper — is
/// executed on a value snapshot of the ResourceState *outside* any lock;
/// only the fit re-check (mapping_fits) and the reservation
/// (commit_mapping) are serialized on the state mutex. When the residual
/// state changed in between and the plan no longer fits, the request is
/// re-mapped against a fresh snapshot (a bounded number of times) — the
/// classic optimistic-concurrency loop, which works because admissions
/// rarely contend for the same tiles on a large platform.
///
/// Interface:
/// - submit() returns a std::future<AdmitOutcome>; with a pool, resolution
///   order across racing requests is nondeterministic (within one drained
///   batch it follows the ordering above).
/// - release() applies immediately (it only takes the state lock) and
///   wakes parked requests by re-queueing them.
/// - A retry policy parks failed requests; a parked request's future
///   resolves after a later release readmits it, or when
///   reject_waiting()/shutdown() gives up on it.
class ConcurrentRuntimeManager {
 public:
  /// Builds a manager from the options surface (mapper / policy / defrag /
  /// preemption / shapes / portfolio; see runtime/manager_options.hpp) plus
  /// the pool tuning in @p options. Null mapper / policy / priority default
  /// to SpatialMapper, FirstFitAdmission and FifoPriority. Throws
  /// rtsm::Error when @p manager enables the portfolio without a registry
  /// or names an unknown strategy.
  ConcurrentRuntimeManager(const arch::Platform& platform,
                           ManagerOptions manager,
                           ConcurrentOptions options = {});

  ConcurrentRuntimeManager(const ConcurrentRuntimeManager&) = delete;
  ConcurrentRuntimeManager& operator=(const ConcurrentRuntimeManager&) =
      delete;

  /// Joins the workers; queued requests are still processed, parked ones
  /// are rejected (see shutdown()).
  ~ConcurrentRuntimeManager();

  /// Enqueues an admission request from any thread; blocks while the
  /// arrival queue is full. The future resolves when the request is
  /// admitted, rejected or misses its deadline; with a retry policy it
  /// stays pending while the request is parked. @p cls orders the request
  /// within its drained burst (before the PriorityPolicy tie-break) and
  /// gates preemption: an otherwise-rejected arrival whose class outranks
  /// running preemptible applications may evict the cheapest victim set
  /// (victims are re-parked; see RequestClass).
  std::future<AdmitOutcome> submit(std::shared_ptr<const kpn::Application> app,
                                   double deadline_us = 0.0,
                                   RequestClass cls = {});

  /// submit() + future wait. With workers == 0 the caller's thread pumps
  /// the queue first, and a request the retry policy parked returns at
  /// once with status Waiting and its request id (its future resolves
  /// after a later release; the outcome is not handed out again). With a
  /// pool, do not combine with a retry policy when nothing else drives
  /// releases — a parked request would block the caller forever.
  AdmitOutcome admit(const kpn::Application& app, double deadline_us = 0.0,
                     RequestClass cls = {});

  /// Releases a running application immediately (thread-safe) and wakes
  /// parked requests. Returns false — and records a ReleaseError +
  /// stats().release_errors, never a throw — when the id is unknown or
  /// already released.
  bool release(AppId id);

  /// Switches running instance @p id to the graph @p next *in place*: the
  /// processes of @p next that share a name with the old graph are pinned
  /// to their current tiles and only the remaining delta is re-planned
  /// (through the ordinary mapper, so structurally-equal placements hit
  /// the shared step-4 verification cache). The new mode is committed with
  /// a two-phase release/fit/commit whose misfit path restores the old
  /// booking exactly; when no plan fits, one defragmentation pass is spent
  /// before rolling back to the old mode. The plan *and* commit run under
  /// the state lock (like a defrag pass), so the switch is atomic against
  /// racing admissions and releases; the instance keeps its AppId. A
  /// committed switch wakes parked requests. @p deadline_us > 0 bounds the
  /// switch's own wall-clock budget (SwitchStatus::DeadlineMiss + old mode
  /// kept when blown).
  SwitchOutcome switch_mode(AppId id,
                            std::shared_ptr<const kpn::Application> next,
                            double deadline_us = 0.0);

  /// Processes queued requests inline on the caller's thread until the
  /// queue is empty. The workers == 0 mode's event loop; also safe to call
  /// concurrently with a running pool (the caller just becomes an extra
  /// worker for a while).
  void pump();

  /// Blocks until every submitted request has been resolved or parked.
  /// (Parked requests are waiting for a future release, not for a worker —
  /// counting them as in-flight would deadlock the caller.)
  void wait_idle();

  /// Force-resolves all parked requests as rejected; returns their
  /// outcomes (their futures resolve too).
  std::vector<AdmitOutcome> reject_waiting();

  /// Stops accepting new requests, drains the queue, joins the workers and
  /// rejects everything still parked. Idempotent; called by the
  /// destructor.
  void shutdown();

  // -- thread-safe observers (values are copied out under the lock) -------

  /// Residual resource snapshot (what a new admission would see).
  [[nodiscard]] core::ResourceState state_snapshot() const;

  /// Mean live tile occupancy in [0, 1], read under the state lock in one
  /// O(tiles) scan (no snapshot copy) — the fleet dispatcher's load probe.
  [[nodiscard]] double mean_occupancy() const;

  [[nodiscard]] AdmissionStats stats() const;

  /// One aggregate observability snapshot (admission + verification +
  /// shape-library counters, plus the release errors drained like
  /// drain_release_errors()). StatsReport::to_json() is what the benches
  /// embed.
  [[nodiscard]] StatsReport stats_report();

  /// Step-4 verification-engine counters of the underlying mapper — the
  /// engine is thread-safe, so this is just a snapshot of its stats.
  /// Zeros when the mapper runs without an engine.
  [[nodiscard]] verify::EngineStats verification_stats() const;

  /// Shape-library counters (library-global when the library is shared;
  /// the per-manager view lives in stats().shape_*). Zeros without a
  /// library.
  [[nodiscard]] shapes::ShapeLibraryStats shape_stats() const;

  [[nodiscard]] std::size_t running_count() const;
  [[nodiscard]] std::size_t waiting_count() const;
  [[nodiscard]] std::size_t queued_count() const { return queue_.size(); }

  [[nodiscard]] std::vector<AppId> running_ids() const;
  [[nodiscard]] core::Mapping mapping_of(AppId id) const;
  [[nodiscard]] std::shared_ptr<const kpn::Application> app_of(AppId id) const;
  /// "<graph name>#<instance>" — unique even when graph names collide.
  [[nodiscard]] std::string display_name(AppId id) const;
  [[nodiscard]] double total_energy_nj_per_symbol() const;

  /// Hands out (and clears) recorded release errors.
  [[nodiscard]] std::vector<ReleaseError> drain_release_errors();

  [[nodiscard]] const core::Mapper& mapper() const { return *mapper_; }
  [[nodiscard]] const AdmissionPolicy& policy() const { return *policy_; }
  [[nodiscard]] const PriorityPolicy& priority_policy() const {
    return *priority_;
  }
  [[nodiscard]] const ConcurrentOptions& options() const { return options_; }

  /// The portfolio raced on shape misses; null when disabled.
  [[nodiscard]] const MapperPortfolio* portfolio() const {
    return portfolio_.get();
  }

  /// Shard index hosting @p tile (tiles are partitioned into vertical mesh
  /// stripes); always 0 when sharding is off.
  [[nodiscard]] std::size_t shard_of(TileId tile) const;

  /// Runs one defragmentation pass right now (regardless of policy) under
  /// the state lock and merges its result into stats(). For operators,
  /// benches and tests.
  DefragPassResult defrag_now();

 private:
  struct Request {
    RequestId id = 0;
    std::shared_ptr<const kpn::Application> app;
    double deadline_us = 0.0;
    double priority = 0.0;
    RequestClass cls;
    std::uint32_t attempts = 0;
    double mapping_us = 0.0;
    /// An OnReject defrag pass was already spent on this request.
    bool defragged = false;
    /// Preemption victim re-entering the stream; never preempts again.
    bool reparked = false;
    /// Winning strategy of the portfolio race that produced the current
    /// plan (copied onto the outcome by validate_and_commit).
    std::string portfolio_winner;
    std::promise<AdmitOutcome> promise;
  };

  /// One queue entry: a client admission request, or — when race is set —
  /// a helper job lending the popping worker to another worker's portfolio
  /// race (strategy #strategy of that race). Helpers run before the
  /// batch's requests, carry no promise and are not counted in-flight; a
  /// helper whose race already closed is a no-op.
  struct Job {
    Request request;
    std::shared_ptr<PortfolioRace> race;
    std::size_t strategy = 0;
  };

  struct Shard {
    /// One class for every shard instance: shard locks are never nested
    /// (a fallback to whole-platform admission releases the shard lock
    /// first), which the witness graph would flag as a self-edge.
    audit::Mutex mutex{audit::LockRank::kManagerShard, "manager.shard"};
    std::vector<bool> owns_tile;  // indexed by TileId::value()
  };

  /// submit() that also reports the new request's id through @p id.
  std::future<AdmitOutcome> enqueue(
      std::shared_ptr<const kpn::Application> app, double deadline_us,
      RequestClass cls, RequestId& id);

  /// Queues @p job; false (job untouched) when the queue is closed. With
  /// workers == 0 a full queue is drained by pumping inline, since no
  /// other thread would ever make room.
  bool push_job(Job& job);

  void worker_loop();
  /// Runs one popped batch: helper jobs first (a racing owner may be
  /// blocked on them), then the real requests through process_batch.
  void process_jobs(std::vector<Job> jobs, core::ResourceState& scratch);
  /// @p scratch is the calling worker's reusable snapshot buffer (the
  /// per-attempt ResourceState copies land in it instead of freshly
  /// allocated snapshots; see stats().snapshot_reuses).
  void process_batch(std::vector<Request> batch, core::ResourceState& scratch);
  void process_request(Request request, core::ResourceState& scratch);

  /// Shape-library hot path: probe on @p scratch, commit through
  /// validate_and_commit, re-probe on conflict (bounded by
  /// validation_retries). True when the request was resolved.
  bool try_shape_admit(Request& request, core::ResourceState& scratch);

  /// One mapping attempt against @p base; updates attempt counters.
  core::MappingResult run_mapper(Request& request,
                                 const core::ResourceState& base);

  /// One portfolio race against @p base: strategies 1..N-1 are offered to
  /// idle workers as helper jobs (try_push — the owner must never block on
  /// a full queue), the owner runs strategy 0 and then claims whatever no
  /// helper picked up, so the race finishes with any pool size. Returns
  /// the winner's plan, or — when the race has no winner — one unbudgeted
  /// run of the primary mapper (portfolio_fallbacks). @p base must stay
  /// valid for the whole call; the owner blocks in close_and_wait until
  /// every helper is done with it.
  core::MappingResult run_race(Request& request,
                               const core::ResourceState& base);

  /// Fit re-check + reservation under the state lock. False on conflict.
  /// @p planned_on, when non-null, is the scratch snapshot the plan was
  /// already pre-validated against (mapping_fits ran on it after its last
  /// refresh and passed, and it was not mutated since). If that scratch is
  /// still version-synced with the live state under the lock, the live
  /// state is bit-identical to it and the mapping_fits re-validation is
  /// skipped (stats().gated_commits); any intervening commit, release,
  /// defrag or switch bumps the live version and forces the full re-check
  /// (stats().validated_commits). @p shape_hit marks the plan as a
  /// shape-library instantiation (tagged on the outcome; a miss-path
  /// success learns into the library here).
  bool validate_and_commit(Request& request, core::MappingResult& result,
                           const core::ResourceState* planned_on = nullptr,
                           bool shape_hit = false);

  /// Copy-assigns the live state into @p out under the state lock (reusing
  /// @p out's vector capacity, so a warm scratch does not allocate). Arms
  /// @p out's sync token, which validate_and_commit's commit gate checks.
  void snapshot_state_into(core::ResourceState& out) const;

  /// snapshot_state_into + all tiles outside @p shard saturated.
  void masked_snapshot_into(std::size_t shard, core::ResourceState& out) const;

  /// Least-loaded shard by live occupancy (mean tile_occupancy of the
  /// stripe's tiles). Stripes within a small band of the minimum are
  /// dealt out round-robin so concurrent planners on an evenly loaded
  /// platform still start in disjoint stripes.
  [[nodiscard]] std::size_t pick_shard() const;

  /// Evicts lower-priority preemptible victims for @p request and commits
  /// its plan, all under one state-lock hold (atomic against racing
  /// admissions). On success the outcome is resolved and the evicted
  /// victims are returned through @p evicted for re-parking (done by the
  /// caller *outside* the state lock — lock order: state before waiting
  /// is never taken). False leaves all state untouched.
  bool try_preempt_and_commit(Request& request,
                              std::vector<Request>& evicted);
  /// Re-parks preemption victims (fresh request ids, reparked flag).
  void park_evicted(std::vector<Request> evicted);

#if RTSM_AUDIT
  /// RTSM_AUDIT boundary hook: rebuilds the books from running_ via
  /// audit::check_state and reports any drift as a violation. Called at
  /// every commit/release/defrag/switch/preemption boundary, under
  /// state_mutex_.
  void audit_check(const char* where) const RTSM_REQUIRES(state_mutex_);
#endif

  /// One defrag pass under the state lock; stats merged afterwards.
  DefragPassResult defrag_pass_locked();
  /// OnReleaseThreshold trigger: pass when the score is over threshold.
  /// Returns whether a pass migrated anything.
  bool maybe_defrag_after_release();

  /// Outcome bookkeeping shared by every resolution path: counters and
  /// the latency sample.
  void record_outcome(const AdmitOutcome& outcome);
  void resolve(Request request, AdmitOutcome outcome);
  /// Resolves @p request as rejected because the manager is shut down.
  void reject_shut_down(Request request);

  /// Parks @p request — unless a release advanced the epoch past
  /// @p epoch_seen since the failed attempt planned its snapshot, in which
  /// case parking would miss that release's wake-up (the lost-wakeup race)
  /// and the caller must retry against the fresh state instead. Returns
  /// whether the request was parked.
  [[nodiscard]] bool try_park(Request& request, std::uint64_t epoch_seen);

  /// Moves parked requests back into the queue after a release.
  /// @p after_defrag_migration marks the wake as following a defrag pass
  /// that moved something (counted in parked_woken_by_defrag).
  void requeue_waiting(bool after_defrag_migration = false);
  /// Decrements the in-flight count and wakes wait_idle().
  void finish_one();

  const arch::Platform* platform_;
  std::shared_ptr<const core::Mapper> mapper_;
  std::shared_ptr<const AdmissionPolicy> policy_;
  std::shared_ptr<const PriorityPolicy> priority_;
  ConcurrentOptions options_;
  /// Manager-level knobs from ManagerOptions (the pool tuning stays in
  /// options_).
  PreemptionOptions preemption_;
  std::shared_ptr<shapes::ShapeLibrary> shapes_;
  std::unique_ptr<DefragPlanner> planner_;
  /// Raced on shape misses; null when portfolio admission is disabled.
  std::unique_ptr<MapperPortfolio> portfolio_;

  /// Guards state_ and running_ (commit + bookkeeping are one atomic
  /// step). Never held while an *admission* mapper runs; a defrag pass
  /// does hold it while re-planning, serializing compaction against
  /// commits (see docs/architecture.md, migration safety) — which is why
  /// the mapper-shared cache locks rank above it.
  mutable audit::Mutex state_mutex_{audit::LockRank::kManagerState,
                                    "manager.state"};
  core::ResourceState state_ RTSM_GUARDED_BY(state_mutex_);
  std::map<AppId, RunningApp> running_ RTSM_GUARDED_BY(state_mutex_);

  /// Inline-pump scratch: pump() reuses this buffer across calls (so the
  /// workers == 0 mode copies into warm capacity like a pool worker
  /// instead of allocating a cold snapshot per pump). Try-locked; a second thread
  /// pumping concurrently falls back to a local scratch. Outermost manager
  /// lock: held across whole admissions (which take every other lock).
  audit::Mutex pump_mutex_{audit::LockRank::kManagerPump, "manager.pump"};
  core::ResourceState pump_scratch_ RTSM_GUARDED_BY(pump_mutex_);

  mutable audit::Mutex stats_mutex_{audit::LockRank::kManagerStats,
                                    "manager.stats"};
  AdmissionStats stats_ RTSM_GUARDED_BY(stats_mutex_);
  /// Snapshot copies served from a per-worker scratch buffer (atomic: the
  /// hot path must not take stats_mutex_ per attempt); merged into
  /// stats().snapshot_reuses on read.
  mutable std::atomic<std::uint64_t> snapshot_reuses_{0};
  /// Commit-gate and per-phase timing tallies (atomic for the same
  /// reason; merged into stats() on read). Times are nanoseconds.
  mutable std::atomic<std::uint64_t> gated_commits_{0};
  mutable std::atomic<std::uint64_t> validated_commits_{0};
  mutable std::atomic<std::uint64_t> snapshot_ns_{0};
  mutable std::atomic<std::uint64_t> map_ns_{0};
  mutable std::atomic<std::uint64_t> validate_ns_{0};
  mutable std::atomic<std::uint64_t> commit_ns_{0};
  std::vector<ReleaseError> release_errors_ RTSM_GUARDED_BY(stats_mutex_);

  mutable audit::Mutex waiting_mutex_{audit::LockRank::kManagerWaiting,
                                      "manager.waiting"};
  std::vector<Request> waiting_ RTSM_GUARDED_BY(waiting_mutex_);
  /// Bumped (under waiting_mutex_) by every wake of the parked list; a
  /// worker re-checks it under the same lock before parking so a release
  /// cannot slip between a failed attempt and the park (see try_park).
  std::atomic<std::uint64_t> release_epoch_{0};

  BoundedQueue<Job> queue_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> next_request_{1};
  std::atomic<std::uint32_t> next_app_{0};
  /// Rotates pick_shard()'s choice among equally-loaded stripes.
  mutable std::atomic<std::uint64_t> tie_break_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<bool> stopped_{false};
  /// Leaf: wait_idle() parks here; finish_one() only signals under it.
  audit::Mutex idle_mutex_{audit::LockRank::kManagerIdle, "manager.idle"};
  std::condition_variable_any idle_cv_;
};

}  // namespace rtsm::runtime
