#include "runtime/concurrent_manager.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/check_state.hpp"
#include "core/fragmentation.hpp"
#include "core/spatial_mapper.hpp"
#include "runtime/portfolio.hpp"
#include "runtime/preemption.hpp"
#include "runtime/stats_report.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace rtsm::runtime {

ConcurrentRuntimeManager::ConcurrentRuntimeManager(
    const arch::Platform& platform, ManagerOptions manager,
    ConcurrentOptions options)
    : platform_(&platform),
      mapper_(manager.mapper != nullptr
                  ? std::move(manager.mapper)
                  : std::make_shared<core::SpatialMapper>()),
      policy_(manager.policy != nullptr
                  ? std::move(manager.policy)
                  : std::make_shared<FirstFitAdmission>()),
      priority_(options.priority != nullptr
                    ? std::move(options.priority)
                    : std::make_shared<FifoPriority>()),
      options_(std::move(options)),
      preemption_(manager.preemption),
      shapes_(std::move(manager.shapes)),
      state_(platform),
      pump_scratch_(platform),
      queue_(options_.queue_capacity) {
  portfolio_ = make_portfolio(manager);
  require(options_.shards >= 1, "shards must be >= 1");
  require(options_.max_batch >= 1, "max_batch must be >= 1");
  require(shapes_ == nullptr || &shapes_->platform() == &platform,
          "shape library must be built for this manager's platform");
  planner_ = std::make_unique<DefragPlanner>(mapper_, manager.defrag);

  // Shards partition the mesh into vertical stripes; a tile belongs to the
  // stripe its router column falls in.
  const std::uint32_t shard_count = options_.shards;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->owns_tile.assign(platform.tile_count(), false);
    shards_.push_back(std::move(shard));
  }
  for (const TileId tid : platform.tile_ids()) {
    shards_[shard_of(tid)]->owns_tile[tid.value()] = true;
  }

  workers_.reserve(options_.workers);
  for (std::uint32_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ConcurrentRuntimeManager::~ConcurrentRuntimeManager() { shutdown(); }

std::size_t ConcurrentRuntimeManager::shard_of(TileId tile) const {
  const std::uint32_t x = platform_->tile(tile).x;
  const std::uint32_t width = std::max(platform_->mesh_width(), 1u);
  const std::size_t shard =
      static_cast<std::size_t>(x) * options_.shards / width;
  return std::min<std::size_t>(shard, options_.shards - 1);
}

std::future<AdmitOutcome> ConcurrentRuntimeManager::submit(
    std::shared_ptr<const kpn::Application> app, double deadline_us,
    RequestClass cls) {
  RequestId id = 0;
  return enqueue(std::move(app), deadline_us, cls, id);
}

std::future<AdmitOutcome> ConcurrentRuntimeManager::enqueue(
    std::shared_ptr<const kpn::Application> app, double deadline_us,
    RequestClass cls, RequestId& id) {
  require(app != nullptr, "admission request without an application");
  Request request;
  request.id = next_request_.fetch_add(1);
  id = request.id;
  request.priority = priority_->priority(*app, deadline_us);
  request.cls = cls;
  request.app = std::move(app);
  request.deadline_us = deadline_us;
  std::future<AdmitOutcome> future = request.promise.get_future();

  {
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.offered;
  }
  in_flight_.fetch_add(1);
  Job job;
  job.request = std::move(request);
  if (!push_job(job)) reject_shut_down(std::move(job.request));
  return future;
}

bool ConcurrentRuntimeManager::push_job(Job& job) {
  if (options_.workers > 0) return queue_.push(std::move(job));
  // Inline mode: the caller is the only consumer, so a blocking push on a
  // full queue would deadlock this thread. Make room by pumping.
  while (!queue_.try_push(std::move(job))) {
    if (queue_.closed()) return false;
    pump();
  }
  return true;
}

void ConcurrentRuntimeManager::reject_shut_down(Request request) {
  AdmitOutcome outcome;
  outcome.request = request.id;
  outcome.status = AdmitStatus::Rejected;
  outcome.attempts = request.attempts;
  outcome.mapping_us = request.mapping_us;
  outcome.mapping.failure = "manager is shut down";
  resolve(std::move(request), std::move(outcome));
}

AdmitOutcome ConcurrentRuntimeManager::admit(const kpn::Application& app,
                                             double deadline_us,
                                             RequestClass cls) {
  RequestId id = 0;
  auto future =
      enqueue(std::make_shared<kpn::Application>(app), deadline_us, cls, id);
  if (options_.workers == 0) {
    // Pump until the request resolves or parks. A parked request resolves
    // only after a later release, so blocking on it would deadlock the
    // only pumper; a request another pumping thread holds mid-admission is
    // neither, so poll for it in short slices.
    auto parked = [&] {
      const audit::LockGuard lock(waiting_mutex_);
      return std::any_of(waiting_.begin(), waiting_.end(),
                         [&](const Request& r) { return r.id == id; });
    };
    while (true) {
      pump();
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        break;
      }
      if (parked()) {
        AdmitOutcome outcome;
        outcome.request = id;
        outcome.status = AdmitStatus::Waiting;
        return outcome;
      }
      (void)future.wait_for(std::chrono::milliseconds(1));
    }
  }
  return future.get();
}

void ConcurrentRuntimeManager::pump() RTSM_NO_THREAD_SAFETY_ANALYSIS {
  // Reuse the manager-level pump scratch: inline mode (workers == 0)
  // pumps once per admit, and a buffer that outlives the call keeps its
  // vector capacity, so every snapshot copy-assigns without allocating.
  // A concurrent pump (an extra thread helping a live pool) takes a local
  // scratch instead of contending.
  audit::UniqueLock pump_lock(pump_mutex_, std::try_to_lock);
  std::optional<core::ResourceState> local;
  core::ResourceState& scratch =
      pump_lock.owns_lock() ? pump_scratch_ : local.emplace(*platform_);
  while (true) {
    std::vector<Job> jobs = queue_.try_pop_batch(options_.max_batch);
    if (jobs.empty()) return;
    process_jobs(std::move(jobs), scratch);
  }
}

void ConcurrentRuntimeManager::worker_loop() {
  // One scratch snapshot per worker for its whole lifetime: every
  // optimistic attempt copy-assigns the live state into it instead of
  // allocating a fresh snapshot (see snapshot_state_into).
  core::ResourceState scratch(*platform_);
  while (true) {
    std::vector<Job> jobs = queue_.pop_batch(options_.max_batch);
    if (jobs.empty()) return;  // closed and drained
    process_jobs(std::move(jobs), scratch);
  }
}

void ConcurrentRuntimeManager::process_jobs(std::vector<Job> jobs,
                                            core::ResourceState& scratch) {
  // Helper jobs first: the racing owner that queued one is blocked in
  // close_and_wait until every claimed strategy finishes, so lending this
  // worker to the race beats starting new admissions. A helper whose race
  // already closed (the owner ran the strategy itself) is a no-op.
  std::vector<Request> batch;
  batch.reserve(jobs.size());
  for (Job& job : jobs) {
    if (job.race != nullptr) {
      job.race->run(job.strategy);
    } else {
      batch.push_back(std::move(job.request));
    }
  }
  if (!batch.empty()) process_batch(std::move(batch), scratch);
}

void ConcurrentRuntimeManager::process_batch(std::vector<Request> batch,
                                             core::ResourceState& scratch) {
  // One drained burst: the request class outranks the pluggable priority
  // policy, which outranks arrival order.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Request& a, const Request& b) {
                     if (a.cls.priority != b.cls.priority) {
                       return a.cls.priority > b.cls.priority;
                     }
                     if (a.priority != b.priority) {
                       return a.priority > b.priority;
                     }
                     return a.id < b.id;
                   });
  for (Request& request : batch) {
    process_request(std::move(request), scratch);
  }
}

core::MappingResult ConcurrentRuntimeManager::run_mapper(
    Request& request, const core::ResourceState& base) {
  const auto start = std::chrono::steady_clock::now();
  core::MappingResult result = mapper_->map(*request.app, base);
  request.mapping_us += elapsed_us(start);
  map_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
  ++request.attempts;
  return result;
}

core::MappingResult ConcurrentRuntimeManager::run_race(
    Request& request, const core::ResourceState& base) {
  auto race = std::make_shared<PortfolioRace>(*portfolio_, *request.app, base);
  // Offer strategies 1..N-1 to idle workers. try_push only: blocking on a
  // full queue from inside a worker would deadlock the pool, and an
  // unoffered strategy is simply run by the owner below.
  for (std::size_t i = 1; i < portfolio_->size(); ++i) {
    Job helper;
    helper.race = race;
    helper.strategy = i;
    if (!queue_.try_push(std::move(helper))) break;
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < portfolio_->size(); ++i) {
    race->run(i);  // strategy 0 first, then whatever no helper claimed
  }
  RaceOutcome outcome = race->close_and_wait();
  // The owner's wall-clock span of the race — parallel helper time shows
  // up in the per-strategy spent_us stats, not in the request's latency.
  request.mapping_us += elapsed_us(start);
  map_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
  request.attempts += std::max<std::uint32_t>(outcome.attempts, 1);
  {
    const audit::LockGuard lock(stats_mutex_);
    merge_portfolio_stats(stats_, *portfolio_, outcome);
    if (!outcome.has_winner()) ++stats_.portfolio_fallbacks;
  }
  if (outcome.has_winner()) {
    request.portfolio_winner = outcome.winning_run().name;
    return std::move(outcome.winning_run().result);
  }
  // Budget exhausted or every strategy failed: one unbudgeted primary run,
  // so a mis-tuned budget degrades to the single-mapper manager.
  request.portfolio_winner.clear();
  return run_mapper(request, base);
}

bool ConcurrentRuntimeManager::validate_and_commit(
    Request& request, core::MappingResult& result,
    const core::ResourceState* planned_on, bool shape_hit) {
  AppId id;
  {
    const audit::LockGuard lock(state_mutex_);
    // Version gate: the plan was pre-validated against @p planned_on, and
    // a still-armed sync token proves the live state has not mutated since
    // that scratch refreshed — the two are bit-identical, so re-running
    // mapping_fits here would recompute a known true. Any commit, release,
    // defrag or mode switch in between bumps the live version and the
    // token mismatches, forcing the full (O(touched)) re-check.
    if (planned_on != nullptr && planned_on->synced_with(state_)) {
      gated_commits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      const auto validate_start = std::chrono::steady_clock::now();
      const bool fits =
          core::mapping_fits(state_, *request.app, result.mapping);
      validate_ns_.fetch_add(elapsed_ns(validate_start),
                             std::memory_order_relaxed);
      if (!fits) return false;
      validated_commits_.fetch_add(1, std::memory_order_relaxed);
    }
    const auto commit_start = std::chrono::steady_clock::now();
    core::commit_mapping(state_, *request.app, result.mapping);
    commit_ns_.fetch_add(elapsed_ns(commit_start), std::memory_order_relaxed);
    id = AppId{next_app_.fetch_add(1)};
    running_.emplace(id, RunningApp{request.app, result.mapping,
                                    result.energy_nj_per_symbol, request.cls,
                                    request.id});
#if RTSM_AUDIT
    audit_check("commit");
#endif
  }
  // Learn-on-admit: a committed miss-path placement enters the library
  // (outside the state lock — the library has its own mutex) so future
  // structurally equal arrivals take the shape hot path.
  if (shapes_ != nullptr && !shape_hit) {
    const shapes::LearnResult learned =
        shapes_->learn(*request.app, result);
    const audit::LockGuard lock(stats_mutex_);
    if (learned.inserted) ++stats_.shape_inserts;
    stats_.shape_evictions += learned.evictions;
  }
  AdmitOutcome outcome;
  outcome.request = request.id;
  outcome.status = AdmitStatus::Admitted;
  outcome.app_id = id;
  outcome.attempts = request.attempts;
  outcome.mapping_us = request.mapping_us;
  outcome.shape_hit = shape_hit;
  outcome.portfolio_winner = std::move(request.portfolio_winner);
  outcome.mapping = std::move(result);
  resolve(std::move(request), std::move(outcome));
  return true;
}

void ConcurrentRuntimeManager::snapshot_state_into(
    core::ResourceState& out) const {
  const auto start = std::chrono::steady_clock::now();
  {
    const audit::LockGuard lock(state_mutex_);
    out = state_;  // re-arms out's sync token
  }
  snapshot_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
  snapshot_reuses_.fetch_add(1, std::memory_order_relaxed);
}

void ConcurrentRuntimeManager::masked_snapshot_into(
    std::size_t shard, core::ResourceState& out) const {
  snapshot_state_into(out);
  const std::vector<bool>& owns = shards_[shard]->owns_tile;
  for (const TileId tid : out.platform().tile_ids()) {
    if (!owns[tid.value()]) out.saturate_tile(tid);
  }
}

bool ConcurrentRuntimeManager::try_shape_admit(Request& request,
                                               core::ResourceState& scratch) {
  std::uint32_t shape_conflicts = 0;
  while (true) {
    const auto start = std::chrono::steady_clock::now();
    snapshot_state_into(scratch);
    shapes::ShapeLookup lookup =
        shapes_->try_instantiate(*request.app, scratch);
    request.mapping_us += elapsed_us(start);
    {
      const audit::LockGuard lock(stats_mutex_);
      stats_.shape_anchor_probes += lookup.anchor_probes;
    }
    if (!lookup.plan.has_value()) {
      const audit::LockGuard lock(stats_mutex_);
      ++stats_.shape_misses;
      return false;
    }
    core::MappingResult plan = std::move(*lookup.plan);
    ++request.attempts;
    if (request.deadline_us > 0.0 && request.mapping_us > request.deadline_us) {
      AdmitOutcome outcome;
      outcome.request = request.id;
      outcome.status = AdmitStatus::DeadlineMiss;
      outcome.attempts = request.attempts;
      outcome.mapping_us = request.mapping_us;
      outcome.shape_hit = true;
      resolve(std::move(request), std::move(outcome));
      return true;
    }
    // The library already ran mapping_fits against this scratch (the
    // probe's full fit check), so the commit may take the version gate.
    if (validate_and_commit(request, plan, &scratch, /*shape_hit=*/true)) {
      return true;
    }
    // Outraced between snapshot and commit: re-probe against the fresh
    // state, bounded like the optimistic mapper loop.
    {
      const audit::LockGuard lock(stats_mutex_);
      ++stats_.conflicts;
    }
    if (++shape_conflicts > options_.validation_retries) {
      const audit::LockGuard lock(stats_mutex_);
      ++stats_.shape_misses;
      return false;
    }
  }
}

void ConcurrentRuntimeManager::process_request(
    Request request,
    core::ResourceState& scratch) RTSM_NO_THREAD_SAFETY_ANALYSIS {
  auto miss = [&](Request r) {
    AdmitOutcome outcome;
    outcome.request = r.id;
    outcome.status = AdmitStatus::DeadlineMiss;
    outcome.attempts = r.attempts;
    outcome.mapping_us = r.mapping_us;
    resolve(std::move(r), std::move(outcome));
  };

  // Phase 0 — shape-library hot path: instantiate a learned relocatable
  // placement and commit it through the ordinary two-phase commit,
  // skipping the mapper (and the shard machinery — a shape probe is
  // cheaper than the stripe bookkeeping it would be confined by).
  if (shapes_ != nullptr && try_shape_admit(request, scratch)) {
    return;
  }

  // Phase 1 — sharded admission: plan confined to the least-loaded stripe
  // of the mesh. The shard lock serializes planners per region (two
  // workers never plan into the same stripe at once), so shard-local
  // plans almost never hit a validation conflict; foreign-tile traffic
  // can still conflict and is caught by validate_and_commit. A portfolio
  // manager skips the stripe machinery: the race plans whole-platform
  // (its strategies spread across the pool instead of across stripes).
  if (options_.shards >= 2 && portfolio_ == nullptr) {
    const std::size_t s = pick_shard();
    audit::UniqueLock shard_lock(shards_[s]->mutex);
    masked_snapshot_into(s, scratch);
    core::MappingResult result = run_mapper(request, scratch);
    if (request.deadline_us > 0.0 && request.mapping_us > request.deadline_us) {
      shard_lock.unlock();
      miss(std::move(request));
      return;
    }
    if (result.success) {
      if (validate_and_commit(request, result)) return;
      // The shard plan got outraced (shared NoC links, foreign commits).
      const audit::LockGuard lock(stats_mutex_);
      ++stats_.conflicts;
    }
    // Shard full or outraced: phase 2 falls back to the whole platform.
    shard_lock.unlock();
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.shard_fallbacks;
  }

  // Phase 2 — whole-platform optimistic loop: map on a snapshot outside
  // any lock, re-validate + commit under the state lock, re-map on
  // conflict.
  std::uint32_t conflicts = 0;
  while (true) {
    // Epoch before the snapshot: if a release advances it while this
    // attempt runs, the attempt's failure verdict may be stale and the
    // request must not park on it (it would miss that release's wake).
    const std::uint64_t epoch_seen = release_epoch_.load();
    snapshot_state_into(scratch);
    // A conflict retry re-races on the fresh snapshot (fresh budget): the
    // strategies' relative quality may change with the changed state.
    core::MappingResult result = portfolio_ != nullptr
                                     ? run_race(request, scratch)
                                     : run_mapper(request, scratch);
    if (request.deadline_us > 0.0 && request.mapping_us > request.deadline_us) {
      miss(std::move(request));
      return;
    }
    if (result.success) {
      // Pre-validate against the scratch the plan was made on, outside
      // any lock. This is the design-time-baseline screen (a plan that
      // does not fit its own snapshot is a mapper failure, not a
      // conflict) and what arms validate_and_commit's version gate: if
      // the live state has not moved since the scratch refreshed, this
      // check already proved the commit precondition.
      const auto validate_start = std::chrono::steady_clock::now();
      const bool fits_snapshot =
          core::mapping_fits(scratch, *request.app, result.mapping);
      validate_ns_.fetch_add(elapsed_ns(validate_start),
                             std::memory_order_relaxed);
      if (!fits_snapshot) {
        result.success = false;
        result.failure = "mapping does not fit the residual resources";
      }
    }
    if (result.success) {
      if (validate_and_commit(request, result, &scratch)) return;
      {
        const audit::LockGuard lock(stats_mutex_);
        ++stats_.conflicts;
      }
      if (++conflicts <= options_.validation_retries) continue;
      result.success = false;
      result.failure = "optimistic validation kept conflicting (" +
                       std::to_string(conflicts) + " attempts)";
    }
    // OnReject: compact once per request, then retry against the
    // defragmented state (fresh snapshot, fresh epoch, and a fresh
    // validation-conflict budget — the pre-defrag conflicts say nothing
    // about the compacted state).
    if (planner_->options().policy == DefragPolicy::OnReject &&
        !request.defragged) {
      request.defragged = true;
      if (defrag_pass_locked().migrations > 0) {
        conflicts = 0;
        continue;
      }
    }
    // Last resort for an outranking arrival: evict lower-priority
    // preemptible victims. Plan, eviction and commit share one
    // state-lock hold, so no racing worker can steal the freed capacity
    // in between; the victims are re-parked after the lock is dropped.
    if (!request.reparked) {
      std::vector<Request> evicted;
      if (try_preempt_and_commit(request, evicted)) {
        park_evicted(std::move(evicted));
        return;
      }
    }
    if (policy_->on_failure(result, request.attempts) ==
        FailureAction::Retry) {
      if (try_park(request, epoch_seen)) return;
      continue;  // a release raced this attempt: retry on the fresh state
    }
    AdmitOutcome outcome;
    outcome.request = request.id;
    outcome.status = AdmitStatus::Rejected;
    outcome.attempts = request.attempts;
    outcome.mapping_us = request.mapping_us;
    outcome.mapping = std::move(result);
    resolve(std::move(request), std::move(outcome));
    return;
  }
}

void ConcurrentRuntimeManager::record_outcome(const AdmitOutcome& outcome) {
  const audit::LockGuard lock(stats_mutex_);
  switch (outcome.status) {
    case AdmitStatus::Admitted:
      ++stats_.admitted;
      if (outcome.shape_hit) ++stats_.shape_hits;
      break;
    case AdmitStatus::Rejected:
      ++stats_.rejected;
      break;
    case AdmitStatus::DeadlineMiss:
      ++stats_.deadline_misses;
      break;
    case AdmitStatus::Waiting:
      break;
  }
  stats_.latencies.record(outcome.mapping_us);
}

void ConcurrentRuntimeManager::resolve(Request request, AdmitOutcome outcome) {
  record_outcome(outcome);
  request.promise.set_value(std::move(outcome));
  finish_one();
}

bool ConcurrentRuntimeManager::try_park(Request& request,
                                        std::uint64_t epoch_seen) {
  {
    const audit::LockGuard lock(waiting_mutex_);
    // requeue_waiting() bumps the epoch and drains the list under this
    // same mutex, so either this request makes it into the list before
    // the wake (and is woken), or it observes the bumped epoch here and
    // retries instead — a release can never fall between the two.
    if (release_epoch_.load() != epoch_seen) return false;
    waiting_.push_back(std::move(request));
  }
  // Parked requests wait for a future release, not for a worker.
  finish_one();
  return true;
}

void ConcurrentRuntimeManager::requeue_waiting(bool after_defrag_migration) {
  std::vector<Request> woken;
  {
    const audit::LockGuard lock(waiting_mutex_);
    release_epoch_.fetch_add(1);
    woken.swap(waiting_);
  }
  if (woken.empty()) return;
  for (Request& request : woken) {
    in_flight_.fetch_add(1);
    Job job;
    job.request = std::move(request);
    if (!push_job(job)) {
      // Shutting down: the queue refused (job untouched) — give up.
      // No retry is counted: no further mapping attempt will run.
      reject_shut_down(std::move(job.request));
      continue;
    }
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.retries;
    if (after_defrag_migration) ++stats_.parked_woken_by_defrag;
  }
}

void ConcurrentRuntimeManager::finish_one() {
  if (in_flight_.fetch_sub(1) == 1) {
    // Empty critical section pairs with the predicate check in
    // wait_idle(): a waiter is either not yet blocked (re-checks) or
    // blocked (receives the notify).
    const audit::LockGuard lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

bool ConcurrentRuntimeManager::release(AppId id) {
  {
    const audit::LockGuard lock(state_mutex_);
    const auto it = running_.find(id);
    if (it == running_.end()) {
      const audit::LockGuard stats_lock(stats_mutex_);
      ++stats_.release_errors;
      release_errors_.push_back(
          {id, "release of unknown or already-released application id " +
                   std::to_string(id.value())});
      return false;
    }
    core::release_mapping(state_, *it->second.app, it->second.mapping);
    running_.erase(it);
#if RTSM_AUDIT
    audit_check("release");
#endif
  }
  {
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.releases;
  }
  // Compact *before* waking parked requests so their retry plans against
  // the defragmented capacity.
  requeue_waiting(maybe_defrag_after_release());
  return true;
}

bool ConcurrentRuntimeManager::try_preempt_and_commit(
    Request& request, std::vector<Request>& evicted) {
  if (!preemption_.enabled) return false;

  AppId id;
  AdmitOutcome outcome;
  {
    // Victim selection (runtime/preemption.hpp), eviction and
    // commit share one state-lock hold: the mapper runs under the lock —
    // preemption is a rare, last-resort path and the lock is what makes
    // evict+commit atomic against racing admissions (the same trade a
    // defrag pass makes).
    const audit::LockGuard lock(state_mutex_);
    PreemptionPlan plan = plan_preemption(
        state_, running_, *request.app, request.cls, request.deadline_us,
        request.mapping_us, *mapper_, preemption_,
        planner_->options().fragmentation);
    request.attempts += plan.attempts;
    request.mapping_us += plan.mapping_us;
    if (!plan.admits()) return false;

    for (const AppId vid : plan.victims) {
      auto it = running_.find(vid);
      core::release_mapping(state_, *it->second.app, it->second.mapping);
      Request reparked;
      reparked.id = next_request_.fetch_add(1);
      reparked.app = it->second.app;
      reparked.cls = it->second.cls;
      // Re-score for burst ordering so a woken victim competes under the
      // configured PriorityPolicy like any fresh request; no mapper
      // deadline — the original budget bounded an admission that already
      // succeeded.
      reparked.priority = priority_->priority(*reparked.app, 0.0);
      reparked.reparked = true;
      evicted.push_back(std::move(reparked));
      running_.erase(it);
    }
    core::commit_mapping(state_, *request.app, plan.plan.mapping);
    id = AppId{next_app_.fetch_add(1)};
    running_.emplace(id, RunningApp{request.app, plan.plan.mapping,
                                    plan.plan.energy_nj_per_symbol,
                                    request.cls, request.id});

    outcome.request = request.id;
    outcome.status = AdmitStatus::Admitted;
    outcome.app_id = id;
    outcome.attempts = request.attempts;
    outcome.mapping_us = request.mapping_us;
    outcome.mapping = std::move(plan.plan);
#if RTSM_AUDIT
    audit_check("preempt");
#endif
  }
  {
    const audit::LockGuard lock(stats_mutex_);
    ++stats_.preemption_grants;
    stats_.preemption_evictions += evicted.size();
    // Victims re-enter the admission stream as new requests.
    stats_.offered += evicted.size();
  }
  // A preemption plan is a full miss-path placement too: learn it so the
  // next structurally equal arrival can skip the mapper entirely.
  if (shapes_ != nullptr) {
    const shapes::LearnResult learned =
        shapes_->learn(*request.app, outcome.mapping);
    const audit::LockGuard lock(stats_mutex_);
    if (learned.inserted) ++stats_.shape_inserts;
    stats_.shape_evictions += learned.evictions;
  }
  resolve(std::move(request), std::move(outcome));
  return true;
}

void ConcurrentRuntimeManager::park_evicted(std::vector<Request> evicted) {
  if (evicted.empty()) return;
  const audit::LockGuard lock(waiting_mutex_);
  for (Request& victim : evicted) {
    waiting_.push_back(std::move(victim));
  }
}

bool ConcurrentRuntimeManager::maybe_defrag_after_release() {
  if (planner_->options().policy != DefragPolicy::OnReleaseThreshold) {
    return false;
  }
  {
    const audit::LockGuard lock(state_mutex_);
    const double score =
        core::measure_fragmentation(state_, planner_->options().fragmentation)
            .score();
    if (!planner_->triggers_after_release(score)) return false;
  }
  return defrag_pass_locked().migrations > 0;
}

DefragPassResult ConcurrentRuntimeManager::defrag_pass_locked() {
  DefragPassResult pass;
  {
    // The pass re-plans and commits under the state lock: migrations are
    // atomic against concurrent admissions (their validate_and_commit
    // serializes behind the pass and re-validates its own plan after).
    const audit::LockGuard lock(state_mutex_);
    pass = planner_->run_pass(state_, running_);
#if RTSM_AUDIT
    audit_check("defrag");
#endif
  }
  const audit::LockGuard lock(stats_mutex_);
  merge_defrag_stats(stats_, pass);
  return pass;
}

DefragPassResult ConcurrentRuntimeManager::defrag_now() {
  return defrag_pass_locked();
}

SwitchOutcome ConcurrentRuntimeManager::switch_mode(
    AppId id, std::shared_ptr<const kpn::Application> next,
    double deadline_us) {
  const auto start = std::chrono::steady_clock::now();
  std::optional<DefragPassResult> defrag;
  ModeSwitchOptions switch_options;
  switch_options.deadline_us = deadline_us;
  SwitchOutcome out;
  {
    // Plan and commit under the state lock: the switch (including its
    // pinned replan through the shared verification cache) is atomic
    // against racing admissions, exactly like a defrag pass.
    const audit::LockGuard lock(state_mutex_);
    out = switch_mode_in_place(state_, running_, id, std::move(next),
                               *mapper_, planner_.get(),
                               planner_->options().cost, &defrag,
                               switch_options);
#if RTSM_AUDIT
    audit_check("mode-switch");
#endif
  }
  out.switch_us = elapsed_us(start);

  bool committed = false;
  {
    const audit::LockGuard lock(stats_mutex_);
    committed = record_switch_stats(stats_, out);
    if (defrag.has_value()) merge_defrag_stats(stats_, *defrag);
  }
  // A narrower mode frees capacity like a release: wake parked requests.
  if (committed) requeue_waiting();
  return out;
}

std::size_t ConcurrentRuntimeManager::pick_shard() const {
  if (options_.shards < 2) return 0;
  std::vector<double> load(options_.shards, 0.0);
  std::vector<std::size_t> tiles(options_.shards, 0);
  {
    // One O(tiles) scan under the state lock per sharded admission. The
    // lock is taken by validate_and_commit right after anyway, and tile
    // counts are small; incrementally maintained per-shard occupancy
    // counters are the upgrade path if this scan ever shows up in a
    // profile.
    const audit::LockGuard lock(state_mutex_);
    for (const TileId tid : platform_->tile_ids()) {
      const std::size_t s = shard_of(tid);
      load[s] += core::tile_occupancy(state_, tid);
      ++tiles[s];
    }
  }
  double best_load = std::numeric_limits<double>::infinity();
  std::vector<double> mean(load.size());
  for (std::size_t s = 0; s < load.size(); ++s) {
    mean[s] = tiles[s] == 0 ? std::numeric_limits<double>::infinity()
                            : load[s] / static_cast<double>(tiles[s]);
    best_load = std::min(best_load, mean[s]);
  }
  // Near-ties rotate: on an empty or evenly loaded platform every worker
  // would otherwise compute the same winner and serialize on one stripe's
  // mutex — the burst-start herd sharding exists to avoid. Stripes within
  // a small band of the minimum are treated as equals and dealt out
  // round-robin.
  constexpr double kTieBand = 0.05;
  std::vector<std::size_t> candidates;
  for (std::size_t s = 0; s < mean.size(); ++s) {
    if (mean[s] <= best_load + kTieBand) candidates.push_back(s);
  }
  if (candidates.size() == 1) return candidates.front();
  return candidates[tie_break_.fetch_add(1) % candidates.size()];
}

void ConcurrentRuntimeManager::wait_idle() RTSM_NO_THREAD_SAFETY_ANALYSIS {
  audit::UniqueLock lock(idle_mutex_);
  idle_cv_.wait(lock, [&] { return in_flight_.load() == 0; });
}

std::vector<AdmitOutcome> ConcurrentRuntimeManager::reject_waiting() {
  std::vector<Request> parked;
  {
    const audit::LockGuard lock(waiting_mutex_);
    // Same epoch discipline as requeue_waiting(): a request about to park
    // concurrently must not strand itself in a list that was just
    // resolved — it observes the bump and retries instead.
    release_epoch_.fetch_add(1);
    parked.swap(waiting_);
  }
  std::vector<AdmitOutcome> outcomes;
  outcomes.reserve(parked.size());
  for (Request& request : parked) {
    AdmitOutcome outcome;
    outcome.request = request.id;
    outcome.status = AdmitStatus::Rejected;
    outcome.attempts = request.attempts;
    outcome.mapping_us = request.mapping_us;
    outcome.mapping.failure = "still waiting at end of scenario";
    // Shares resolve()'s bookkeeping but not its finish_one(): a parked
    // request already left the in-flight count when it parked.
    record_outcome(outcome);
    outcomes.push_back(outcome);
    request.promise.set_value(std::move(outcome));
  }
  return outcomes;
}

void ConcurrentRuntimeManager::shutdown() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  queue_.close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Without a pool the closed queue may still hold requests: drain them
  // inline so every future resolves.
  pump();
  reject_waiting();
}

core::ResourceState ConcurrentRuntimeManager::state_snapshot() const {
  const audit::LockGuard lock(state_mutex_);
  return state_;
}

double ConcurrentRuntimeManager::mean_occupancy() const {
  const audit::LockGuard lock(state_mutex_);
  return core::mean_occupancy(state_);
}

AdmissionStats ConcurrentRuntimeManager::stats() const {
  AdmissionStats out;
  {
    const audit::LockGuard lock(stats_mutex_);
    out = stats_;
  }
  out.snapshot_reuses = snapshot_reuses_.load(std::memory_order_relaxed);
  out.gated_commits = gated_commits_.load(std::memory_order_relaxed);
  out.validated_commits = validated_commits_.load(std::memory_order_relaxed);
  out.snapshot_time_us =
      static_cast<double>(snapshot_ns_.load(std::memory_order_relaxed)) /
      1000.0;
  out.map_time_us =
      static_cast<double>(map_ns_.load(std::memory_order_relaxed)) / 1000.0;
  out.validate_time_us =
      static_cast<double>(validate_ns_.load(std::memory_order_relaxed)) /
      1000.0;
  out.commit_time_us =
      static_cast<double>(commit_ns_.load(std::memory_order_relaxed)) / 1000.0;
  return out;
}

StatsReport ConcurrentRuntimeManager::stats_report() {
  StatsReport report;
  report.admission = stats();
  report.verification = verification_stats();
  report.shapes = shape_stats();
  if (const auto cache = mapper_->route_cache()) {
    report.route_cache = cache->stats();
  }
  report.release_errors = drain_release_errors();
  return report;
}

verify::EngineStats ConcurrentRuntimeManager::verification_stats() const {
  const auto engine = mapper_->verification_engine();
  return engine ? engine->stats() : verify::EngineStats{};
}

shapes::ShapeLibraryStats ConcurrentRuntimeManager::shape_stats() const {
  return shapes_ != nullptr ? shapes_->stats()
                                    : shapes::ShapeLibraryStats{};
}

std::size_t ConcurrentRuntimeManager::running_count() const {
  const audit::LockGuard lock(state_mutex_);
  return running_.size();
}

std::size_t ConcurrentRuntimeManager::waiting_count() const {
  const audit::LockGuard lock(waiting_mutex_);
  return waiting_.size();
}

std::vector<AppId> ConcurrentRuntimeManager::running_ids() const {
  const audit::LockGuard lock(state_mutex_);
  std::vector<AppId> ids;
  ids.reserve(running_.size());
  for (const auto& [id, run] : running_) ids.push_back(id);
  return ids;
}

core::Mapping ConcurrentRuntimeManager::mapping_of(AppId id) const {
  const audit::LockGuard lock(state_mutex_);
  const auto it = running_.find(id);
  require(it != running_.end(), "mapping_of unknown application id");
  return it->second.mapping;
}

std::shared_ptr<const kpn::Application> ConcurrentRuntimeManager::app_of(
    AppId id) const {
  const audit::LockGuard lock(state_mutex_);
  const auto it = running_.find(id);
  require(it != running_.end(), "app_of unknown application id");
  return it->second.app;
}

std::string ConcurrentRuntimeManager::display_name(AppId id) const {
  const audit::LockGuard lock(state_mutex_);
  const auto it = running_.find(id);
  require(it != running_.end(), "display_name unknown application id");
  return it->second.app->name() + "#" + std::to_string(it->second.instance);
}

double ConcurrentRuntimeManager::total_energy_nj_per_symbol() const {
  const audit::LockGuard lock(state_mutex_);
  double total = 0.0;
  for (const auto& [id, run] : running_) total += run.energy_nj;
  return total;
}

std::vector<ReleaseError> ConcurrentRuntimeManager::drain_release_errors() {
  const audit::LockGuard lock(stats_mutex_);
  return std::exchange(release_errors_, {});
}

#if RTSM_AUDIT
void ConcurrentRuntimeManager::audit_check(const char* where) const {
  std::vector<audit::LiveApp> running;
  running.reserve(running_.size());
  for (const auto& [id, run] : running_) {
    running.push_back({run.app, &run.mapping});
  }
  audit::audit_state(state_, running,
                     std::string("concurrent_manager/") + where);
}
#endif

}  // namespace rtsm::runtime
