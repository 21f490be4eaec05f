#include "pump.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/spatial_mapper.hpp"
#include "noc/route.hpp"
#include "noc/route_cache.hpp"
#include "util/error.hpp"
#include "verify/engine.hpp"

namespace perfbench {

using namespace rtsm;

void Phase::reserve(std::size_t operations) {
  admit_us.reserve(operations);
  hit_admit_us.reserve(operations);
  miss_admit_us.reserve(operations);
  queue_wait_us.reserve(operations);
  switch_us.reserve(operations / 4 + 16);
  release_us.reserve(operations);
  samples.reserve(kMaxSamples);
}

void LayerCounters::add(const runtime::AdmissionStats& stats) {
  snapshot_us += stats.snapshot_time_us;
  validate_us += stats.validate_time_us;
  commit_us += stats.commit_time_us;
  gated_commits += stats.gated_commits;
  validated_commits += stats.validated_commits;
  shape_hits += stats.shape_hits;
  shape_misses += stats.shape_misses;
  shape_anchor_probes += stats.shape_anchor_probes;
  defrag_passes += stats.defrag_passes;
  migrations += stats.migrations;
  preemption_evictions += stats.preemption_evictions;
}

void LayerCounters::read_shared(const core::Mapper& mapper) {
  if (const auto engine = mapper.verification_engine()) {
    verify = engine->stats();
  }
  if (const auto cache = mapper.route_cache()) routes = cache->stats();
  allocs = alloc_counters().count.load();
  alloc_bytes = alloc_counters().bytes.load();
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename T>
double delta(T end, T begin) {
  return static_cast<double>(end - begin);
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const Phase& phase, double setup_s) {
  return {
      {"admit_p50_us", percentile(phase.admit_us, 50), "us"},
      {"admit_p95_us", percentile(phase.admit_us, 95), "us"},
      {"decisions_per_s", percentile(phase.segment_rates, 50), "1/s"},
      {"switch_p50_us", percentile(phase.switch_us, 50), "us"},
      {"admitted_apps", static_cast<double>(phase.admitted), "count"},
      {"energy_nj_per_symbol",
       ratio(phase.energy_sum, static_cast<double>(phase.admitted)), "nJ"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const arch::Platform& platform,
                                      const Phase& phase,
                                      const LayerCounters& b,
                                      const LayerCounters& e,
                                      const std::vector<MapCall>& map_calls,
                                      Tracer* tracer) {
  const double decisions = static_cast<double>(phase.decisions);

  // Uncached probes of the verify and noc layers on admitted mappings.
  std::vector<double> verify_us;
  std::vector<double> route_us;
  for (const auto& [app, mapping] : phase.samples) {
    verify::SizingKey key;
    key.target_period_ps = app->qos().symbol_period_ns * 1000ull;
    {
      const double slowdown = speed_probe().current();
      TimedCall call(tracer, "verify.compute_verification", 0);
      const verify::VerificationOutcome outcome =
          verify::compute_verification(*app, platform, mapping, key);
      verify_us.push_back(speed_probe().normalize(call.stop(), slowdown));
      (void)outcome;
    }
    const noc::LinkLoad idle(platform);
    for (const ChannelId cid : app->channel_ids()) {
      const kpn::Channel& c = app->channel(cid);
      const TileId src = mapping.tile_of(c.src);
      const TileId dst = mapping.tile_of(c.dst);
      if (src == dst) continue;
      const double slowdown = speed_probe().current();
      TimedCall call(tracer, "noc.route_shortest", 0);
      const auto path =
          noc::route_shortest(idle, src, dst, app->tokens_per_second(cid));
      route_us.push_back(speed_probe().normalize(call.stop(), slowdown));
      (void)path;
    }
  }

  std::vector<double> map_us;
  double map_busy_us = 0.0;
  double rounds = 0.0;
  double successes = 0.0;
  for (const MapCall& call : map_calls) {
    map_us.push_back(call.us);
    map_busy_us += call.us;
    rounds += call.rounds;
    successes += call.success ? 1.0 : 0.0;
  }
  const double calls = static_cast<double>(map_calls.size());
  const double shape_lookups =
      delta(e.shape_hits, b.shape_hits) + delta(e.shape_misses, b.shape_misses);
  const double commits = delta(e.gated_commits, b.gated_commits) +
                         delta(e.validated_commits, b.validated_commits);
  const double sims = delta(e.verify.simulations, b.verify.simulations);

  return {
      {"runtime.snapshot_us_per_decision",
       ratio(e.snapshot_us - b.snapshot_us, decisions), "us"},
      {"runtime.validate_us_per_decision",
       ratio(e.validate_us - b.validate_us, decisions), "us"},
      {"runtime.commit_us_per_decision",
       ratio(e.commit_us - b.commit_us, decisions), "us"},
      {"runtime.gated_commit_ratio",
       ratio(delta(e.gated_commits, b.gated_commits), commits), "ratio"},
      {"shapes.hit_ratio", ratio(delta(e.shape_hits, b.shape_hits),
                                 shape_lookups),
       "ratio"},
      {"shapes.anchor_probes_per_lookup",
       ratio(delta(e.shape_anchor_probes, b.shape_anchor_probes),
             shape_lookups),
       "count"},
      {"shapes.hit_admit_p50_us", percentile(phase.hit_admit_us, 50), "us"},
      {"core.map_calls", calls, "count"},
      {"core.map_p50_us", percentile(map_us, 50), "us"},
      {"core.map_busy_s", map_busy_us / 1e6, "s"},
      {"core.rounds_per_map", ratio(rounds, calls), "count"},
      {"core.miss_admit_p50_us", percentile(phase.miss_admit_us, 50), "us"},
      {"runtime.allocs_per_decision", ratio(delta(e.allocs, b.allocs),
                                            decisions),
       "count"},
      {"runtime.alloc_bytes_per_decision",
       ratio(delta(e.alloc_bytes, b.alloc_bytes), decisions), "B"},
      {"verify.hit_ratio",
       ratio(delta(e.verify.hits, b.verify.hits),
             delta(e.verify.lookups, b.verify.lookups)),
       "ratio"},
      {"verify.cold_p50_us", percentile(verify_us, 50), "us"},
      {"csdf.simulations", sims, "count"},
      {"csdf.events_per_simulation",
       ratio(delta(e.verify.events_simulated, b.verify.events_simulated),
             sims),
       "count"},
      {"noc.route_hit_ratio",
       ratio(delta(e.routes.hits, b.routes.hits),
             delta(e.routes.lookups, b.routes.lookups)),
       "ratio"},
      {"noc.route_fallbacks", delta(e.routes.fallbacks, b.routes.fallbacks),
       "count"},
      {"noc.route_p50_us", percentile(route_us, 50), "us"},
      {"core.map_success_ratio", ratio(successes, calls), "ratio"},
      {"runtime.release_p50_us", percentile(phase.release_us, 50), "us"},
      {"runtime.defrag_passes", delta(e.defrag_passes, b.defrag_passes),
       "count"},
      {"runtime.migrations", delta(e.migrations, b.migrations), "count"},
      {"runtime.switches_in_place",
       static_cast<double>(phase.switches_in_place), "count"},
      {"runtime.switches_rolled_back",
       static_cast<double>(phase.switches_rolled_back), "count"},
      {"runtime.preemption_evictions",
       delta(e.preemption_evictions, b.preemption_evictions), "count"},
      {"runtime.queue_wait_p50_us", percentile(phase.queue_wait_us, 50),
       "us"},
  };
}

double median_seconds(std::vector<double> setups_us) {
  return percentile(std::move(setups_us), 50) / 1e6;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void count_allocations(bool on) { alloc_counters().enabled.store(on); }

bool same_mapping(const core::Mapping& a, const core::Mapping& b) {
  if (a.process_count() != b.process_count() ||
      a.channel_count() != b.channel_count()) {
    return false;
  }
  for (std::size_t i = 0; i < a.process_count(); ++i) {
    const ProcessId pid{static_cast<ProcessId::value_type>(i)};
    if (a.is_assigned(pid) != b.is_assigned(pid)) return false;
    if (!a.is_assigned(pid)) continue;
    if (a.tile_of(pid) != b.tile_of(pid) || a.impl_of(pid) != b.impl_of(pid)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.channel_count(); ++i) {
    const ChannelId cid{static_cast<ChannelId::value_type>(i)};
    const auto& pa = a.path(cid);
    const auto& pb = b.path(cid);
    if (pa.has_value() != pb.has_value()) return false;
    if (pa && pa->links != pb->links) return false;
    if (a.buffer_tokens(cid) != b.buffer_tokens(cid)) return false;
  }
  return true;
}

// ------------------------------------------------------------ PumpBench

PumpBench::PumpBench(const arch::Platform& platform,
                         runtime::ManagerOptions options, Tracer* tracer)
    : platform_(&platform), tracer_(tracer) {
  if (options.mapper == nullptr) {
    options.mapper = std::make_shared<core::SpatialMapper>();
  }
  if (tracer_ != nullptr) {
    timed_ = std::make_shared<TimedMapper>(options.mapper, tracer_);
    options.mapper = timed_;
  }
  manager_ = std::make_unique<runtime::ConcurrentRuntimeManager>(
      platform, std::move(options), runtime::ConcurrentOptions{.workers = 0});
}

std::optional<runtime::AdmitOutcome> PumpBench::arrive(
    const AppPtr& app, runtime::RequestClass cls) {
  std::optional<runtime::AdmitOutcome> outcome;
  const double slowdown = speed_probe().current();
  double raw_us = 0.0;
  double us = 0.0;
  {
    TimedCall call(measuring_ ? tracer_ : nullptr, "runtime.admit",
                   ++next_request_);
    try {
      outcome = manager_->admit(*app, 0.0, cls);
    } catch (const rtsm::Error&) {
      // The library lets a malformed application's error escape admit()
      // (no exception boundary in src/runtime/); the request is lost.
    }
    raw_us = call.stop();
    us = speed_probe().normalize(raw_us, slowdown);
  }
  program_us_ += us;
  if (measuring_) {
    ++phase.attempted;
    segment_us_ += us;
    if (!outcome) {
      ++phase.failed;
    } else {
      ++phase.decisions;
      ++segment_decisions_;
      phase.admit_us.push_back(us);
      phase.queue_wait_us.push_back((raw_us - outcome->mapping_us) * us /
                                    raw_us);
      (outcome->shape_hit ? phase.hit_admit_us : phase.miss_admit_us)
          .push_back(us);
    }
  }
  if (!outcome || outcome->status != runtime::AdmitStatus::Admitted) {
    return outcome;
  }
  const core::MappingResult& result = outcome->mapping;
  if (measuring_) {
    ++phase.admitted;
    phase.energy_sum += result.energy_nj_per_symbol;
    if (phase.samples.size() < Phase::kMaxSamples) {
      phase.samples.emplace_back(app, result.mapping);
    }
  }
  Tracked tracked;
  tracked.claim = Claim{result.energy_nj_per_symbol, result.achieved_period_ps,
                        result.latency_ps};
  tracked.admitted = result.mapping;
  tracked_.emplace(outcome->app_id, std::move(tracked));
  return outcome;
}

void PumpBench::depart(AppId id) {
  const double slowdown = speed_probe().current();
  double us = 0.0;
  bool released = false;
  {
    TimedCall call(measuring_ ? tracer_ : nullptr, "runtime.release",
                   ++next_request_);
    released = manager_->release(id);
    us = speed_probe().normalize(call.stop(), slowdown);
  }
  program_us_ += us;
  if (!released) report.fail("release of a running application failed");
  if (measuring_) {
    phase.release_us.push_back(us);
    segment_us_ += us;
  }
  tracked_.erase(id);
}

runtime::SwitchOutcome PumpBench::switch_to(AppId id, const AppPtr& next) {
  const AppPtr old_app = manager_->app_of(id);
  const core::Mapping old_mapping = manager_->mapping_of(id);
  runtime::SwitchOutcome outcome;
  const double slowdown = speed_probe().current();
  double us = 0.0;
  {
    TimedCall call(measuring_ ? tracer_ : nullptr, "runtime.switch_mode",
                   ++next_request_);
    outcome = manager_->switch_mode(id, next);
    us = speed_probe().normalize(call.stop(), slowdown);
  }
  program_us_ += us;
  const bool committed = outcome.status == runtime::SwitchStatus::InPlace ||
                         outcome.status == runtime::SwitchStatus::Replanned;
  if (committed) {
    if (manager_->app_of(id) != next) {
      report.fail("committed switch does not run the new graph");
    }
    tracked_[id].claim.reset();
  } else if (outcome.status == runtime::SwitchStatus::RolledBack) {
    if (manager_->app_of(id) != old_app ||
        !same_mapping(manager_->mapping_of(id), old_mapping)) {
      report.fail("rolled-back switch changed the running mapping");
    }
  } else {
    report.fail("switch of a running application reported " +
                outcome.message);
  }
  if (measuring_) {
    ++phase.attempted;
    ++phase.decisions;
    ++segment_decisions_;
    phase.switch_us.push_back(us);
    segment_us_ += us;
    if (outcome.status == runtime::SwitchStatus::InPlace) {
      ++phase.switches_in_place;
    }
    if (outcome.status == runtime::SwitchStatus::RolledBack) {
      ++phase.switches_rolled_back;
    }
  }
  return outcome;
}

LayerCounters PumpBench::read_counters() const {
  LayerCounters counters;
  counters.add(manager_->stats());
  counters.read_shared(manager_->mapper());
  return counters;
}

void PumpBench::begin_phase() {
  begin_counters = read_counters();
  if (tracer_ != nullptr) {
    timed_->set_recording(true);
    count_allocations(true);
  }
  measuring_ = true;
}

void PumpBench::end_segment() {
  if (segment_decisions_ > 0 && segment_us_ > 0.0) {
    phase.segment_rates.push_back(static_cast<double>(segment_decisions_) /
                                  (segment_us_ / 1e6));
  }
  segment_decisions_ = 0;
  segment_us_ = 0.0;
}

bool ends_segment(std::uint32_t r, std::uint32_t rounds) {
  const std::uint64_t k = Phase::kSegments;
  return (static_cast<std::uint64_t>(r) + 1) * k / rounds !=
         static_cast<std::uint64_t>(r) * k / rounds;
}

void PumpBench::end_phase() {
  end_segment();
  measuring_ = false;
  if (tracer_ != nullptr) {
    count_allocations(false);
    timed_->set_recording(false);
  }
  end_counters = read_counters();
}

void PumpBench::clear() {
  (void)manager_->reject_waiting();
  while (true) {
    (void)reconcile();
    if (tracked_.empty()) break;
    std::vector<AppId> ids;
    for (const auto& entry : tracked_) ids.push_back(entry.first);
    for (const AppId id : ids) depart(id);
  }
}

std::vector<AppId> PumpBench::reconcile() {
  const std::uint64_t evictions = manager_->stats().preemption_evictions;
  if (evictions == evictions_seen_ &&
      manager_->running_count() == tracked_.size()) {
    return {};
  }
  evictions_seen_ = evictions;
  const std::vector<AppId> running = manager_->running_ids();
  std::vector<AppId> adopted;
  std::map<AppId, Tracked> next;
  for (const AppId id : running) {
    auto it = tracked_.find(id);
    if (it != tracked_.end()) {
      next.emplace(id, std::move(it->second));
    } else {
      Tracked tracked;
      tracked.admitted = manager_->mapping_of(id);
      next.emplace(id, std::move(tracked));
      adopted.push_back(id);
    }
  }
  tracked_ = std::move(next);
  return adopted;
}

std::vector<LiveApp> PumpBench::live_apps() const {
  std::vector<LiveApp> apps;
  for (const AppId id : manager_->running_ids()) {
    LiveApp live;
    live.app = manager_->app_of(id);
    live.mapping = manager_->mapping_of(id);
    const auto it = tracked_.find(id);
    if (it != tracked_.end() && it->second.claim &&
        same_mapping(live.mapping, it->second.admitted)) {
      live.claim = it->second.claim;
    }
    apps.push_back(std::move(live));
  }
  return apps;
}

void PumpBench::check(const std::string& where) {
  if (manager_->running_count() != tracked_.size()) {
    report.fail(where + ": running set differs from the admitted set");
  }
  check_platform(*platform_, live_apps(), manager_->state_snapshot(),
                 manager_->total_energy_nj_per_symbol(), where, report);
}

SwitchProbe::SwitchProbe(const arch::Platform& platform,
                         std::vector<AppPtr> modes)
    : modes_(std::move(modes)),
      bench_(platform, runtime::ManagerOptions{}, nullptr) {
  const auto outcome = bench_.arrive(modes_.front());
  admitted_ = outcome && outcome->status == runtime::AdmitStatus::Admitted;
  if (admitted_) resident_ = outcome->app_id;
  bench_.begin_phase();
}

void SwitchProbe::step() {
  if (!admitted_) return;
  mode_ = (mode_ + 1) % modes_.size();
  (void)bench_.switch_to(resident_, modes_[mode_]);
}

std::vector<double> SwitchProbe::finish(CheckReport& report) {
  bench_.end_phase();
  if (!admitted_) report.fail("switch probe: the resident was not admitted");
  bench_.check("switch probe");
  report.checkpoints += bench_.report.checkpoints;
  report.apps_checked += bench_.report.apps_checked;
  for (std::string& failure : bench_.report.failures) {
    report.fail("switch probe: " + std::move(failure));
  }
  return std::move(bench_.phase.switch_us);
}

RunResult finish_pump_run(const RunOptions& options,
                          const arch::Platform& platform,
                          PumpBench& bench, double setup_s,
                          Tracer* tracer) {
  bench.check("end of run");
  negative_self_check(platform, bench.live_apps(), bench.report);
  RunResult result;
  result.attempted = bench.phase.attempted;
  result.failed = bench.phase.failed;
  result.correct = bench.report.ok();
  result.metrics =
      options.trace
          ? per_layer_metrics(platform, bench.phase, bench.begin_counters,
                              bench.end_counters, bench.map_calls(),
                              tracer)
          : end_to_end_metrics(bench.phase, setup_s);
  for (const std::string& failure : bench.report.failures) {
    result.notes.push_back("CHECK FAILED: " + failure);
  }
  if (options.trace) {
    // The traced run's own end-to-end figures: their difference to an
    // untraced run of the same seed is the tracing overhead.
    std::string line = "traced end-to-end:";
    for (const Metric& m : end_to_end_metrics(bench.phase, setup_s)) {
      line += " " + m.name + "=" + std::to_string(m.value);
    }
    result.notes.push_back(line);
  }
  result.notes.push_back(
      "checks: " + std::to_string(bench.report.checkpoints) +
      " checkpoints, " + std::to_string(bench.report.apps_checked) +
      " application checks, self-check " +
      (bench.report.ok() ? "caught both corruptions" : "see failures"));
  result.notes.push_back(
      "samples: " + std::to_string(bench.phase.admit_us.size()) +
      " admits, " + std::to_string(bench.phase.switch_us.size()) +
      " switches, " + std::to_string(bench.phase.release_us.size()) +
      " releases; admitted " + std::to_string(bench.phase.admitted));
  return result;
}

}  // namespace perfbench
