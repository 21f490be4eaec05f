#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <stdexcept>

#include "runtime/scenario.hpp"
#include "pump.hpp"
#include "shapes/library.hpp"

namespace perfbench {

using namespace rtsm;

namespace {

/// Set-ups per run; the median is reported and the last one is measured.
constexpr int kSetups = 5;

/// Rounds (pump mode) for a run of @p seconds at @p rounds_per_second,
/// the workload's nominal rate on the reference machine. The work of a
/// run is fixed by its arguments, so two builds measured with the same
/// arguments time identical operations.
std::uint32_t rounds_for(int seconds, double rounds_per_second) {
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(seconds * rounds_per_second)));
}

/// Seeds of independent input streams of one workload.
std::uint64_t stream(std::uint64_t seed, std::uint64_t which) {
  return seed * 0x9e3779b97f4a7c15ull + which;
}

struct Departure {
  std::uint64_t tick = 0;
  AppId id;
  bool operator>(const Departure& other) const {
    return tick != other.tick ? tick > other.tick
                              : id.value() > other.id.value();
  }
};
using DepartureQueue =
    std::priority_queue<Departure, std::vector<Departure>,
                        std::greater<Departure>>;

void release_due(PumpBench& bench, DepartureQueue& departures,
                 std::uint64_t tick) {
  while (!departures.empty() && departures.top().tick <= tick) {
    const AppId id = departures.top().id;
    departures.pop();
    if (bench.tracks(id)) bench.depart(id);
  }
}

/// Seed of every workload's warm-up requests. Set-up does not depend on
/// --seed, so setup_s times the same work in every run.
constexpr std::uint64_t kWarmupSeed = 20080313;

struct Arrival {
  AppPtr app;
  std::uint32_t lifetime = 0;  ///< Ticks (arrivals) until departure.
};

// ------------------------------------------------------------ recurring-6x6

/// One round: 48 arrivals from the skeleton pool, the one at kMalformedAt
/// replaced by the rate-inconsistent application. Lifetimes keep about
/// 10 applications running, below the platform's capacity, so nearly
/// every admission is a shape-library hit rather than a mapper run on a
/// full platform.
constexpr std::uint32_t kRecurringArrivals = 48;
constexpr std::uint32_t kMalformedAt = 23;
constexpr std::int64_t kRecurringLifetimeMin = 4;
constexpr std::int64_t kRecurringLifetimeMax = 16;
constexpr double kRecurringRoundsPerSecond = 600.0;
constexpr std::uint32_t kRecurringWarmupRounds = 16;
/// Rounds per step of the switch probe.
constexpr std::uint32_t kRecurringProbeEvery = 4;

std::vector<Arrival> make_recurring_rounds(Rng& rng, std::uint32_t rounds,
                                           const std::vector<AppPtr>& pool,
                                           const AppPtr& malformed) {
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<std::size_t>(rounds) * kRecurringArrivals);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    for (std::uint32_t a = 0; a < kRecurringArrivals; ++a) {
      Arrival arrival;
      arrival.app = pool[rng.pick_index(pool.size())];
      arrival.lifetime = static_cast<std::uint32_t>(
          rng.uniform_int(kRecurringLifetimeMin, kRecurringLifetimeMax));
      if (a == kMalformedAt) arrival.app = malformed;
      arrivals.push_back(std::move(arrival));
    }
  }
  return arrivals;
}

RunResult run_recurring(const RunOptions& options, Tracer* tracer) {
  // Inputs (not part of set-up time).
  const std::vector<AppPtr> pool = make_recurring_pool();
  const AppPtr malformed = make_malformed_app();
  const std::uint32_t timed_rounds =
      rounds_for(options.seconds, kRecurringRoundsPerSecond);
  Rng warmup_rng(kWarmupSeed);
  const std::vector<Arrival> warmup = make_recurring_rounds(
      warmup_rng, kRecurringWarmupRounds, pool, malformed);
  Rng rng(stream(options.seed, 1));
  const std::vector<Arrival> arrivals =
      make_recurring_rounds(rng, timed_rounds, pool, malformed);
  const arch::Platform platform = make_6x6_platform("recurring 6x6");

  std::unique_ptr<PumpBench> bench;
  DepartureQueue departures;
  std::uint64_t tick = 0;
  bool malformed_admitted = false;

  auto play_round = [&](const std::vector<Arrival>& round_arrivals,
                        std::uint32_t round) {
    for (std::uint32_t a = 0; a < kRecurringArrivals; ++a, ++tick) {
      release_due(*bench, departures, tick);
      const Arrival& arrival = round_arrivals[round * kRecurringArrivals + a];
      const auto outcome = bench->arrive(arrival.app);
      if (outcome && outcome->status == runtime::AdmitStatus::Admitted) {
        if (arrival.app == malformed) malformed_admitted = true;
        departures.push({tick + arrival.lifetime, outcome->app_id});
      }
    }
  };

  std::vector<double> setups_us;
  for (int s = 0; s < kSetups; ++s) {
    bench.reset();
    departures = {};
    tick = 0;
    const double slowdown = speed_probe().current();
    const Clock::time_point start = Clock::now();
    bench = std::make_unique<PumpBench>(
        platform,
        runtime::ManagerOptions{
            .shapes = std::make_shared<shapes::ShapeLibrary>(platform)},
        tracer);
    const double build_us = speed_probe().normalize(us_since(start), slowdown);
    for (std::uint32_t r = 0; r < kRecurringWarmupRounds; ++r) {
      play_round(warmup, r);
    }
    setups_us.push_back(build_us + bench->program_us());
  }

  SwitchProbe probe(platform, make_hiperlan2_modes());
  bench->phase.reserve(static_cast<std::size_t>(timed_rounds) *
                       kRecurringArrivals);
  bench->begin_phase();
  for (std::uint32_t r = 0; r < timed_rounds; ++r) {
    play_round(arrivals, r);
    if (ends_segment(r, timed_rounds)) bench->end_segment();
    if (r % kRecurringProbeEvery == 0) probe.step();
  }
  bench->end_phase();

  if (malformed_admitted) bench->report.fail("malformed arrival admitted");
  if (bench->phase.failed != timed_rounds) {
    bench->report.fail("failed requests other than the malformed arrivals");
  }
  bench->phase.switch_us = probe.finish(bench->report);
  RunResult result = finish_pump_run(options, platform, *bench,
                                     median_seconds(setups_us), tracer);
  result.notes.push_back("rounds: " + std::to_string(timed_rounds) + " x " +
                         std::to_string(kRecurringArrivals) +
                         " arrivals (1 malformed); switch probe: a "
                         "HIPERLAN/2 receiver, one switch every " +
                         std::to_string(kRecurringProbeEvery) + " rounds");
  return result;
}

// --------------------------------------------------------------- fresh-32x32

/// One round: 24 freshly generated arrivals, two of each size (3-8
/// processes) and shape (chain, fork-join) in seeded order. Every round
/// holds the same mix, so the figures do not swing with how many large
/// applications a seed happens to draw.
constexpr std::uint32_t kFreshArrivals = 24;
constexpr double kFreshRoundsPerSecond = 0.7;
constexpr std::int64_t kFreshLifetimeMin = 10;
constexpr std::int64_t kFreshLifetimeMax = 30;
/// The switch probe's resident: a 5-stage chain with 3 modes.
constexpr std::uint32_t kFreshResidentProcesses = 5;
constexpr std::uint32_t kFreshResidentModes = 3;

/// The arrivals of one round of fresh-32x32.
std::vector<Arrival> make_fresh_round(Rng& rng, const std::string& prefix) {
  std::vector<std::pair<std::uint32_t, bool>> mix;
  for (std::uint32_t k = 0; k < kFreshArrivals; ++k) {
    mix.emplace_back(3 + k % 6, (k / 6) % 2 == 1);
  }
  rng.shuffle(mix);
  std::vector<Arrival> round;
  for (const auto& [processes, fork_join] : mix) {
    round.push_back(
        {make_fresh_app(rng, processes, fork_join,
                        prefix + std::to_string(round.size())),
         static_cast<std::uint32_t>(
             rng.uniform_int(kFreshLifetimeMin, kFreshLifetimeMax))});
  }
  return round;
}

RunResult run_fresh(const RunOptions& options, Tracer* tracer) {
  const std::uint32_t rounds =
      rounds_for(options.seconds, kFreshRoundsPerSecond);
  Rng warmup_rng(kWarmupSeed);
  std::vector<Arrival> warmup = make_fresh_round(warmup_rng, "warm-");
  warmup.resize(kFreshArrivals / 2);
  Rng rng(stream(options.seed, 2));
  std::vector<Arrival> arrivals;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    for (Arrival& arrival :
         make_fresh_round(rng, "fresh-" + std::to_string(r) + "-")) {
      arrivals.push_back(std::move(arrival));
    }
  }
  // Fixed, like the recurring pool: a pinned switch keeps the resident
  // where it was admitted, so seeded modes would make one seed's
  // placement set every switch's route lengths.
  Rng resident_rng(20080312);
  std::vector<AppPtr> resident_modes;
  for (std::uint32_t m = 0; m < kFreshResidentModes; ++m) {
    resident_modes.push_back(make_resident_mode(
        resident_rng, kFreshResidentProcesses, "resident"));
  }
  const arch::Platform platform = make_mesh_platform(32);

  std::unique_ptr<PumpBench> bench;
  DepartureQueue departures;
  std::uint64_t tick = 0;
  auto play = [&](const Arrival& arrival) {
    release_due(*bench, departures, tick);
    const auto outcome = bench->arrive(arrival.app);
    if (outcome && outcome->status == runtime::AdmitStatus::Admitted) {
      departures.push({tick + arrival.lifetime, outcome->app_id});
    }
    ++tick;
  };

  std::vector<double> setups_us;
  for (int s = 0; s < kSetups; ++s) {
    bench.reset();
    departures = {};
    tick = 0;
    const double slowdown = speed_probe().current();
    const Clock::time_point start = Clock::now();
    bench = std::make_unique<PumpBench>(
        platform,
        runtime::ManagerOptions{
            .shapes = std::make_shared<shapes::ShapeLibrary>(platform)},
        tracer);
    const double build_us = speed_probe().normalize(us_since(start), slowdown);
    for (const Arrival& arrival : warmup) play(arrival);
    setups_us.push_back(build_us + bench->program_us());
  }

  SwitchProbe probe(platform, resident_modes);
  bench->phase.reserve(static_cast<std::size_t>(rounds) * kFreshArrivals);
  bench->begin_phase();
  for (std::uint32_t r = 0; r < rounds; ++r) {
    for (std::uint32_t a = 0; a < kFreshArrivals; ++a) {
      play(arrivals[r * kFreshArrivals + a]);
      probe.step();
    }
    if (ends_segment(r, rounds)) bench->end_segment();
  }
  bench->end_phase();
  if (bench->phase.failed != 0) bench->report.fail("requests threw");

  bench->phase.switch_us = probe.finish(bench->report);
  RunResult result = finish_pump_run(options, platform, *bench,
                                     median_seconds(setups_us), tracer);
  result.notes.push_back("rounds: " + std::to_string(rounds) + " x " +
                         std::to_string(kFreshArrivals) +
                         " fresh arrivals; switch probe: a 5-stage "
                         "resident, one switch after every arrival");
  return result;
}

// ----------------------------------------------------------------- modes-6x6

constexpr std::uint32_t kModesWarmupWaves = 6;
constexpr double kModesWavesPerSecond = 42.0;
constexpr std::uint32_t kModesCheckEvery = 32;

runtime::ScheduleParams modes_params(std::uint32_t waves) {
  runtime::ScheduleParams params;
  params.waves = waves;
  params.arrivals_per_wave = 3;
  // At 40% HIPERLAN/2 arrivals the admissions whose verification misses
  // the cache (about 4.5% of all admits, 2-75 ms each) straddled the 95th
  // percentile, so admit_p95_us jumped between about 0.9 and 1.2 ms from
  // seed to seed. At 15% they are about 3% of admits, beyond it.
  params.hiperlan_fraction = 0.15;
  params.switch_prob = 0.5;
  params.high_priority_fraction = 0.15;
  return params;
}

/// Plays a mode-churn schedule wave by wave. Victims of preemption that
/// the manager re-admits come back under new ids; they leave after a
/// seeded lifetime like any arrival.
class ChurnPlayer {
 public:
  ChurnPlayer(PumpBench& bench, const runtime::Schedule& schedule,
              const runtime::ScheduleParams& params, std::uint64_t seed)
      : bench_(bench), schedule_(schedule), params_(params),
        adopted_rng_(seed) {}

  void play_wave(std::uint32_t wave) {
    const auto adopted = adopted_departures_.find(wave);
    if (adopted != adopted_departures_.end()) {
      for (const AppId id : adopted->second) {
        if (bench_.tracks(id)) bench_.depart(id);
      }
      adopted_departures_.erase(adopted);
    }
    for (; next_event_ < schedule_.events.size() &&
           schedule_.events[next_event_].wave == wave;
         ++next_event_) {
      const runtime::ScenarioEvent& ev = schedule_.events[next_event_];
      const auto slot = slots_.find(ev.slot);
      switch (ev.kind) {
        case runtime::ScenarioEvent::Kind::Depart:
          if (slot != slots_.end()) {
            if (bench_.tracks(slot->second)) bench_.depart(slot->second);
            slots_.erase(slot);
          }
          break;
        case runtime::ScenarioEvent::Kind::SwitchMode:
          if (slot != slots_.end() && bench_.tracks(slot->second)) {
            bench_.switch_to(slot->second, ev.next);
          }
          break;
        case runtime::ScenarioEvent::Kind::Arrive: {
          const auto outcome = bench_.arrive(ev.app, ev.cls);
          if (outcome && outcome->status == runtime::AdmitStatus::Admitted) {
            slots_[ev.slot] = outcome->app_id;
          }
          break;
        }
      }
      for (const AppId id : bench_.reconcile()) {
        const auto lifetime = static_cast<std::uint32_t>(
            adopted_rng_.uniform_int(params_.lifetime_min,
                                     params_.lifetime_max));
        adopted_departures_[wave + lifetime].push_back(id);
      }
    }
  }

 private:
  PumpBench& bench_;
  const runtime::Schedule& schedule_;
  const runtime::ScheduleParams& params_;
  Rng adopted_rng_;
  std::size_t next_event_ = 0;
  std::map<std::size_t, AppId> slots_;
  std::map<std::uint32_t, std::vector<AppId>> adopted_departures_;
};

RunResult run_modes(const RunOptions& options, Tracer* tracer) {
  const std::uint32_t timed_waves =
      rounds_for(options.seconds, kModesWavesPerSecond);
  const runtime::ScheduleParams warmup_params = modes_params(kModesWarmupWaves);
  const runtime::Schedule warmup =
      runtime::make_mode_churn_schedule(warmup_params, kWarmupSeed);
  const runtime::ScheduleParams params = modes_params(timed_waves);
  const runtime::Schedule schedule =
      runtime::make_mode_churn_schedule(params, stream(options.seed, 3));
  const arch::Platform platform = make_6x6_platform("modes 6x6");

  // Set-up warms the caches on the fixed warm-up schedule, then empties
  // the platform, so the timed phase starts from the same state for every
  // seed.
  runtime::ManagerOptions manager_options;
  manager_options.defrag.policy = runtime::DefragPolicy::OnReleaseThreshold;
  std::unique_ptr<PumpBench> bench;
  std::vector<double> setups_us;
  for (int s = 0; s < kSetups; ++s) {
    bench.reset();
    const double slowdown = speed_probe().current();
    const Clock::time_point start = Clock::now();
    bench = std::make_unique<PumpBench>(platform, manager_options, tracer);
    const double build_us = speed_probe().normalize(us_since(start), slowdown);
    ChurnPlayer player(*bench, warmup, warmup_params, kWarmupSeed + 1);
    for (std::uint32_t w = 0; w < kModesWarmupWaves; ++w) player.play_wave(w);
    bench->clear();
    setups_us.push_back(build_us + bench->program_us());
  }

  ChurnPlayer player(*bench, schedule, params, stream(options.seed, 4));
  bench->phase.reserve(schedule.events.size());
  bench->begin_phase();
  for (std::uint32_t w = 0; w < timed_waves; ++w) {
    player.play_wave(w);
    if (ends_segment(w, timed_waves)) bench->end_segment();
    if (w % kModesCheckEvery == kModesCheckEvery - 1) {
      bench->check("wave " + std::to_string(w));
    }
  }
  bench->end_phase();
  if (bench->phase.failed != 0) bench->report.fail("requests threw");

  RunResult result = finish_pump_run(options, platform, *bench,
                                     median_seconds(setups_us), tracer);
  result.notes.push_back("waves: " + std::to_string(timed_waves) + " (" +
                         std::to_string(schedule.events.size()) +
                         " scenario events)");
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "recurring-6x6", "fresh-32x32", "modes-6x6"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  std::unique_ptr<Tracer> tracer;
  if (options.trace) tracer = std::make_unique<Tracer>(Clock::now());
  RunResult result;
  if (options.workload == "recurring-6x6") {
    result = run_recurring(options, tracer.get());
  } else if (options.workload == "fresh-32x32") {
    result = run_fresh(options, tracer.get());
  } else if (options.workload == "modes-6x6") {
    result = run_modes(options, tracer.get());
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (tracer != nullptr) {
    if (!tracer->write_chrome_json(options.trace_path)) {
      result.correct = false;
      result.notes.push_back("cannot write the span file " +
                             options.trace_path);
    } else {
      result.notes.push_back(
          "spans: " + std::to_string(tracer->recorded()) + " written to " +
          options.trace_path + " (" + std::to_string(tracer->dropped()) +
          " beyond the cap dropped)");
    }
  }
  return result;
}

}  // namespace perfbench
