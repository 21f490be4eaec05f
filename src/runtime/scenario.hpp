#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime/concurrent_manager.hpp"
#include "workload/hiperlan2.hpp"
#include "workload/synthetic.hpp"

namespace rtsm::runtime {

/// One event of a run-time scenario: the paper's premise that applications
/// arrive, leave and *change mode* while the platform is live, as data.
/// Events reference applications by a scenario-local @p slot (the arrival
/// ordinal), so one generated schedule can be replayed against any manager
/// or policy configuration and stay comparable.
struct ScenarioEvent {
  enum class Kind { Arrive, Depart, SwitchMode };
  Kind kind = Kind::Arrive;

  /// Wave (coarse scenario time step) this event fires in.
  std::uint32_t wave = 0;

  /// Scenario-local application slot the event refers to.
  std::size_t slot = 0;

  /// Arrive: the application to admit.
  std::shared_ptr<const kpn::Application> app;

  /// SwitchMode: the graph the slot's instance switches to.
  std::shared_ptr<const kpn::Application> next;

  /// Arrive: priority class of the admission request.
  RequestClass cls;

  /// Arrive: mapper wall-clock budget. SwitchMode: the switch's own QoS
  /// deadline (see ModeSwitchOptions::deadline_us). 0 = none.
  double deadline_us = 0.0;
};

/// A generated scenario: wave-major event list (within one wave departures
/// come first, then mode switches, then arrivals — departures punch the
/// holes the rest has to fit into).
struct Schedule {
  std::uint32_t waves = 0;
  std::vector<ScenarioEvent> events;
  /// Slots that ever arrive (arrival count).
  std::size_t slots = 0;
};

/// Parameters of the seeded mode-churn + priority-mix generator.
struct ScheduleParams {
  std::uint32_t waves = 40;
  std::uint32_t arrivals_per_wave = 3;

  /// Fraction of arrivals that are HIPERLAN/2 mode variants (the apps
  /// that later receive switch_mode events); the rest are synthetic.
  double hiperlan_fraction = 0.35;

  /// Fraction of the synthetic arrivals drawn from @p big_app (tile-
  /// hungry co-locating pairs); the rest from @p small_app.
  double big_fraction = 0.4;

  /// Lifetime in waves, uniform (departure scheduled at arrival+lifetime;
  /// apps whose departure falls past the horizon never depart).
  std::uint32_t lifetime_min = 4;
  std::uint32_t lifetime_max = 10;

  /// Per live HIPERLAN/2 slot and wave: probability of a switch_mode
  /// event to a uniformly drawn *different* demapping mode.
  double switch_prob = 0.45;

  /// Fraction of arrivals tagged high-priority (and not preemptible);
  /// the rest arrive with the default class (priority 0, preemptible).
  double high_priority_fraction = 0.15;
  std::int32_t high_priority = 10;

  /// QoS deadline stamped on every switch_mode event, microseconds
  /// (0 = unbounded switches, the pre-deadline behaviour).
  double switch_deadline_us = 0.0;

  workload::Hiperlan2Config hiperlan;
  workload::SyntheticAppParams small_app;
  workload::SyntheticAppParams big_app;

  ScheduleParams() {
    small_app.process_count = 2;
    small_app.with_fixtures = false;
    small_app.tile_types = {"ARM"};
    small_app.max_preferred_utilization = 0.25;
    big_app = small_app;
    big_app.max_preferred_utilization = 0.4;
    big_app.energy_min = 120.0;
    big_app.energy_max = 200.0;
  }
};

/// Generates a reproducible mode-churn schedule: same seed, same events,
/// same graphs (shared between replays, so every configuration sees the
/// identical workload).
[[nodiscard]] Schedule make_mode_churn_schedule(const ScheduleParams& params,
                                                std::uint64_t seed);

// ----------------------------------------------------- record / replay

/// Cumulative driver counters snapshotted after one wave settled. A run's
/// wave-outcome log is its behavioural fingerprint: two runs of the same
/// schedule against equivalent targets must produce equal logs (the
/// bit-identical-replay gate of bench X11).
struct WaveOutcome {
  std::uint32_t wave = 0;
  /// Driver-tracked slots live after the wave.
  std::uint64_t running = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t departures = 0;
  std::uint64_t skipped_events = 0;
  std::uint64_t switches_in_place = 0;
  std::uint64_t switches_replanned = 0;
  std::uint64_t switches_rolled_back = 0;
  std::uint64_t switch_deadline_misses = 0;
  std::uint64_t naive_switch_losses = 0;

  bool operator==(const WaveOutcome&) const = default;
};

/// A persisted scenario: the seeded schedule plus the per-wave outcome
/// log of one recorded run. Replaying the schedule against an equivalent
/// target and comparing wave logs is the cross-version regression gate.
struct ScenarioTrace {
  /// Provenance only (the schedule is stored expanded, not re-generated).
  std::uint64_t seed = 0;
  Schedule schedule;
  std::vector<WaveOutcome> outcomes;
};

/// Renders a schedule to the trace JSON (applications deduplicated and
/// embedded in the io::save_application text format, loss-free).
[[nodiscard]] std::string schedule_to_json(const Schedule& schedule);

/// Parses a schedule back. Events that referenced one application object
/// share one again. Throws rtsm::Error on malformed input.
[[nodiscard]] Schedule schedule_from_json(const std::string& text);

/// Full trace: schedule + recorded wave outcomes (+ seed provenance).
[[nodiscard]] std::string trace_to_json(const ScenarioTrace& trace);
[[nodiscard]] ScenarioTrace trace_from_json(const std::string& text);

/// True when two runs behaved identically wave for wave.
[[nodiscard]] bool outcomes_identical(const std::vector<WaveOutcome>& a,
                                      const std::vector<WaveOutcome>& b);

/// An outcome as the driver receives it: @p ticket is the target-assigned
/// submission handle of the request it resolves.
struct SettledOutcome {
  std::uint64_t ticket = 0;
  AdmitOutcome outcome;
};

/// Adapter hiding what a scenario drives (one admission engine or a
/// fleet of them). submit() returns a target-assigned ticket (monotone
/// from 1) that settle()/finish() hand back with the resolved outcome —
/// the engine only reveals request ids through futures, so the driver
/// correlates by ticket. settle() resolves everything
/// resolvable right now and hands each outcome out exactly once;
/// finish() additionally gives up on parked requests.
class ScenarioTarget {
 public:
  virtual ~ScenarioTarget() = default;

  virtual std::uint64_t submit(std::shared_ptr<const kpn::Application> app,
                               double deadline_us, RequestClass cls) = 0;
  virtual bool release(AppId id) = 0;
  virtual SwitchOutcome switch_mode(AppId id,
                                    std::shared_ptr<const kpn::Application> next,
                                    double deadline_us) = 0;

  /// Outcomes resolved since the last settle()/finish() call.
  virtual std::vector<SettledOutcome> settle() = 0;
  /// settle() + reject all still-parked requests (end of scenario).
  virtual std::vector<SettledOutcome> finish() = 0;

  virtual bool is_running(AppId id) const = 0;
  virtual std::vector<AppId> running_ids() const = 0;
  virtual std::shared_ptr<const kpn::Application> app_of(AppId id) const = 0;
  virtual core::Mapping mapping_of(AppId id) const = 0;
  virtual core::ResourceState state_copy() const = 0;
  virtual AdmissionStats stats() const = 0;

  /// Serial-replay oracle: committing every surviving (app, mapping) pair
  /// onto a fresh ResourceState must reproduce the live resource state —
  /// admissions, releases, preemptions, defrag migrations and mode
  /// switches may never leak or double-book a reservation. Virtual so
  /// multi-platform targets (the fleet) can run the check per platform.
  [[nodiscard]] virtual bool replay_matches() const;
};

/// Drives the ConcurrentRuntimeManager; collects resolved futures on
/// settle(). Works in the serial mode (workers = 0: settle() pumps) and
/// while a worker pool runs — settle() waits for the in-flight work to
/// drain first. Preemption victims re-enter the stream under promises
/// nobody holds, so they never surface here (stats() still counts them).
class ConcurrentTarget final : public ScenarioTarget {
 public:
  explicit ConcurrentTarget(ConcurrentRuntimeManager& manager)
      : manager_(&manager) {}

  std::uint64_t submit(std::shared_ptr<const kpn::Application> app,
                       double deadline_us, RequestClass cls) override;
  bool release(AppId id) override { return manager_->release(id); }
  SwitchOutcome switch_mode(AppId id,
                            std::shared_ptr<const kpn::Application> next,
                            double deadline_us) override {
    return manager_->switch_mode(id, std::move(next), deadline_us);
  }
  std::vector<SettledOutcome> settle() override;
  std::vector<SettledOutcome> finish() override;

  bool is_running(AppId id) const override;
  std::vector<AppId> running_ids() const override {
    return manager_->running_ids();
  }
  std::shared_ptr<const kpn::Application> app_of(AppId id) const override {
    return manager_->app_of(id);
  }
  core::Mapping mapping_of(AppId id) const override {
    return manager_->mapping_of(id);
  }
  core::ResourceState state_copy() const override {
    return manager_->state_snapshot();
  }
  AdmissionStats stats() const override { return manager_->stats(); }

 private:
  ConcurrentRuntimeManager* manager_;
  std::uint64_t next_ticket_ = 0;
  /// Futures of submitted requests not yet resolved, with their tickets.
  std::vector<std::pair<std::uint64_t, std::future<AdmitOutcome>>> pending_;
};

/// Tuning of one scenario replay.
struct ScenarioOptions {
  /// Replace switch_mode() with naive release + readmit — the baseline
  /// the in-place path is benchmarked against. A naive switch whose
  /// readmission fails loses the application (there is no old mode to
  /// roll back to); the driver counts these.
  bool naive_switch = false;

  /// Run the serial-replay oracle after every wave (else only at the
  /// end).
  bool oracle_every_wave = true;
};

/// Aggregate result of one scenario replay.
struct ScenarioStats {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t departures = 0;
  /// Depart/switch events skipped because the slot was no longer live
  /// (rejected arrival, preempted victim, lost naive switch).
  std::uint64_t skipped_events = 0;

  std::uint64_t switches = 0;
  std::uint64_t switches_in_place = 0;
  std::uint64_t switches_replanned = 0;
  std::uint64_t switches_rolled_back = 0;
  /// Switches aborted on their own QoS deadline (old mode kept).
  std::uint64_t switch_deadline_misses = 0;
  /// Naive mode only: release+readmit lost the application.
  std::uint64_t naive_switch_losses = 0;

  /// Wall-clock latency of each switch operation as the driver saw it
  /// (in-place: the switch_mode call; naive: release + readmit).
  LatencyReservoir switch_latency;

  /// Serial-replay oracle verdict over all checks performed.
  bool oracle_ok = true;

  /// Per-wave cumulative outcome snapshots (one entry per wave plus a
  /// final post-finish entry at index waves) — the run's behavioural
  /// fingerprint for record/replay comparison (see ScenarioTrace).
  std::vector<WaveOutcome> wave_log;
};

/// Replays a Schedule against a ScenarioTarget: the run-time mode-switch
/// scenario engine. Waves execute in order; after each wave the target is
/// settled and (optionally) the replay oracle checked. At the end parked
/// requests are rejected and a final oracle check runs.
class ScenarioDriver {
 public:
  ScenarioDriver(ScenarioTarget& target, Schedule schedule,
                 ScenarioOptions options = {});

  /// Runs the whole scenario once. Call on a fresh target/manager.
  ScenarioStats run();

 private:
  void handle_outcomes(const std::vector<SettledOutcome>& outcomes);
  /// Appends the cumulative counter snapshot for @p wave to the wave log.
  void record_wave(std::uint32_t wave);

  ScenarioTarget* target_;
  Schedule schedule_;
  ScenarioOptions options_;

  ScenarioStats stats_;
  /// Ticket -> slot of arrivals the driver submitted.
  std::map<std::uint64_t, std::size_t> pending_slot_;
  /// Tickets that are naive-switch readmissions (their rejection is a
  /// lost application, not an ordinary reject).
  std::set<std::uint64_t> naive_retry_;
  /// Live slot -> running instance id.
  std::map<std::size_t, AppId> live_;
  /// Class each slot arrived with (naive switches readmit with it).
  std::map<std::size_t, RequestClass> slot_cls_;
};

}  // namespace rtsm::runtime
