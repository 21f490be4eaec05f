// Shared machinery of the workloads: the record of a timed phase, layer
// counters, metric assembly and the instrumented pump-mode manager.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "noc/route_cache.hpp"
#include "runtime/concurrent_manager.hpp"
#include "verify/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Everything a timed phase measured from the benchmark's side.
struct Phase {
  std::vector<double> admit_us;      ///< admit() time, every decided admit.
  std::vector<double> hit_admit_us;  ///< Shape-library hits only.
  std::vector<double> miss_admit_us; ///< Admits that ran the mapper.
  /// Admit time minus the outcome's mapping_us: the admission's
  /// time outside planning (queue, snapshot, validate, commit, future).
  std::vector<double> queue_wait_us;
  /// switch_mode() time: the phase's own switches, or the switch probe's
  /// in a workload without switches of its own.
  std::vector<double> switch_us;
  std::vector<double> release_us;
  std::uint64_t attempted = 0;  ///< Admission and switch requests.
  std::uint64_t failed = 0;     ///< Requests that threw.
  std::uint64_t decisions = 0;  ///< Admissions and switches decided.
  std::uint64_t admitted = 0;
  double energy_sum = 0.0;      ///< Over admitted outcomes.
  /// Decisions per second of program time (admit, switch and release
  /// calls in reference microseconds; benchmark bookkeeping and checks
  /// excluded), one entry per segment: the phase is cut into kSegments
  /// equal parts of its rounds. decisions_per_s is their median, so one
  /// segment holding a rare very slow operation does not swing it.
  std::vector<double> segment_rates;
  static constexpr std::uint32_t kSegments = 8;
  std::uint64_t switches_in_place = 0;
  std::uint64_t switches_rolled_back = 0;
  /// Admitted (application, mapping) pairs for the post-phase cold
  /// verification and routing probes (bounded).
  std::vector<std::pair<AppPtr, rtsm::core::Mapping>> samples;

  static constexpr std::size_t kMaxSamples = 64;
  void reserve(std::size_t operations);
};

/// Library counters read at the start and the end of a timed phase.
struct LayerCounters {
  double snapshot_us = 0.0;
  double validate_us = 0.0;
  double commit_us = 0.0;
  std::uint64_t gated_commits = 0;
  std::uint64_t validated_commits = 0;
  std::uint64_t shape_hits = 0;
  std::uint64_t shape_misses = 0;
  std::uint64_t shape_anchor_probes = 0;
  std::uint64_t defrag_passes = 0;
  std::uint64_t migrations = 0;
  std::uint64_t preemption_evictions = 0;
  rtsm::verify::EngineStats verify;
  rtsm::noc::RouteCacheStats routes;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;

  void add(const rtsm::runtime::AdmissionStats& stats);
  /// Engine and route-cache counters of @p mapper, plus the allocation
  /// counters.
  void read_shared(const rtsm::core::Mapper& mapper);
};

/// End-to-end metrics (untraced runs).
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const Phase& phase,
                                                     double setup_s);

/// Per-layer metrics (traced runs): counter deltas, the decorator's map()
/// calls, and uncached verification/routing probes on the phase's
/// admitted mappings (timed here, after the phase).
[[nodiscard]] std::vector<Metric> per_layer_metrics(
    const rtsm::arch::Platform& platform, const Phase& phase,
    const LayerCounters& begin, const LayerCounters& end,
    const std::vector<MapCall>& map_calls, Tracer* tracer);

/// Median of @p setups set-up durations, seconds.
[[nodiscard]] double median_seconds(std::vector<double> setups_us);

[[nodiscard]] double peak_rss_mb();

/// Switches traced-run allocation counting on or off.
void count_allocations(bool on);

/// Bookkeeping of one application the benchmark admitted.
struct Tracked {
  std::optional<Claim> claim;
  /// The mapping the claim speaks about; a differing live mapping (defrag
  /// migration) voids the claim.
  rtsm::core::Mapping admitted{0, 0};
};

[[nodiscard]] bool same_mapping(const rtsm::core::Mapping& a,
                                const rtsm::core::Mapping& b);

/// One instrumented ConcurrentRuntimeManager in pump mode (workers = 0):
/// every operation is a timed, traced call recorded into the phase while
/// the phase is on. Call times are in reference microseconds (SpeedProbe).
class PumpBench {
 public:
  PumpBench(const rtsm::arch::Platform& platform,
              rtsm::runtime::ManagerOptions options, Tracer* tracer);

  /// Admits @p app. Returns the outcome, or nullopt when the request threw
  /// (recorded as failed).
  std::optional<rtsm::runtime::AdmitOutcome> arrive(
      const AppPtr& app, rtsm::runtime::RequestClass cls = {});
  void depart(rtsm::AppId id);
  /// Switches running @p id to @p next and checks the switch contract
  /// (a committed switch runs the new graph; a rolled-back one keeps its
  /// mapping).
  rtsm::runtime::SwitchOutcome switch_to(rtsm::AppId id, const AppPtr& next);

  void begin_phase();
  /// Closes a segment of decisions_per_s.
  void end_segment();
  void end_phase();

  /// Rejects parked requests and releases every running application:
  /// an empty platform with warm caches.
  void clear();

  /// Re-reads the running set after preemption: drops evicted ids and
  /// returns re-admitted victims the bench did not admit itself.
  /// Cheap when nothing changed.
  std::vector<rtsm::AppId> reconcile();
  [[nodiscard]] bool tracks(rtsm::AppId id) const {
    return tracked_.count(id) != 0;
  }

  /// Reference-speed time spent in program calls since construction.
  [[nodiscard]] double program_us() const { return program_us_; }

  /// Full output check of the live platform.
  void check(const std::string& where);
  /// Live applications as the checks see them (claims attached).
  [[nodiscard]] std::vector<LiveApp> live_apps() const;
  /// map() calls the traced run's decorator recorded.
  [[nodiscard]] std::vector<MapCall> map_calls() const {
    return timed_ != nullptr ? timed_->calls() : std::vector<MapCall>{};
  }

  Phase phase;
  CheckReport report;
  LayerCounters begin_counters;
  LayerCounters end_counters;

 private:
  [[nodiscard]] LayerCounters read_counters() const;

  const rtsm::arch::Platform* platform_;
  Tracer* tracer_;
  std::shared_ptr<TimedMapper> timed_;
  std::unique_ptr<rtsm::runtime::ConcurrentRuntimeManager> manager_;
  std::map<rtsm::AppId, Tracked> tracked_;
  std::uint64_t evictions_seen_ = 0;
  std::uint64_t next_request_ = 0;
  bool measuring_ = false;
  double program_us_ = 0.0;
  std::uint64_t segment_decisions_ = 0;
  double segment_us_ = 0.0;
};

/// switch_p50_us for a workload whose traffic has no mode switches: a
/// manager of its own on the workload's platform (default options,
/// untraced) runs one resident, which step() switches to its next mode.
/// The workload steps the probe at fixed points of its timed phase, so
/// the samples span the run like the workload's own. The probe shares no
/// state or counter with the workload's manager: the phase's decisions,
/// cache hit ratios and CSDF simulations remain the workload's own.
class SwitchProbe {
 public:
  SwitchProbe(const rtsm::arch::Platform& platform, std::vector<AppPtr> modes);

  void step();
  /// Checks the probe's manager into @p report; returns the switch times.
  std::vector<double> finish(CheckReport& report);

 private:
  std::vector<AppPtr> modes_;
  PumpBench bench_;
  rtsm::AppId resident_;
  std::size_t mode_ = 0;
  bool admitted_ = false;
};

/// True when round @p r (0-based) of @p rounds ends a segment.
[[nodiscard]] bool ends_segment(std::uint32_t r, std::uint32_t rounds);

/// Result assembly shared by the pump workloads.
[[nodiscard]] RunResult finish_pump_run(const RunOptions& options,
                                        const rtsm::arch::Platform& platform,
                                        PumpBench& bench, double setup_s,
                                        Tracer* tracer);

}  // namespace perfbench
