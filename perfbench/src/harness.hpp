// Measurement harness of the admission benchmark: clocks, percentiles,
// allocation counting, the span tracer and the timing mapper decorator.
// Everything here lives in the benchmark binary; the library is measured
// from outside, through its public API.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/mapper.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
[[nodiscard]] inline double us_since(Clock::time_point a) {
  return us_between(a, Clock::now());
}

/// Linear-interpolated percentile @p p in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

// ------------------------------------------------------------ machine speed

/// Speed of the machine right now, relative to the reference machine.
///
/// The benchmark shares its host with other tenants, and the same
/// instruction stream runs up to several times slower from one second to
/// the next. To keep timings comparable across runs, a fixed reference
/// kernel (small allocations, strings, an ordered map and a sort, like
/// the work of an admission, but independent of the library) is timed
/// between program calls, and each call's wall time
/// is divided by the slowdown the kernel saw around it. Reported times are
/// therefore microseconds at the reference machine's speed.
class SpeedProbe {
 public:
  /// Reference-kernel time on the reference machine (its fastest state).
  static constexpr double kNominalUs = 10.0;

  SpeedProbe();

  /// Times the kernel (best of three back-to-back runs) and returns the
  /// slowdown: measured time / kNominalUs.
  double measure();
  /// Slowdown from the last measure(), measuring again when the last one
  /// is older than kMaxAgeUs.
  double current();
  /// Slowdown from the last measure(), never measuring (safe inside a
  /// timed call).
  [[nodiscard]] double last() const { return last_; }
  /// Raw wall time @p us of a call made after current() returned
  /// @p before, in reference microseconds; long calls are re-measured at
  /// their end and scaled by the mean slowdown.
  double normalize(double us, double before);

 private:
  static constexpr double kMaxAgeUs = 2000.0;
  std::vector<std::uint32_t> input_;
  std::uint64_t sink_ = 0;
  double last_ = 1.0;
  Clock::time_point last_at_{};
};

/// The process's probe (one thread measures).
SpeedProbe& speed_probe();

// ------------------------------------------------------------ allocations

/// Allocation tallies of the replaced global operator new (alloc.cpp).
/// Counting is off unless a traced run switches it on for its timed
/// phase, and then counts only inside program calls (ProgramCall), never
/// the tracer's own bookkeeping (UncountedScope).
struct AllocCounters {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
};
AllocCounters& alloc_counters();

/// Scope of one call into the library.
class ProgramCall {
 public:
  ProgramCall();
  ~ProgramCall();
  ProgramCall(const ProgramCall&) = delete;
  ProgramCall& operator=(const ProgramCall&) = delete;
};

/// Scope in which the calling thread's allocations are never counted
/// (the tracer's own bookkeeping).
class UncountedScope {
 public:
  UncountedScope();
  ~UncountedScope();
  UncountedScope(const UncountedScope&) = delete;
  UncountedScope& operator=(const UncountedScope&) = delete;
};

// ----------------------------------------------------------------- tracer

/// One recorded span: a layer boundary crossed by the benchmark.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root.
  std::uint64_t request = 0;
  std::uint32_t tid = 0;
};

/// In-memory span store of a traced run, written as Chrome trace-event
/// JSON when the run ends. Thread-safe. Spans beyond kMaxSpans are
/// counted but not kept, bounding the trace file.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 200000;

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Reserves a span id (so children can name their parent before the
  /// parent span ends).
  std::uint32_t next_id() { return next_id_.fetch_add(1) + 1; }

  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint32_t id, std::uint32_t parent, std::uint64_t request);

  [[nodiscard]] std::size_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Writes every kept span as Chrome trace-event JSON. False on I/O
  /// failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint32_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// The benchmark thread's current request and span: a mapper call made
/// inline (pump mode) nests under it.
struct CurrentRequest {
  std::uint64_t request = 0;
  std::uint32_t span = 0;
};
CurrentRequest& current_request();

/// Times one call into the library from a benchmark thread: records the
/// span when @p tracer is set, and tags it as a ProgramCall for the
/// allocation counters.
class TimedCall {
 public:
  TimedCall(Tracer* tracer, const char* name, std::uint64_t request);
  ~TimedCall() { stop(); }
  TimedCall(const TimedCall&) = delete;
  TimedCall& operator=(const TimedCall&) = delete;

  /// Ends the call (idempotent); returns its wall time, microseconds.
  double stop();

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t request_;
  std::uint32_t span_ = 0;
  CurrentRequest saved_;
  Clock::time_point start_;
  double duration_us_ = -1.0;
  ProgramCall call_;
};

// ---------------------------------------------------- mapper decorator

/// Per-call record of the decorator (time in reference microseconds).
struct MapCall {
  double us = 0.0;
  std::uint32_t rounds = 0;
  bool success = false;
};

/// core::Mapper decorator for traced runs: forwards every virtual to the
/// wrapped mapper (so the managers still find its verification engine and
/// route cache) and times each map() call while recording is on. Pump
/// mode plans on the caller's thread, so each call nests under the
/// benchmark's current request.
class TimedMapper final : public rtsm::core::Mapper {
 public:
  TimedMapper(std::shared_ptr<const rtsm::core::Mapper> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }

  using rtsm::core::Mapper::map;
  [[nodiscard]] rtsm::core::MappingResult map(
      const rtsm::kpn::Application& app,
      const rtsm::core::ResourceState& base) const override {
    return map(app, base, nullptr);
  }
  [[nodiscard]] rtsm::core::MappingResult map(
      const rtsm::kpn::Application& app, const rtsm::core::ResourceState& base,
      const rtsm::core::CancelToken* cancel) const override;

  [[nodiscard]] std::shared_ptr<rtsm::verify::Engine> verification_engine()
      const override {
    return inner_->verification_engine();
  }
  [[nodiscard]] std::shared_ptr<rtsm::noc::RouteCache> route_cache()
      const override {
    return inner_->route_cache();
  }

  void set_recording(bool on) { recording_.store(on); }
  /// Calls recorded so far (copy, thread-safe).
  [[nodiscard]] std::vector<MapCall> calls() const;

 private:
  std::shared_ptr<const rtsm::core::Mapper> inner_;
  Tracer* tracer_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mutex_;
  mutable std::vector<MapCall> calls_;
};

}  // namespace perfbench
