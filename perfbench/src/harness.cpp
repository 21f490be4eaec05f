#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ------------------------------------------------------------ machine speed

namespace {

/// One pass of the reference kernel: the kind of work an admission does
/// (small allocations, string building, ordered-map updates, sorting a
/// short vector), on inputs fixed at construction.
std::uint64_t reference_pass(const std::vector<std::uint32_t>& input) {
  std::map<std::uint32_t, std::uint32_t> index;
  std::vector<std::uint32_t> values;
  std::string text;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const std::uint32_t v = input[i];
    index[v % 97] += v;
    values.push_back(v ^ static_cast<std::uint32_t>(i));
    text += 't';
    text += std::to_string(v % 1000);
    text += ';';
  }
  std::sort(values.begin(), values.end());
  for (const auto& [key, value] : index) sum += key * value;
  return sum + values[values.size() / 2] + text.size();
}

}  // namespace

SpeedProbe::SpeedProbe() : input_(96) {
  std::uint32_t x = 2463534242u;
  for (std::uint32_t& v : input_) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    v = x;
  }
}

double SpeedProbe::measure() {
  // normalize() may measure while a program call is still open; the
  // kernel's allocations are the benchmark's, not the library's.
  const UncountedScope uncounted;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point start = Clock::now();
    sink_ += reference_pass(input_);
    best = std::min(best, us_since(start));
  }
  last_ = best / kNominalUs;
  last_at_ = Clock::now();
  return last_;
}

double SpeedProbe::current() {
  if (us_since(last_at_) > kMaxAgeUs) return measure();
  return last_;
}

double SpeedProbe::normalize(double us, double before) {
  if (us <= kMaxAgeUs) return us / before;
  return us / (0.5 * (before + measure()));
}

SpeedProbe& speed_probe() {
  static SpeedProbe probe;
  return probe;
}

// ------------------------------------------------------------ allocations

namespace {
thread_local int t_program_depth = 0;
thread_local int t_uncounted_depth = 0;
}  // namespace

AllocCounters& alloc_counters() {
  static AllocCounters counters;
  return counters;
}

ProgramCall::ProgramCall() { ++t_program_depth; }
ProgramCall::~ProgramCall() { --t_program_depth; }
UncountedScope::UncountedScope() { ++t_uncounted_depth; }
UncountedScope::~UncountedScope() { --t_uncounted_depth; }

/// Called by the replaced operator new (alloc.cpp) on every allocation.
void note_allocation(std::size_t size) {
  AllocCounters& c = alloc_counters();
  if (!c.enabled.load(std::memory_order_relaxed)) return;
  if (t_uncounted_depth > 0 || t_program_depth == 0) return;
  c.count.fetch_add(1, std::memory_order_relaxed);
  c.bytes.fetch_add(size, std::memory_order_relaxed);
}

// ----------------------------------------------------------------- tracer

namespace {
std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid = next.fetch_add(1) + 1;
  return tid;
}
}  // namespace

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint32_t id,
                    std::uint32_t parent, std::uint64_t request) {
  const UncountedScope uncounted;
  Span span;
  span.name = name;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.tid = thread_number();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  if (spans_.capacity() == 0) spans_.reserve(kMaxSpans);
  spans_.push_back(span);
}

std::size_t Tracer::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"request\":%llu}}%s\n",
                 s.name,
                 static_cast<int>(std::string_view(s.name).find('.')),
                 s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 s.id, s.parent, static_cast<unsigned long long>(s.request),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "],\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

CurrentRequest& current_request() {
  thread_local CurrentRequest current;
  return current;
}

TimedCall::TimedCall(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer), name_(name), request_(request) {
  saved_ = current_request();
  if (tracer_ != nullptr) {
    span_ = tracer_->next_id();
    current_request() = {request_, span_};
  }
  start_ = Clock::now();
}

double TimedCall::stop() {
  if (duration_us_ >= 0.0) return duration_us_;
  const Clock::time_point end = Clock::now();
  duration_us_ = us_between(start_, end);
  if (tracer_ != nullptr) {
    tracer_->record(name_, start_, end, span_, saved_.span, request_);
    current_request() = saved_;
  }
  return duration_us_;
}

// ---------------------------------------------------- mapper decorator

rtsm::core::MappingResult TimedMapper::map(
    const rtsm::kpn::Application& app, const rtsm::core::ResourceState& base,
    const rtsm::core::CancelToken* cancel) const {
  if (!recording_.load(std::memory_order_relaxed)) {
    return inner_->map(app, base, cancel);
  }
  const CurrentRequest parent = current_request();
  const std::uint32_t id = tracer_ != nullptr ? tracer_->next_id() : 0;
  const Clock::time_point start = Clock::now();
  rtsm::core::MappingResult result = inner_->map(app, base, cancel);
  const Clock::time_point end = Clock::now();
  if (tracer_ != nullptr) {
    tracer_->record("core.map", start, end, id, parent.span, parent.request);
  }
  const UncountedScope uncounted;
  const std::lock_guard<std::mutex> lock(mutex_);
  calls_.push_back({us_between(start, end) / speed_probe().last(),
                    result.rounds, result.success});
  return result;
}

std::vector<MapCall> TimedMapper::calls() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return calls_;
}

}  // namespace perfbench
