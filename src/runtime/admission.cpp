#include "runtime/admission.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/defrag.hpp"
#include "runtime/mode_switch.hpp"

namespace rtsm::runtime {

void LatencyReservoir::record(double value_us) {
  if (count_ == 0) {
    min_ = value_us;
    max_ = value_us;
  } else {
    min_ = std::min(min_, value_us);
    max_ = std::max(max_, value_us);
  }
  sum_ += value_us;
  ++count_;
  if (samples_.size() < kCapacity) {
    samples_.push_back(value_us);
    return;
  }
  // Algorithm R: keep the new value with probability kCapacity / count_,
  // replacing a uniformly chosen resident — every value recorded so far
  // ends up retained with equal probability.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t slot = rng_ % count_;
  if (slot < kCapacity) samples_[slot] = value_us;
}

double LatencyReservoir::mean_us() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

void merge_defrag_stats(AdmissionStats& stats, const DefragPassResult& pass) {
  ++stats.defrag_passes;
  stats.migrations += pass.migrations;
  stats.migration_failures += pass.migration_failures;
  stats.last_fragmentation_before = pass.fragmentation_before;
  stats.last_fragmentation_after = pass.fragmentation_after;
  stats.migration_cost_us += pass.migration_cost_us;
}

bool record_switch_stats(AdmissionStats& stats, const SwitchOutcome& out) {
  ++stats.mode_switches;
  stats.switch_latencies.record(out.switch_us);
  stats.switch_migration_cost_us += out.migration_cost_us;
  switch (out.status) {
    case SwitchStatus::InPlace:
      ++stats.switches_in_place;
      return true;
    case SwitchStatus::Replanned:
      ++stats.switches_replanned;
      return true;
    case SwitchStatus::RolledBack:
      ++stats.switches_rolled_back;
      return false;
    case SwitchStatus::UnknownId:
      ++stats.switch_failures;
      return false;
    case SwitchStatus::DeadlineMiss:
      ++stats.switch_deadline_misses;
      return false;
  }
  return false;
}

double LatencyReservoir::percentile_us(double p) const {
  if (samples_.empty()) return 0.0;
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  // The extremes are tracked exactly and survive reservoir eviction.
  if (clamped == 0.0) return min_;
  if (clamped == 100.0) return max_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples_.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::vector<double> scratch = samples_;  // bounded by kCapacity
  std::nth_element(scratch.begin(), scratch.begin() + index, scratch.end());
  return scratch[index];
}

}  // namespace rtsm::runtime
