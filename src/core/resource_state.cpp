#include "core/resource_state.hpp"

#include <atomic>

#include "util/approx.hpp"
#include "util/error.hpp"

namespace rtsm::core {

namespace {

/// Process-wide identity source; never reused, so stale sync tokens can be
/// told apart from a new state at a recycled address.
std::uint64_t next_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ResourceState::ResourceState(const arch::Platform& platform)
    : platform_(&platform),
      utilization_(platform.tile_count(), 0.0),
      memory_used_(platform.tile_count(), 0),
      processes_(platform.tile_count(), 0),
      links_(platform),
      uid_(next_uid()) {
  links_.set_listener(this);
}

ResourceState::ResourceState(const ResourceState& other)
    : platform_(other.platform_),
      utilization_(other.utilization_),
      memory_used_(other.memory_used_),
      processes_(other.processes_),
      links_(other.links_),  // copy drops other's listener
      uid_(next_uid()),
      synced_from_(&other),
      synced_uid_(other.uid_),
      synced_version_(other.version_) {
  links_.set_listener(this);
}

ResourceState& ResourceState::operator=(const ResourceState& other) {
  if (this == &other) return *this;
  platform_ = other.platform_;
  utilization_ = other.utilization_;
  memory_used_ = other.memory_used_;
  processes_ = other.processes_;
  links_ = other.links_;  // LinkLoad assignment keeps our own listener
  // The value jumped arbitrarily: copies synced with *us* are stale now.
  ++version_;
  synced_from_ = &other;
  synced_uid_ = other.uid_;
  synced_version_ = other.version_;
  return *this;
}

double ResourceState::utilization(TileId tile) const {
  check_tile(tile);
  return utilization_[tile.value()];
}

std::uint64_t ResourceState::memory_used(TileId tile) const {
  check_tile(tile);
  return memory_used_[tile.value()];
}

std::uint64_t ResourceState::memory_free(TileId tile) const {
  check_tile(tile);
  const std::uint64_t total = platform_->tile(tile).memory_bytes;
  const std::uint64_t used = memory_used_[tile.value()];
  return used >= total ? 0 : total - used;
}

std::uint32_t ResourceState::processes_hosted(TileId tile) const {
  check_tile(tile);
  return processes_[tile.value()];
}

bool ResourceState::tile_fits(TileId tile, double extra_utilization,
                              std::uint64_t extra_memory,
                              std::uint32_t extra_processes) const {
  check_tile(tile);
  if (utilization_[tile.value()] + extra_utilization > 1.0 + kUtilSlack) {
    return false;
  }
  if (processes_[tile.value()] + extra_processes >
      platform_->tile(tile).process_slots) {
    return false;
  }
  return extra_memory <= memory_free(tile);
}

void ResourceState::reserve_tile(TileId tile, double utilization,
                                 std::uint64_t memory,
                                 std::uint32_t processes) {
  require(utilization >= 0.0, "negative utilization reservation");
  if (!tile_fits(tile, utilization, memory, processes)) {
    // Branch before formatting: building the message eagerly would cost a
    // heap allocation per reserve on the commit hot path.
    throw Error("tile over-reservation on '" + platform_->tile(tile).name +
                "'");
  }
  utilization_[tile.value()] += utilization;
  memory_used_[tile.value()] += memory;
  processes_[tile.value()] += processes;
  note_mutation();
}

void ResourceState::release_tile(TileId tile, double utilization,
                                 std::uint64_t memory,
                                 std::uint32_t processes) {
  check_tile(tile);
  double& u = utilization_[tile.value()];
  u = u > utilization ? u - utilization : 0.0;
  std::uint64_t& m = memory_used_[tile.value()];
  m = m > memory ? m - memory : 0;
  std::uint32_t& p = processes_[tile.value()];
  p = p > processes ? p - processes : 0;
  note_mutation();
}

void ResourceState::saturate_tile(TileId tile) {
  check_tile(tile);
  utilization_[tile.value()] = 1.0;
  memory_used_[tile.value()] = platform_->tile(tile).memory_bytes;
  processes_[tile.value()] = platform_->tile(tile).process_slots;
  note_mutation();
}

bool ResourceState::approx_equals(const ResourceState& other,
                                  double rel_eps) const {
  if (platform_ != other.platform_) return false;
  if (memory_used_ != other.memory_used_ || processes_ != other.processes_) {
    return false;
  }
  for (std::size_t i = 0; i < utilization_.size(); ++i) {
    if (!approx_equal(utilization_[i], other.utilization_[i], rel_eps)) {
      return false;
    }
  }
  return links_.approx_equals(other.links_, rel_eps);
}

std::size_t ResourceState::idle_tile_count() const {
  std::size_t idle = 0;
  for (const double u : utilization_) {
    if (u == 0.0) ++idle;
  }
  return idle;
}

void ResourceState::note_mutation() {
  ++version_;
  synced_from_ = nullptr;
}

void ResourceState::check_tile(TileId tile) const {
  require(tile.valid() && tile.value() < utilization_.size(),
          "ResourceState: tile id out of range");
}

double impl_time_per_symbol_ns(const kpn::Application& app, ProcessId process,
                               ImplementationId impl, std::uint64_t clock_hz) {
  require(clock_hz > 0, "impl_time_per_symbol_ns: zero clock");
  const kpn::Implementation& im = app.implementation(process, impl);
  const std::uint64_t cycles =
      app.cycles_per_symbol(process, impl) * im.cycle_wcet_cc();
  return static_cast<double>(cycles) * 1e9 / static_cast<double>(clock_hz);
}

double impl_utilization(const kpn::Application& app, ProcessId process,
                        ImplementationId impl, std::uint64_t clock_hz) {
  return impl_time_per_symbol_ns(app, process, impl, clock_hz) /
         static_cast<double>(app.qos().symbol_period_ns);
}

}  // namespace rtsm::core
