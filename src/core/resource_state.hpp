#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/platform.hpp"
#include "kpn/application.hpp"
#include "noc/link_load.hpp"
#include "util/ids.hpp"

namespace rtsm::core {

/// Mutable view of what is still free on the platform.
///
/// The run-time mapper maps against this residual state rather than the bare
/// platform, which is exactly the paper's motivation: at run time the actual
/// set of running applications is known, so a new application is fitted into
/// the *remaining* capacity. Tracks per-tile compute utilisation (fraction of
/// the period spent executing) and memory, plus all NoC link reservations.
///
/// Every mutation — tile reserve/release/saturate and, via an internal
/// LinkLoad listener, every link reserve/release — bumps a monotonic
/// version(). A copy remembers which source and version it was taken from
/// (its sync token), so synced_with() can tell a caller that the source has
/// not changed since the copy — the gate of the managers' commit path.
class ResourceState : private noc::LinkLoadListener {
 public:
  /// Tolerates float accumulation when many small reservations sum to ~1.0.
  /// Public so out-of-state admission probes (core::mapping_fits) can
  /// replicate tile_fits() bit-for-bit without a state copy.
  static constexpr double kUtilSlack = 1e-9;

  explicit ResourceState(const arch::Platform& platform);

  /// Copies the residual bookkeeping and marks the copy as synced with
  /// @p other at its current version (see synced_with()). The copy starts
  /// with version 0 and its own identity.
  ResourceState(const ResourceState& other);

  /// Overwrites the bookkeeping (keeping this object's identity and
  /// listener registration) and syncs the destination with @p other, like
  /// the copy constructor. Reuses the destination's vector capacity, so a
  /// warm scratch takes a snapshot without allocating. Bumps this object's
  /// version: its value jumped, so copies synced with it go stale.
  ResourceState& operator=(const ResourceState& other);

  ~ResourceState() override = default;

  [[nodiscard]] const arch::Platform& platform() const { return *platform_; }

  /// Fraction of the tile's time already committed (0 = idle, 1 = full).
  [[nodiscard]] double utilization(TileId tile) const;

  /// Bytes of tile-local memory already committed.
  [[nodiscard]] std::uint64_t memory_used(TileId tile) const;

  /// Memory still available on @p tile.
  [[nodiscard]] std::uint64_t memory_free(TileId tile) const;

  /// Processes currently hosted by @p tile.
  [[nodiscard]] std::uint32_t processes_hosted(TileId tile) const;

  /// True when @p extra_utilization, @p extra_memory and @p extra_processes
  /// still fit on @p tile (slots, utilisation and memory all respected).
  /// Pass extra_processes = 0 for pure memory reservations (channel
  /// buffers).
  [[nodiscard]] bool tile_fits(TileId tile, double extra_utilization,
                               std::uint64_t extra_memory,
                               std::uint32_t extra_processes = 1) const;

  void reserve_tile(TileId tile, double utilization, std::uint64_t memory,
                    std::uint32_t processes = 1);
  void release_tile(TileId tile, double utilization, std::uint64_t memory,
                    std::uint32_t processes = 1);

  [[nodiscard]] noc::LinkLoad& links() { return links_; }
  [[nodiscard]] const noc::LinkLoad& links() const { return links_; }

  /// Count of tiles with zero committed utilisation (for shutdown/energy
  /// reporting: unused tiles can be power-gated).
  [[nodiscard]] std::size_t idle_tile_count() const;

  /// Value copy of the residual state. The copy is what optimistic
  /// concurrent admission plans against: a mapper runs on the snapshot
  /// outside any lock, and the plan is re-validated against the live state
  /// (mapping_fits) before commit. On the admission hot path, copy-assign
  /// into a reused scratch instead: that keeps the copy allocation-free.
  [[nodiscard]] ResourceState snapshot() const { return *this; }

  /// Marks @p tile as completely occupied (full utilisation, no free
  /// memory, no free process slots). Used on snapshots to mask tiles
  /// outside a shard so a mapper can only place within the shard's region.
  void saturate_tile(TileId tile);

  /// True when @p other books the same residual resources within a relative
  /// tolerance of @p rel_eps per tile/link quantity. Utilisation and link
  /// reservations are floating-point sums whose rounding depends on commit
  /// order, so concurrent histories are compared approximately; memory and
  /// process counts must match exactly.
  [[nodiscard]] bool approx_equals(const ResourceState& other,
                                   double rel_eps = 1e-9) const;

  // ------------------------------------------------------------ versioning --

  /// Monotonic mutation counter: every tile or link reserve/release/saturate
  /// (and every overwrite by assignment) bumps it by one. Two observations
  /// at the same version saw bit-identical state.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// True when this state is a bit-identical image of @p source at its
  /// current version: it was copied from @p source, has not been mutated
  /// since, and @p source has not moved past that version.
  /// The soundness condition of the managers' version-gated commit.
  [[nodiscard]] bool synced_with(const ResourceState& source) const {
    return synced_from_ == &source && synced_uid_ == source.uid_ &&
           synced_version_ == source.version_;
  }

 private:
  void check_tile(TileId tile) const;

  /// Bumps version() and drops this object's own sync token — it has
  /// diverged from whatever it was last synced with. Called after every
  /// successful mutation.
  void note_mutation();

  void on_link_change() override { note_mutation(); }

  const arch::Platform* platform_;
  std::vector<double> utilization_;
  std::vector<std::uint64_t> memory_used_;
  std::vector<std::uint32_t> processes_;
  noc::LinkLoad links_;

  /// Process-unique identity (never reused), so a sync token cannot
  /// mistake a new state allocated at a dead source's address for the
  /// original.
  std::uint64_t uid_;
  std::uint64_t version_ = 0;

  /// Sync token (scratch side): the source object, its uid, and the source
  /// version this state was last made bit-identical to. Compared, never
  /// dereferenced. Cleared by note_mutation().
  const ResourceState* synced_from_ = nullptr;
  std::uint64_t synced_uid_ = 0;
  std::uint64_t synced_version_ = 0;
};

/// Wall-clock time one symbol of work takes for @p impl of @p process when
/// run on a tile clocked at @p clock_hz, in nanoseconds.
[[nodiscard]] double impl_time_per_symbol_ns(const kpn::Application& app,
                                             ProcessId process,
                                             ImplementationId impl,
                                             std::uint64_t clock_hz);

/// Fraction of the application period consumed by @p impl on such a tile.
[[nodiscard]] double impl_utilization(const kpn::Application& app,
                                      ProcessId process, ImplementationId impl,
                                      std::uint64_t clock_hz);

/// Utilisation as booked against a tile budget. An implementation slower
/// than the period (raw > 1) claims the whole tile; whether it is admissible
/// at all is decided by step 1's screen or step 4's dataflow check, not by
/// the bookkeeping.
[[nodiscard]] inline double claimed_utilization(double raw_utilization) {
  return raw_utilization < 1.0 ? raw_utilization : 1.0;
}

}  // namespace rtsm::core
