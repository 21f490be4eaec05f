#pragma once

#include <cstdint>
#include <vector>

#include "arch/platform.hpp"
#include "util/ids.hpp"

namespace rtsm::noc {

/// A unicast route for one channel through the NoC.
///
/// links = [inject, rr..., eject] for inter-tile routes; an intra-tile route
/// (producer and consumer on the same tile) has no links at all.
struct Path {
  TileId src_tile;
  TileId dst_tile;
  std::vector<LinkId> links;

  /// Number of router-to-router links (the Manhattan distance for minimal
  /// routes; the quantity estimated by mapping step 2).
  [[nodiscard]] std::size_t rr_hops(const arch::Platform& platform) const;

  /// Routers traversed, in order (empty for intra-tile routes).
  [[nodiscard]] std::vector<RouterId> routers(
      const arch::Platform& platform) const;

  [[nodiscard]] bool is_intra_tile() const { return links.empty(); }
};

/// Observer of link reservation changes.
///
/// core::ResourceState registers itself on its own LinkLoad so mutations
/// made through links() (step-3 route reservations, path releases) bump
/// its version counter. The listener pointer is deliberately dropped by the
/// copy constructor and left untouched by copy assignment: a snapshot's
/// mutations must never bump its source's version, and an overwritten
/// scratch must keep observing itself.
class LinkLoadListener {
 public:
  virtual ~LinkLoadListener() = default;
  /// Called after every successful reserve() or release().
  virtual void on_link_change() = 0;
};

/// Guaranteed-throughput reservation state of all NoC links.
///
/// Tracks the token rate reserved on every link; routing only considers
/// links whose residual capacity covers a channel's demand, which is how the
/// predictable NoC of the paper admits new connections.
class LinkLoad {
 public:
  /// Relative slack tolerating float accumulation across many reservations.
  /// Public so out-of-state admission probes (core::mapping_fits) can
  /// replicate fits() bit-for-bit without a state copy.
  static constexpr double kSlack = 1e-9;

  explicit LinkLoad(const arch::Platform& platform);

  /// Copies reservations but not the listener: a snapshot observes nobody.
  LinkLoad(const LinkLoad& other);

  /// Copies reservations; the destination keeps its own listener.
  LinkLoad& operator=(const LinkLoad& other);

  [[nodiscard]] const arch::Platform& platform() const { return *platform_; }

  /// Tokens per second currently reserved on @p link.
  [[nodiscard]] double reserved(LinkId link) const;

  /// Capacity still available on @p link, tokens per second.
  [[nodiscard]] double residual(LinkId link) const;

  /// True when @p demand tokens/s fit on @p link (with relative slack for
  /// floating-point accumulation).
  [[nodiscard]] bool fits(LinkId link, double demand) const;

  /// Adds @p demand to the link's reservation. Throws rtsm::Error when the
  /// reservation would exceed capacity.
  void reserve(LinkId link, double demand);

  /// Removes @p demand from the link's reservation (clamped at zero).
  void release(LinkId link, double demand);

  /// Reserves @p demand on every link of @p path.
  void reserve_path(const Path& path, double demand);

  /// Releases @p demand from every link of @p path.
  void release_path(const Path& path, double demand);

  /// Sum of reserved rate over all links (a congestion metric).
  [[nodiscard]] double total_reserved() const;

  /// True when every link's reservation matches @p other within a relative
  /// tolerance (see ResourceState::approx_equals for why reservations made
  /// in different orders can only be compared approximately).
  [[nodiscard]] bool approx_equals(const LinkLoad& other,
                                   double rel_eps = 1e-9) const;

  /// Registers @p listener for reserve/release notifications (null to
  /// unregister). Exactly one listener; not owned.
  void set_listener(LinkLoadListener* listener) { listener_ = listener; }

 private:
  const arch::Platform* platform_;
  std::vector<double> reserved_;
  LinkLoadListener* listener_ = nullptr;
};

}  // namespace rtsm::noc
