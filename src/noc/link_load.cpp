#include "noc/link_load.hpp"

#include <numeric>

#include "util/approx.hpp"
#include "util/error.hpp"

namespace rtsm::noc {

std::size_t Path::rr_hops(const arch::Platform& platform) const {
  std::size_t hops = 0;
  for (const LinkId link : links) {
    if (platform.link(link).kind == arch::LinkKind::RouterToRouter) ++hops;
  }
  return hops;
}

std::vector<RouterId> Path::routers(const arch::Platform& platform) const {
  std::vector<RouterId> result;
  for (const LinkId link : links) {
    const arch::Link& l = platform.link(link);
    switch (l.kind) {
      case arch::LinkKind::Inject:
        result.push_back(l.to_router);
        break;
      case arch::LinkKind::RouterToRouter:
        result.push_back(l.to_router);
        break;
      case arch::LinkKind::Eject:
        break;  // from_router already recorded by the previous link
    }
  }
  return result;
}

LinkLoad::LinkLoad(const arch::Platform& platform)
    : platform_(&platform), reserved_(platform.link_count(), 0.0) {}

LinkLoad::LinkLoad(const LinkLoad& other)
    : platform_(other.platform_), reserved_(other.reserved_) {}

LinkLoad& LinkLoad::operator=(const LinkLoad& other) {
  if (this == &other) return *this;
  platform_ = other.platform_;
  reserved_ = other.reserved_;
  return *this;
}

double LinkLoad::reserved(LinkId link) const {
  require(link.valid() && link.value() < reserved_.size(),
          "link id out of range");
  return reserved_[link.value()];
}

double LinkLoad::residual(LinkId link) const {
  return platform_->link(link).capacity_tokens_per_s - reserved(link);
}

bool LinkLoad::fits(LinkId link, double demand) const {
  const double cap = platform_->link(link).capacity_tokens_per_s;
  return reserved(link) + demand <= cap * (1.0 + kSlack);
}

void LinkLoad::reserve(LinkId link, double demand) {
  require(demand >= 0, "negative link demand");
  require(fits(link, demand), "link over-reservation");
  reserved_[link.value()] += demand;
  if (listener_ != nullptr) listener_->on_link_change();
}

void LinkLoad::release(LinkId link, double demand) {
  require(demand >= 0, "negative link demand");
  double& r = reserved_[link.value()];
  r = r > demand ? r - demand : 0.0;
  if (listener_ != nullptr) listener_->on_link_change();
}

void LinkLoad::reserve_path(const Path& path, double demand) {
  // Validate the whole path first so a failed reservation is atomic. The
  // message is only formatted on failure — this loop is on the commit hot
  // path.
  for (const LinkId link : path.links) {
    if (!fits(link, demand)) {
      throw Error("path over-reservation on link " +
                  std::to_string(link.value()));
    }
  }
  for (const LinkId link : path.links) reserve(link, demand);
}

void LinkLoad::release_path(const Path& path, double demand) {
  for (const LinkId link : path.links) release(link, demand);
}

double LinkLoad::total_reserved() const {
  return std::accumulate(reserved_.begin(), reserved_.end(), 0.0);
}

bool LinkLoad::approx_equals(const LinkLoad& other, double rel_eps) const {
  if (platform_ != other.platform_) return false;
  for (std::size_t i = 0; i < reserved_.size(); ++i) {
    if (!approx_equal(reserved_[i], other.reserved_[i], rel_eps)) {
      return false;
    }
  }
  return true;
}

}  // namespace rtsm::noc
