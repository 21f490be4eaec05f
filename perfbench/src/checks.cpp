#include "checks.hpp"

#include <algorithm>
#include <cmath>

#include "core/mapper.hpp"
#include "energy/model.hpp"
#include "verify/engine.hpp"

namespace perfbench {

using namespace rtsm;

void CheckReport::fail(std::string message) {
  // Keep the report bounded: the first failures say what went wrong.
  if (failures.size() < 20) failures.push_back(std::move(message));
}

namespace {

bool close(double a, double b, double rel = 1e-9) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::uint64_t port_tokens_per_cycle(const kpn::PortSpec& port) {
  std::uint64_t sum = 0;
  for (const std::uint32_t r : port.rates) sum += r;
  return sum;
}

/// Utilisation one process claims on its tile, derived from the
/// implementation descriptor: CSDF cycles per symbol x cycle WCET, over
/// the period at the tile's clock. A process slower than the period
/// claims the whole tile (step 4 then decides whether the period holds).
double process_utilization(const arch::Platform& platform,
                           const kpn::Application& app,
                           const kpn::Implementation& im, TileId tile) {
  std::uint64_t cycles = 0;
  for (const auto* ports : {&im.inputs, &im.outputs}) {
    for (const kpn::PortSpec& port : *ports) {
      cycles = app.channel(port.channel).tokens_per_symbol /
               port_tokens_per_cycle(port);
    }
  }
  std::uint64_t wcet = 0;
  for (const std::uint32_t w : im.wcet_cc) wcet += w;
  const double time_ns = static_cast<double>(cycles * wcet) * 1e9 /
                         static_cast<double>(platform.tile_clock_hz(tile));
  return std::min(
      1.0, time_ns / static_cast<double>(app.qos().symbol_period_ns));
}

std::size_t rr_hops(const arch::Platform& platform, const noc::Path& path) {
  std::size_t hops = 0;
  for (const LinkId link : path.links) {
    if (platform.link(link).kind == arch::LinkKind::RouterToRouter) ++hops;
  }
  return hops;
}

std::string route_violation(const arch::Platform& platform,
                            const noc::Path& path, TileId src, TileId dst) {
  if (src == dst) {
    return path.links.empty() ? "" : "intra-tile channel with a NoC route";
  }
  if (path.links.size() < 2) return "inter-tile channel without a route";
  const arch::Link& first = platform.link(path.links.front());
  const arch::Link& last = platform.link(path.links.back());
  if (first.kind != arch::LinkKind::Inject || first.tile != src) {
    return "route does not start at the source tile's injection link";
  }
  if (last.kind != arch::LinkKind::Eject || last.tile != dst) {
    return "route does not end at the destination tile's ejection link";
  }
  RouterId at = first.to_router;
  if (at != platform.tile_router(src)) return "injection into a wrong router";
  for (std::size_t i = 1; i + 1 < path.links.size(); ++i) {
    const arch::Link& hop = platform.link(path.links[i]);
    if (hop.kind != arch::LinkKind::RouterToRouter) {
      return "route has a non-mesh link in its middle";
    }
    if (hop.from_router != at) return "route is not a contiguous chain";
    const auto [ax, ay] = platform.router_pos(hop.from_router);
    const auto [bx, by] = platform.router_pos(hop.to_router);
    const std::uint32_t dist = (ax > bx ? ax - bx : bx - ax) +
                               (ay > by ? ay - by : by - ay);
    if (dist != 1) return "route link joins non-adjacent routers";
    at = hop.to_router;
  }
  if (last.from_router != at || at != platform.tile_router(dst)) {
    return "route does not reach the destination router";
  }
  return "";
}

/// Recomputed energy per symbol of one mapping: the selected
/// implementations plus tokens x (hop_nj x hops + ni_nj) per channel that
/// crosses at least one router-to-router link.
double recompute_energy(const arch::Platform& platform,
                        const kpn::Application& app,
                        const core::Mapping& mapping) {
  const energy::EnergyModel prices;
  double total = 0.0;
  for (const ProcessId pid : app.process_ids()) {
    total += app.process(pid)
                 .implementations[mapping.impl_of(pid).value()]
                 .energy_nj_per_symbol;
  }
  for (const ChannelId cid : app.channel_ids()) {
    const std::size_t hops = rr_hops(platform, *mapping.path(cid));
    if (hops == 0) continue;
    total += app.channel(cid).tokens_per_symbol *
             (prices.hop_nj_per_token * static_cast<double>(hops) +
              prices.ni_nj_per_token);
  }
  return total;
}

}  // namespace

std::string check_structure(const arch::Platform& platform,
                            const kpn::Application& app,
                            const core::Mapping& mapping) {
  if (mapping.process_count() != app.process_count() ||
      mapping.channel_count() != app.channel_count()) {
    return "mapping does not match the application's shape";
  }
  for (const ProcessId pid : app.process_ids()) {
    if (!mapping.is_assigned(pid)) return "unassigned process";
    const kpn::Process& process = app.process(pid);
    const ImplementationId impl = mapping.impl_of(pid);
    if (!impl.valid() || impl.value() >= process.implementations.size()) {
      return "process '" + process.name + "' has no such implementation";
    }
    const kpn::Implementation& im = process.implementations[impl.value()];
    const TileId tile = mapping.tile_of(pid);
    if (!tile.valid() || tile.value() >= platform.tile_count()) {
      return "process '" + process.name + "' on a tile outside the platform";
    }
    const arch::Tile& spec = platform.tile(tile);
    if (platform.tile_type(spec.type).name != im.tile_type) {
      return "process '" + process.name + "' (" + im.tile_type +
             ") on tile '" + spec.name + "' of type " +
             platform.tile_type(spec.type).name;
    }
    if (process.pinned_tile && *process.pinned_tile != spec.name) {
      return "fixture '" + process.name + "' off its pinned tile";
    }
  }
  for (const ChannelId cid : app.channel_ids()) {
    const auto& path = mapping.path(cid);
    if (!path) return "unrouted channel '" + app.channel(cid).name + "'";
    const kpn::Channel& c = app.channel(cid);
    const std::string why = route_violation(
        platform, *path, mapping.tile_of(c.src), mapping.tile_of(c.dst));
    if (!why.empty()) return "channel '" + c.name + "': " + why;
  }
  return "";
}

void check_platform(const arch::Platform& platform,
                    const std::vector<LiveApp>& apps,
                    const core::ResourceState& live,
                    double claimed_total_energy, const std::string& where,
                    CheckReport& report) {
  ++report.checkpoints;
  std::vector<double> util(platform.tile_count(), 0.0);
  std::vector<std::uint64_t> memory(platform.tile_count(), 0);
  std::vector<std::uint32_t> procs(platform.tile_count(), 0);
  std::vector<double> link_demand(platform.link_count(), 0.0);
  double energy_sum = 0.0;
  core::ResourceState replayed(platform);

  for (const LiveApp& live_app : apps) {
    ++report.apps_checked;
    const kpn::Application& app = *live_app.app;
    const core::Mapping& mapping = live_app.mapping;
    const std::string label = where + ": '" + app.name() + "'";
    const std::string structural = check_structure(platform, app, mapping);
    if (!structural.empty()) {
      report.fail(label + ": " + structural);
      continue;
    }

    for (const ProcessId pid : app.process_ids()) {
      const kpn::Implementation& im =
          app.process(pid).implementations[mapping.impl_of(pid).value()];
      const TileId tile = mapping.tile_of(pid);
      util[tile.value()] += process_utilization(platform, app, im, tile);
      memory[tile.value()] += im.memory_bytes;
      ++procs[tile.value()];
    }
    const double period_s =
        static_cast<double>(app.qos().symbol_period_ns) * 1e-9;
    for (const ChannelId cid : app.channel_ids()) {
      const kpn::Channel& c = app.channel(cid);
      for (const LinkId link : mapping.path(cid)->links) {
        link_demand[link.value()] += c.tokens_per_symbol / period_s;
      }
      if (const auto tokens = mapping.buffer_tokens(cid)) {
        memory[mapping.tile_of(c.dst).value()] +=
            static_cast<std::uint64_t>(*tokens) * c.token_bytes;
      }
    }

    // QoS: an uncached, un-warmed verification of the committed mapping.
    verify::SizingKey key;
    key.target_period_ps = app.qos().symbol_period_ns * 1000ull;
    const verify::VerificationOutcome qos =
        verify::compute_verification(app, platform, mapping, key);
    if (!qos.feasible || qos.achieved_period_ps > key.target_period_ps) {
      report.fail(label + ": period not met (" +
                  std::to_string(qos.achieved_period_ps) + " ps > " +
                  std::to_string(key.target_period_ps) + " ps)");
    }
    if (live_app.claim &&
        (qos.achieved_period_ps != live_app.claim->period_ps ||
         qos.latency_ps != live_app.claim->latency_ps)) {
      report.fail(label + ": verification gives period/latency " +
                  std::to_string(qos.achieved_period_ps) + "/" +
                  std::to_string(qos.latency_ps) + " ps, admission reported " +
                  std::to_string(live_app.claim->period_ps) + "/" +
                  std::to_string(live_app.claim->latency_ps));
    }

    const double energy = recompute_energy(platform, app, mapping);
    energy_sum += energy;
    if (live_app.claim && !close(energy, live_app.claim->energy_nj)) {
      report.fail(label + ": recomputed energy " + std::to_string(energy) +
                  " nJ, admission reported " +
                  std::to_string(live_app.claim->energy_nj));
    }
    core::commit_mapping(replayed, app, mapping);
  }

  for (const TileId tile : platform.tile_ids()) {
    const arch::Tile& spec = platform.tile(tile);
    const std::size_t t = tile.value();
    if (util[t] > 1.0 + 1e-9 || memory[t] > spec.memory_bytes ||
        procs[t] > spec.process_slots) {
      report.fail(where + ": tile '" + spec.name + "' over capacity");
    }
    if (!close(util[t], live.utilization(tile)) ||
        memory[t] != live.memory_used(tile) ||
        procs[t] != live.processes_hosted(tile)) {
      report.fail(where + ": tile '" + spec.name +
                  "' live booking differs from the running mappings");
    }
  }
  for (std::size_t l = 0; l < platform.link_count(); ++l) {
    const LinkId link{static_cast<LinkId::value_type>(l)};
    if (link_demand[l] >
        platform.link(link).capacity_tokens_per_s * (1.0 + 1e-9)) {
      report.fail(where + ": link " + std::to_string(l) + " over capacity");
    }
    if (!close(link_demand[l], live.links().reserved(link), 1e-6)) {
      report.fail(where + ": link " + std::to_string(l) +
                  " live reservation differs from the running mappings");
    }
  }
  if (!close(energy_sum, claimed_total_energy, 1e-9)) {
    report.fail(where + ": recomputed total energy " +
                std::to_string(energy_sum) + " nJ, manager reports " +
                std::to_string(claimed_total_energy));
  }
  if (!live.approx_equals(replayed)) {
    report.fail(where + ": replaying the survivors does not give the live "
                        "state");
  }
}

void negative_self_check(const arch::Platform& platform,
                         const std::vector<LiveApp>& apps,
                         CheckReport& report) {
  bool wrong_type_tried = false;
  bool broken_route_tried = false;
  for (const LiveApp& live_app : apps) {
    const kpn::Application& app = *live_app.app;
    if (!wrong_type_tried) {
      for (const ProcessId pid : app.process_ids()) {
        const kpn::Process& process = app.process(pid);
        if (process.is_fixture()) continue;
        const std::string& type =
            process.implementations[live_app.mapping.impl_of(pid).value()]
                .tile_type;
        for (const TileId tile : platform.tile_ids()) {
          if (platform.tile_type(platform.tile(tile).type).name == type) {
            continue;
          }
          core::Mapping corrupt = live_app.mapping;
          corrupt.move(pid, tile);
          if (check_structure(platform, app, corrupt).empty()) {
            report.fail("self-check: a process on a wrong-type tile passed");
          }
          wrong_type_tried = true;
          break;
        }
        if (wrong_type_tried) break;
      }
    }
    if (!broken_route_tried && !app.channel_ids().empty()) {
      // Any channel can be broken, so the check does not depend on which
      // applications happen to be running when the run ends: drop a
      // route's first link after injection (a mesh hop, or the ejection
      // link of a route through one router), or give an intra-tile
      // channel a link.
      const ChannelId cid = app.channel_ids().front();
      noc::Path broken = *live_app.mapping.path(cid);
      if (broken.links.size() >= 2) {
        broken.links.erase(broken.links.begin() + 1);
      } else {
        broken.links.push_back(LinkId{0});
      }
      core::Mapping corrupt = live_app.mapping;
      corrupt.set_path(cid, broken);
      if (check_structure(platform, app, corrupt).empty()) {
        report.fail("self-check: a broken route passed");
      }
      broken_route_tried = true;
    }
    if (wrong_type_tried && broken_route_tried) return;
  }
  report.fail("self-check: no live mapping could be corrupted");
}

}  // namespace perfbench
