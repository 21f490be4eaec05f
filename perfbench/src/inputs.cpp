#include "inputs.hpp"

#include "workload/hiperlan2.hpp"
#include "workload/modes.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {

using namespace rtsm;

arch::Platform make_6x6_platform(const std::string& name) {
  arch::Platform p(name, 6, 6, arch::NocParams{});
  const TileTypeId arm = p.add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p.add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 1'600'000'000);
  p.add_tile("A/D", io, 0, 2, 64 * 1024, /*process_slots=*/8);
  p.add_tile("Sink", io, 5, 3, 64 * 1024, /*process_slots=*/8);
  std::uint32_t arms = 0;
  std::uint32_t montiums = 0;
  for (std::uint32_t y = 0; y < 6 && arms + montiums < 20; ++y) {
    for (std::uint32_t x = 0; x < 6 && arms + montiums < 20; ++x) {
      if ((x == 0 && y == 2) || (x == 5 && y == 3)) continue;  // IO
      if ((x + y) % 2 == 0 && arms < 10) {
        p.add_tile("ARM" + std::to_string(arms++), arm, x, y, 64 * 1024,
                   /*process_slots=*/6);
      } else if (montiums < 10) {
        p.add_tile("MONT" + std::to_string(montiums++), montium, x, y,
                   64 * 1024, /*process_slots=*/1);
      }
    }
  }
  return p;
}

arch::Platform make_mesh_platform(std::uint32_t n) {
  arch::Platform p("mesh " + std::to_string(n) + "x" + std::to_string(n), n,
                   n);
  const TileTypeId arm = p.add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p.add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 1'600'000'000);
  p.add_tile("SRC", io, 0, 0, 64 * 1024, /*process_slots=*/8);
  p.add_tile("DST", io, n - 1, n - 1, 64 * 1024, /*process_slots=*/8);
  std::uint32_t arms = 0;
  std::uint32_t montiums = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    for (std::uint32_t x = 0; x < n; ++x) {
      if ((x == 0 && y == 0) || (x == n - 1 && y == n - 1)) continue;
      if ((x + y) % 2 == 0) {
        p.add_tile("ARM" + std::to_string(arms++), arm, x, y, 64 * 1024,
                   /*process_slots=*/4);
      } else {
        p.add_tile("MONT" + std::to_string(montiums++), montium, x, y,
                   64 * 1024, /*process_slots=*/1);
      }
    }
  }
  return p;
}

std::vector<AppPtr> make_recurring_pool() {
  Rng rng(20080311);  // bench X8's pool seed
  std::vector<AppPtr> pool;
  for (std::uint32_t i = 0; i < 7; ++i) {
    workload::SyntheticAppParams params;
    params.process_count = 2 + i % 3;
    params.with_fixtures = false;
    params.tile_types = {"ARM"};
    params.max_preferred_utilization = 0.22;
    pool.push_back(std::make_shared<const kpn::Application>(
        workload::make_synthetic_app(rng, params,
                                     "pool-" + std::to_string(i))));
  }
  pool.push_back(std::make_shared<const kpn::Application>(
      workload::hiperlan2_mode_variant(workload::kHiperlan2Modes[0].mode)));
  return pool;
}

AppPtr make_malformed_app() {
  kpn::Application app("malformed", kpn::QosConstraints{});
  const ProcessId a = app.add_process("P0");
  const ProcessId b = app.add_process("P1");
  const ChannelId c = app.connect(a, b, 16);
  kpn::Implementation produce;
  produce.name = "P0@ARM";
  produce.tile_type = "ARM";
  produce.wcet_cc = {100};
  produce.outputs.push_back({c, {3}});
  produce.energy_nj_per_symbol = 50.0;
  produce.memory_bytes = 2048;
  app.add_implementation(a, produce);
  kpn::Implementation consume = produce;
  consume.name = "P1@ARM";
  consume.outputs.clear();
  consume.inputs.push_back({c, {3}});
  app.add_implementation(b, consume);
  return std::make_shared<const kpn::Application>(std::move(app));
}

AppPtr make_fresh_app(Rng& rng, std::uint32_t processes, bool fork_join,
                      const std::string& name) {
  workload::SyntheticAppParams params;
  params.process_count = processes;
  params.topology =
      fork_join ? workload::Topology::ForkJoin : workload::Topology::Chain;
  params.min_tokens = 16;
  params.max_tokens = 64;
  params.with_fixtures = false;
  params.tile_types = {"ARM", "MONTIUM"};
  params.impls_min = 2;
  params.impls_max = 2;
  return std::make_shared<const kpn::Application>(
      workload::make_synthetic_app(rng, params, name));
}

AppPtr make_resident_mode(Rng& rng, std::uint32_t processes,
                          const std::string& name) {
  workload::SyntheticAppParams params;
  params.process_count = processes;
  params.max_preferred_utilization = 0.15;
  params.min_tokens = 16;
  params.max_tokens = 64;
  params.with_fixtures = false;
  params.tile_types = {"ARM", "MONTIUM"};
  params.impls_min = 2;
  params.impls_max = 2;
  return std::make_shared<const kpn::Application>(
      workload::make_synthetic_app(rng, params, name));
}

std::vector<AppPtr> make_hiperlan2_modes() {
  std::vector<AppPtr> modes;
  for (const auto& mode : workload::kHiperlan2Modes) {
    modes.push_back(std::make_shared<const kpn::Application>(
        workload::hiperlan2_mode_variant(mode.mode)));
  }
  return modes;
}

}  // namespace perfbench
