// Mode switches and priority classes at run time: the paper's HIPERLAN/2
// receiver changes its demapping mode while it runs (Section 2). Instead
// of release + readmit — which loses the stream when the readmission
// fails — ConcurrentRuntimeManager::switch_mode() pins the processes both
// modes share to their current tiles, re-plans only the delta, and rolls
// back to the old mode when the new one does not fit. A high-priority arrival
// that finds the platform full may evict lower-priority preemptible
// applications (they are re-parked, not dropped).

#include <cstdio>
#include <memory>

#include "core/spatial_mapper.hpp"
#include "runtime/concurrent_manager.hpp"
#include "workload/hiperlan2.hpp"

namespace {

using namespace rtsm;

const char* status_name(runtime::SwitchStatus status) {
  switch (status) {
    case runtime::SwitchStatus::InPlace:
      return "in-place";
    case runtime::SwitchStatus::Replanned:
      return "replanned";
    case runtime::SwitchStatus::RolledBack:
      return "rolled back";
    case runtime::SwitchStatus::UnknownId:
      return "unknown id";
    case runtime::SwitchStatus::DeadlineMiss:
      return "deadline miss";
  }
  return "?";
}

/// A two-stage ARM filler claiming most of one tile: preemption fodder.
kpn::Application filler(const std::string& name) {
  kpn::QosConstraints qos;
  qos.symbol_period_ns = 4000;
  kpn::Application app(name, qos);
  const ProcessId p0 = app.add_process("F0");
  const ProcessId p1 = app.add_process("F1");
  const ChannelId ch = app.connect(p0, p1, 16);
  for (const ProcessId pid : {p0, p1}) {
    kpn::Implementation im;
    im.name = app.process(pid).name + "@ARM";
    im.tile_type = "ARM";
    im.wcet_cc = {300};  // 0.375 of the 4 us period at 200 MHz
    if (pid == p0) {
      im.outputs = {{ch, {16}}};
    } else {
      im.inputs = {{ch, {16}}};
    }
    im.energy_nj_per_symbol = 150.0;
    im.memory_bytes = 8 * 1024;
    app.add_implementation(pid, std::move(im));
  }
  app.validate();
  return app;
}

}  // namespace

int main() {
  using namespace rtsm;

  const arch::Platform platform = workload::make_paper_platform();
  runtime::ConcurrentRuntimeManager manager(
      platform, {.mapper = std::make_shared<core::SpatialMapper>()},
      {.workers = 0});

  std::printf("== the receiver sweeps its demapping modes in place =======\n");
  // The receiver is the protected stream: mid priority, not preemptible.
  const auto start = manager.admit(
      workload::hiperlan2_mode_variant(workload::kHiperlan2Modes.front().mode),
      0.0, runtime::RequestClass{5, false});
  if (start.status != runtime::AdmitStatus::Admitted) {
    std::printf("admission failed: %s\n", start.mapping.failure.c_str());
    return 1;
  }
  std::printf("admitted %s\n",
              manager.display_name(start.app_id).c_str());

  for (std::size_t i = 1; i < workload::kHiperlan2Modes.size(); ++i) {
    const auto& mode = workload::kHiperlan2Modes[i];
    const auto out = manager.switch_mode(
        start.app_id, std::make_shared<kpn::Application>(
                          workload::hiperlan2_mode_variant(mode.mode)));
    std::printf(
        "  -> %-10s %-11s pinned=%u moved=%u, migration %.1f us, "
        "switch %.0f us\n",
        mode.name.data(), status_name(out.status), out.pinned, out.moved,
        out.migration_cost_us, out.switch_us);
  }
  const runtime::AdmissionStats stats = manager.stats();
  std::printf(
      "switches: %llu (%llu in place, %llu replanned, %llu rolled back), "
      "p95 switch latency %.0f us\n\n",
      static_cast<unsigned long long>(stats.mode_switches),
      static_cast<unsigned long long>(stats.switches_in_place),
      static_cast<unsigned long long>(stats.switches_replanned),
      static_cast<unsigned long long>(stats.switches_rolled_back),
      stats.switch_latencies.percentile_us(95));

  std::printf("== a high-priority arrival preempts the fillers ===========\n");
  // A small dedicated ARM pool: two 2-slot tiles, each filler claims one.
  arch::Platform pool("ARM pool 2x1", 2, 1);
  const TileTypeId arm = pool.add_tile_type("ARM", 200'000'000);
  pool.add_tile("P0", arm, 0, 0, 64 * 1024, /*process_slots=*/2);
  pool.add_tile("P1", arm, 1, 0, 64 * 1024, /*process_slots=*/2);
  runtime::ConcurrentRuntimeManager pool_manager(
      pool, {.mapper = std::make_shared<core::SpatialMapper>()},
      {.workers = 0});

  const auto f1 = pool_manager.admit(filler("background-1"));
  const auto f2 = pool_manager.admit(filler("background-2"));
  std::printf("fillers admitted: %d %d — the pool is now full\n",
              f1.status == runtime::AdmitStatus::Admitted,
              f2.status == runtime::AdmitStatus::Admitted);

  const auto urgent = pool_manager.admit(filler("urgent"), 0.0,
                                         runtime::RequestClass{10, false});
  std::printf(
      "urgent arrival: %s (evicted %llu lower-priority apps, re-parked "
      "%zu)\n",
      urgent.status == runtime::AdmitStatus::Admitted ? "admitted"
                                                      : "rejected",
      static_cast<unsigned long long>(
          pool_manager.stats().preemption_evictions),
      pool_manager.waiting_count());

  pool_manager.release(urgent.app_id);
  pool_manager.pump();
  std::printf(
      "after the urgent app leaves, %llu parked victim(s) were readmitted; "
      "running=%zu\n",
      static_cast<unsigned long long>(pool_manager.stats().retries),
      pool_manager.running_count());
  return 0;
}
