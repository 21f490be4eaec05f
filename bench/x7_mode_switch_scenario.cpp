// Extension bench X7: mode-switch scenario — in-place vs. naive.
//
// The paper's run-time premise is that applications arrive, leave and
// *change mode* while the platform is live (the HIPERLAN/2 receiver has
// seven demapping modes). This bench generates one seeded mode-churn +
// priority-mix schedule (runtime::make_mode_churn_schedule) and replays
// it three ways through the admission engine (ConcurrentRuntimeManager):
//   - in-place:   switch_mode() pins the name-matched processes, re-plans
//                 only the delta through the shared step-4 verification
//                 cache, and rolls back to the old mode on misfit (serial
//                 mode, workers = 0);
//   - naive:      release + readmit — the baseline; a failed readmission
//                 loses the application (nothing to roll back to);
//   - concurrent: the in-place path with a 2-worker pool, so arrivals of
//                 one wave race through optimistic validate/commit.
// Compared: losses/rejects, switch latency p50/p95 (the in-place pinned
// replan is cheaper and hits the verification cache), rollback counts,
// preemption activity. The serial-replay oracle must hold after every
// wave of every configuration.
//
// Results are emitted as BENCH_x7.json for the CI perf trail (the CI
// bench-smoke job gates on oracle == "identical").
//
// Flags: --short (CI smoke: fewer waves),
//        --json PATH (default BENCH_x7.json).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/spatial_mapper.hpp"
#include "io/table.hpp"
#include "runtime/scenario.hpp"
#include "runtime/stats_report.hpp"
#include "util/strings.hpp"
#include "workload/hiperlan2.hpp"

namespace {

using namespace rtsm;

/// 6x6 mesh as in bench X6: 10 quad-slot ARM tiles and 10 single-context
/// MONTIUM tiles interleaved, IO tiles named as the HIPERLAN/2 fixtures
/// expect, IO clock 8x so one A/D block paces several receivers.
arch::Platform make_x7_platform() {
  arch::NocParams noc;
  arch::Platform p("x7 mode churn 6x6", 6, 6, noc);
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

struct RunFigures {
  std::string label;
  runtime::ScenarioStats scenario;
  runtime::AdmissionStats manager;
  double verify_hit_rate = 0.0;
  double switch_p50_us = 0.0;
  double switch_p95_us = 0.0;
  /// Full StatsReport::to_json() of the run, embedded in BENCH_x7.json.
  std::string stats_json;
};

RunFigures summarize(std::string label, const runtime::ScenarioStats& s,
                     const runtime::AdmissionStats& m, double hit_rate) {
  RunFigures f;
  f.label = std::move(label);
  f.scenario = s;
  f.manager = m;
  f.verify_hit_rate = hit_rate;
  f.switch_p50_us = s.switch_latency.percentile_us(50);
  f.switch_p95_us = s.switch_latency.percentile_us(95);
  return f;
}

RunFigures run(const arch::Platform& platform,
               const runtime::Schedule& schedule, bool naive,
               std::uint32_t workers, std::string label) {
  runtime::ConcurrentRuntimeManager manager(
      platform, {.mapper = std::make_shared<core::SpatialMapper>()},
      {.workers = workers});
  runtime::ConcurrentTarget target(manager);
  runtime::ScenarioOptions options;
  options.naive_switch = naive;
  runtime::ScenarioDriver driver(target, schedule, options);
  const runtime::ScenarioStats stats = driver.run();
  RunFigures figures = summarize(std::move(label), stats, manager.stats(),
                                 manager.verification_stats().hit_rate());
  figures.stats_json = manager.stats_report().to_json();
  return figures;
}

void print_row(io::TablePrinter& table, const RunFigures& f) {
  const runtime::ScenarioStats& s = f.scenario;
  table.add_row({f.label, std::to_string(s.admitted),
                 std::to_string(s.rejected),
                 std::to_string(s.switches),
                 std::to_string(s.switches_in_place),
                 std::to_string(s.switches_rolled_back),
                 std::to_string(s.naive_switch_losses),
                 rtsm::format_double(f.switch_p50_us, 0),
                 rtsm::format_double(f.switch_p95_us, 0),
                 std::to_string(f.manager.preemption_grants),
                 rtsm::format_double(100.0 * f.verify_hit_rate, 0) + "%",
                 s.oracle_ok ? "ok" : "MISMATCH"});
}

void write_one(std::FILE* f, const char* name, const RunFigures& r) {
  const runtime::ScenarioStats& s = r.scenario;
  std::fprintf(
      f,
      "  \"%s\": {\"arrivals\": %llu, \"admitted\": %llu, "
      "\"rejected\": %llu, \"switches\": %llu, \"in_place\": %llu, "
      "\"replanned\": %llu, \"rolled_back\": %llu, \"losses\": %llu, "
      "\"switch_p50_us\": %.1f, \"switch_p95_us\": %.1f, "
      "\"preemption_grants\": %llu, \"preemption_evictions\": %llu, "
      "\"verify_hit_rate\": %.4f, \"oracle_ok\": %s",
      name, static_cast<unsigned long long>(s.arrivals),
      static_cast<unsigned long long>(s.admitted),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.switches),
      static_cast<unsigned long long>(s.switches_in_place),
      static_cast<unsigned long long>(s.switches_replanned),
      static_cast<unsigned long long>(s.switches_rolled_back),
      static_cast<unsigned long long>(s.naive_switch_losses),
      r.switch_p50_us, r.switch_p95_us,
      static_cast<unsigned long long>(r.manager.preemption_grants),
      static_cast<unsigned long long>(r.manager.preemption_evictions),
      r.verify_hit_rate, s.oracle_ok ? "true" : "false");
  std::fprintf(f, ", \"stats_report\": %s}", r.stats_json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path = "BENCH_x7.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::printf(
      "== X7: mode-switch scenario, in-place vs. naive ==========\n\n");

  const auto platform = make_x7_platform();
  runtime::ScheduleParams params;
  params.waves = short_mode ? 20 : 56;
  params.arrivals_per_wave = 3;
  params.hiperlan_fraction = 0.4;
  params.switch_prob = 0.5;
  params.high_priority_fraction = 0.15;
  const runtime::Schedule schedule =
      runtime::make_mode_churn_schedule(params, /*seed=*/20080310);

  const RunFigures inplace =
      run(platform, schedule, /*naive=*/false, /*workers=*/0, "in-place");
  const RunFigures naive =
      run(platform, schedule, /*naive=*/true, /*workers=*/0, "naive");
  const RunFigures concurrent = run(platform, schedule, /*naive=*/false,
                                    /*workers=*/2, "concurrent in-place");

  io::TablePrinter table({"Switch path", "Admitted", "Rejected", "Switches",
                          "In-place", "Rolled back", "Lost", "sw p50 us",
                          "sw p95 us", "Preempt", "Verify hit", "Oracle"});
  for (std::size_t c = 1; c < 12; ++c) table.align_right(c);
  print_row(table, inplace);
  print_row(table, naive);
  print_row(table, concurrent);
  std::printf("%s\n", table.to_string().c_str());

  const double p95_speedup = inplace.switch_p95_us > 0.0
                                 ? naive.switch_p95_us / inplace.switch_p95_us
                                 : 0.0;
  std::printf(
      "Switch p95: in-place %.0f us vs. naive %.0f us (%.1fx); naive lost "
      "%llu applications, in-place rolled back %llu (kept running).\n\n",
      inplace.switch_p95_us, naive.switch_p95_us, p95_speedup,
      static_cast<unsigned long long>(naive.scenario.naive_switch_losses),
      static_cast<unsigned long long>(
          inplace.scenario.switches_rolled_back));

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"x7_mode_switch_scenario\",\n");
  std::fprintf(f, "  \"waves\": %u,\n", params.waves);
  write_one(f, "inplace", inplace);
  std::fprintf(f, ",\n");
  write_one(f, "naive", naive);
  std::fprintf(f, ",\n");
  write_one(f, "concurrent_inplace", concurrent);
  std::fprintf(
      f,
      ",\n  \"switch_p95_speedup\": %.3f,\n"
      "  \"naive_losses\": %llu,\n"
      "  \"oracle\": \"%s\"\n}\n",
      p95_speedup,
      static_cast<unsigned long long>(naive.scenario.naive_switch_losses),
      inplace.scenario.oracle_ok && naive.scenario.oracle_ok &&
              concurrent.scenario.oracle_ok
          ? "identical"
          : "MISMATCH");
  std::fclose(f);
  std::printf("Wrote %s\n", json_path.c_str());

  std::printf(
      "\nReading: the same seeded mode-churn + priority schedule keeps\n"
      "every stream alive when modes switch in place (misfits roll back\n"
      "to the old mode), while the naive release+readmit baseline loses\n"
      "streams and pays a full replan per switch; the pinned replan's\n"
      "verification-cache hits show up as the lower switch p95.\n");
  return 0;
}
