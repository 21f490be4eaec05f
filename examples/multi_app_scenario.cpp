// Run-time resource management scenario: applications start and stop on a
// shared MPSoC. Each admission is mapped against the *actual* residual
// resources — the core motivation for moving spatial mapping from design
// time to run time (paper, Section 1). The admission engine
// (ConcurrentRuntimeManager, here in its serial mode: workers = 0) owns the
// resource state; its retry policy parks an application that does not fit
// yet and admits it automatically when capacity is released.

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>

#include "core/spatial_mapper.hpp"
#include "runtime/concurrent_manager.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rtsm;

void show(const runtime::ConcurrentRuntimeManager& manager) {
  const core::ResourceState state = manager.state_snapshot();
  std::printf("  running=%zu, waiting=%zu, idle tiles=%zu, total energy="
              "%.1f nJ/symbol, NoC reserved=%.1f Mtokens/s\n\n",
              manager.running_count(), manager.waiting_count(),
              state.idle_tile_count(), manager.total_energy_nj_per_symbol(),
              state.links().total_reserved() / 1e6);
}

const char* status_name(runtime::AdmitStatus status) {
  switch (status) {
    case runtime::AdmitStatus::Admitted:
      return "admitted";
    case runtime::AdmitStatus::Waiting:
      return "parked until resources free up";
    case runtime::AdmitStatus::DeadlineMiss:
      return "deadline miss";
    case runtime::AdmitStatus::Rejected:
      break;
  }
  return "rejected";
}

}  // namespace

int main() {
  using namespace rtsm;

  // A larger 4x4 platform with the paper's tile types plus IO.
  Rng rng(2024);
  workload::SyntheticPlatformParams pp;
  pp.width = 4;
  pp.height = 4;
  pp.type_counts = {{"ARM", 5}, {"DSP", 5}};
  pp.process_slots = 2;
  pp.random_placement = false;
  const arch::Platform platform =
      workload::make_synthetic_platform(rng, pp, "shared 4x4 MPSoC");

  runtime::ConcurrentRuntimeManager manager(
      platform,
      {.mapper = std::make_shared<core::SpatialMapper>(),
       .policy = std::make_shared<runtime::RetryAdmission>(/*max_attempts=*/4)},
      {.workers = 0});

  std::printf("== t0: platform boots idle =================================\n");
  show(manager);

  std::printf("== t1: video decoder starts ================================\n");
  workload::SyntheticAppParams video;
  video.process_count = 5;
  video.topology = workload::Topology::ForkJoin;
  video.tile_types = {"ARM", "DSP"};
  const auto video_app = workload::make_synthetic_app(rng, video, "video");
  const auto video_run = manager.admit(video_app);
  std::printf("  admitted=%s, energy=%.1f nJ/symbol, mapped in %.0f us\n",
              video_run.status == runtime::AdmitStatus::Admitted ? "yes" : "no",
              video_run.mapping.energy_nj_per_symbol, video_run.mapping_us);
  show(manager);

  std::printf("== t2: audio pipeline starts (sees residual resources) =====\n");
  workload::SyntheticAppParams audio;
  audio.process_count = 3;
  audio.tile_types = {"DSP", "ARM"};
  audio.max_preferred_utilization = 0.3;
  const auto audio_app = workload::make_synthetic_app(rng, audio, "audio");
  const auto audio_run = manager.admit(audio_app);
  std::printf("  admitted=%s, energy=%.1f nJ/symbol\n",
              audio_run.status == runtime::AdmitStatus::Admitted ? "yes" : "no",
              audio_run.mapping.energy_nj_per_symbol);
  show(manager);

  std::printf(
      "== t3: a greedy application is parked by the retry policy ====\n");
  workload::SyntheticAppParams big;
  big.process_count = 14;
  big.tile_types = {"ARM", "DSP"};
  // submit() hands back a future; a parked request's future resolves after
  // a later release readmits it.
  std::future<runtime::AdmitOutcome> big_run = manager.submit(
      std::make_shared<kpn::Application>(
          workload::make_synthetic_app(rng, big, "bulk")));
  manager.pump();
  const bool parked =
      big_run.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
  const runtime::AdmitStatus big_status =
      parked ? runtime::AdmitStatus::Waiting : big_run.get().status;
  std::printf("  admitted=%s (status: %s)\n",
              big_status == runtime::AdmitStatus::Admitted ? "yes" : "no",
              status_name(big_status));
  show(manager);

  std::printf(
      "== t4: video stops; the parked application is re-admitted ====\n");
  manager.release(video_run.app_id);
  manager.pump();
  if (parked) {
    const runtime::AdmitOutcome outcome = big_run.get();
    std::printf("  deferred request %llu resolved: admitted=%s, energy=%.1f "
                "nJ/symbol after %u attempt(s)\n",
                static_cast<unsigned long long>(outcome.request),
                outcome.status == runtime::AdmitStatus::Admitted ? "yes" : "no",
                outcome.mapping.energy_nj_per_symbol, outcome.attempts);
  }
  show(manager);

  const runtime::AdmissionStats stats = manager.stats();
  std::printf("Admission statistics: offered=%llu admitted=%llu rejected=%llu "
              "retries=%llu releases=%llu; mapping latency p50=%.0f us "
              "p99=%.0f us\n\n",
              static_cast<unsigned long long>(stats.offered),
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.releases),
              stats.latency_percentile_us(50), stats.latency_percentile_us(99));

  std::printf("Run-time mapping admitted a workload that a static worst-case\n"
              "reservation would have refused outright — and the admission\n"
              "manager needed no manual retry to do it.\n");
  return 0;
}
