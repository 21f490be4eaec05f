// The admission engine's serial mode (ConcurrentRuntimeManager with
// workers = 0): nothing runs until the caller pumps, so every test here is
// deterministic.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>

#include "core/spatial_mapper.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/stats_report.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rtsm::runtime {
namespace {

std::shared_ptr<const core::SpatialMapper> paper_mapper() {
  return std::make_shared<core::SpatialMapper>();
}

ConcurrentRuntimeManager make_manager(
    const arch::Platform& platform,
    std::shared_ptr<const AdmissionPolicy> policy =
        std::make_shared<FirstFitAdmission>()) {
  return ConcurrentRuntimeManager(
      platform, {.mapper = paper_mapper(), .policy = std::move(policy)},
      {.workers = 0});
}

bool ready(const std::future<AdmitOutcome>& future) {
  return future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

/// Two IO slots per IO tile and two single-slot BIG tiles: one-stage
/// BIG-only apps contend for the BIG tiles only.
arch::Platform two_big_tiles() {
  return test::small_platform(200'000'000, 200'000'000, 64 * 1024,
                              /*io_slots=*/4);
}

kpn::Application one_big_stage() {
  test::PipelineSpec spec;
  spec.stages = 1;
  spec.little_wcet_cc = 0;
  return test::pipeline_app(spec);
}

TEST(SerialMode, AdmitsAndReleases) {
  const auto platform = test::small_platform();
  auto manager = make_manager(platform);
  const auto app = test::pipeline_app({.stages = 2});

  const auto started = manager.admit(app);
  ASSERT_EQ(started.status, AdmitStatus::Admitted) << started.mapping.failure;
  EXPECT_EQ(manager.running_count(), 1u);
  EXPECT_GT(manager.total_energy_nj_per_symbol(), 0.0);
  EXPECT_GT(started.mapping_us, 0.0);

  manager.release(started.app_id);
  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_DOUBLE_EQ(manager.total_energy_nj_per_symbol(), 0.0);
  const core::ResourceState state = manager.state_snapshot();
  for (const TileId tid : platform.tile_ids()) {
    EXPECT_DOUBLE_EQ(state.utilization(tid), 0.0);
  }
}

TEST(SerialMode, AdmitAdmitReleaseReadmitRestoresResources) {
  // IO tiles accept several fixtures; each app then contends for one of
  // the two single-slot BIG tiles.
  const auto platform = two_big_tiles();
  auto manager = make_manager(platform);
  const auto app = one_big_stage();

  const auto first = manager.admit(app);
  ASSERT_EQ(first.status, AdmitStatus::Admitted) << first.mapping.failure;
  const auto second = manager.admit(app);
  ASSERT_EQ(second.status, AdmitStatus::Admitted) << second.mapping.failure;
  // Both BIG tiles occupied now: a third must be rejected.
  const auto third = manager.admit(app);
  EXPECT_EQ(third.status, AdmitStatus::Rejected);
  EXPECT_EQ(manager.running_count(), 2u);

  // The two running instances use distinct BIG tiles.
  const ProcessId s0 = app.process_by_name("S0");
  EXPECT_NE(first.mapping.mapping.tile_of(s0),
            second.mapping.mapping.tile_of(s0));

  // Release one instance, verify its tile's resources are fully restored,
  // and re-admit.
  const TileId freed = first.mapping.mapping.tile_of(s0);
  EXPECT_GT(manager.state_snapshot().utilization(freed), 0.0);
  manager.release(first.app_id);
  const core::ResourceState state = manager.state_snapshot();
  EXPECT_DOUBLE_EQ(state.utilization(freed), 0.0);
  EXPECT_EQ(state.memory_used(freed), 0u);
  EXPECT_EQ(state.processes_hosted(freed), 0u);

  const auto fourth = manager.admit(app);
  EXPECT_EQ(fourth.status, AdmitStatus::Admitted);
  EXPECT_EQ(fourth.mapping.mapping.tile_of(s0), freed);
}

TEST(SerialMode, StatsCountersAreExact) {
  const auto platform = two_big_tiles();
  auto manager = make_manager(platform);
  const auto app = one_big_stage();

  const auto a = manager.admit(app);   // admitted
  const auto b = manager.admit(app);   // admitted
  manager.admit(app);                  // rejected: both BIG tiles full
  manager.release(a.app_id);
  manager.admit(app);                  // admitted again

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, 4u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.releases, 1u);
  EXPECT_EQ(stats.latencies.count(), 4u);
  EXPECT_GT(stats.latency_percentile_us(50), 0.0);
  EXPECT_GE(stats.latency_percentile_us(100), stats.latency_percentile_us(1));
  (void)b;
}

TEST(SerialMode, RejectedAppLeavesNoResidue) {
  const auto platform = test::small_platform();
  auto manager = make_manager(platform);
  // Impossible: 5 BIG-only stages on 2 BIG tiles.
  const auto app = test::pipeline_app({.stages = 5, .little_wcet_cc = 0});
  const auto result = manager.admit(app);
  EXPECT_EQ(result.status, AdmitStatus::Rejected);
  EXPECT_EQ(manager.running_count(), 0u);
  const core::ResourceState state = manager.state_snapshot();
  for (const TileId tid : platform.tile_ids()) {
    EXPECT_DOUBLE_EQ(state.utilization(tid), 0.0);
  }
  EXPECT_DOUBLE_EQ(state.links().total_reserved(), 0.0);
}

TEST(SerialMode, RetryPolicyParksAndReadmitsAfterRelease) {
  // admit() of a request the retry policy parks must return Waiting with
  // the request's id: only this thread pumps, so blocking on the future
  // would deadlock it.
  const auto platform = two_big_tiles();
  auto manager = make_manager(platform, std::make_shared<RetryAdmission>(3));
  const auto app = one_big_stage();

  const auto a = manager.admit(app);
  const auto b = manager.admit(app);
  ASSERT_EQ(a.status, AdmitStatus::Admitted);
  ASSERT_EQ(b.status, AdmitStatus::Admitted);

  // Saturated: the third request is parked, not rejected.
  const auto parked = manager.admit(app);
  EXPECT_EQ(parked.status, AdmitStatus::Waiting);
  EXPECT_EQ(parked.request, b.request + 1);
  EXPECT_EQ(manager.waiting_count(), 1u);
  EXPECT_EQ(manager.stats().rejected, 0u);

  // A release wakes the parked request; the next pump admits it.
  manager.release(a.app_id);
  manager.pump();
  EXPECT_EQ(manager.waiting_count(), 0u);
  EXPECT_EQ(manager.stats().retries, 1u);
  EXPECT_EQ(manager.stats().admitted, 3u);
  EXPECT_EQ(manager.running_count(), 2u);
  // The readmitted instance is labelled with the parked request's id.
  const std::string label = "#" + std::to_string(parked.request);
  std::size_t labelled = 0;
  for (const AppId id : manager.running_ids()) {
    const std::string name = manager.display_name(id);
    if (name.size() >= label.size() &&
        name.compare(name.size() - label.size(), label.size(), label) == 0) {
      ++labelled;
    }
  }
  EXPECT_EQ(labelled, 1u);
}

TEST(SerialMode, WokenRequestResolvesItsFuture) {
  // A parked request's outcome — with its new app id and both attempts —
  // arrives through its future once a release wakes it and a pump runs.
  const auto platform = two_big_tiles();
  auto manager = make_manager(platform, std::make_shared<RetryAdmission>(3));
  const auto app = one_big_stage();

  const auto a = manager.admit(app);
  const auto b = manager.admit(app);
  ASSERT_EQ(a.status, AdmitStatus::Admitted);
  ASSERT_EQ(b.status, AdmitStatus::Admitted);
  auto parked = manager.submit(std::make_shared<kpn::Application>(app));
  manager.pump();
  ASSERT_FALSE(ready(parked));

  manager.release(a.app_id);  // re-queues the parked request
  EXPECT_FALSE(ready(parked));
  manager.pump();
  ASSERT_TRUE(ready(parked));
  const AdmitOutcome outcome = parked.get();
  EXPECT_EQ(outcome.status, AdmitStatus::Admitted);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_TRUE(outcome.app_id.valid());
  EXPECT_EQ(manager.running_count(), 2u);
}

TEST(SerialMode, UnknownReleaseBetweenAdmissionsIsReportedNotFatal) {
  // An unknown-id release must not disturb the admissions around it: the
  // queued admission resolves normally and the failed release surfaces as
  // a recorded ReleaseError.
  const auto platform = test::small_platform();
  auto manager = make_manager(platform);
  auto future = manager.submit(
      std::make_shared<kpn::Application>(test::pipeline_app({.stages = 1})));
  EXPECT_FALSE(manager.release(AppId{99}));
  manager.pump();
  const AdmitOutcome outcome = future.get();
  EXPECT_EQ(outcome.status, AdmitStatus::Admitted);
  EXPECT_EQ(manager.running_count(), 1u);

  EXPECT_EQ(manager.stats().release_errors, 1u);
  const auto errors = manager.drain_release_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].id, AppId{99});
  EXPECT_FALSE(errors[0].message.empty());
  EXPECT_TRUE(manager.drain_release_errors().empty());  // drained once
}

TEST(SerialMode, ReleaseSucceedsDespiteAnotherClientsBadRelease) {
  // A bad release by someone else must not make an unrelated -- and
  // successful -- release fail, nor lose its record.
  const auto platform = test::small_platform();
  auto manager = make_manager(platform);
  const auto started = manager.admit(test::pipeline_app({.stages = 1}));
  ASSERT_EQ(started.status, AdmitStatus::Admitted);

  EXPECT_FALSE(manager.release(AppId{99}));  // someone else's blunder
  EXPECT_TRUE(manager.release(started.app_id));
  EXPECT_EQ(manager.running_count(), 0u);  // this release did happen
  const auto errors = manager.drain_release_errors();
  ASSERT_EQ(errors.size(), 1u);  // the other error is still reported
  EXPECT_EQ(errors[0].id, AppId{99});
}

TEST(SerialMode, DoubleReleaseIsReportedError) {
  const auto platform = test::small_platform();
  auto manager = make_manager(platform);
  const auto started = manager.admit(test::pipeline_app({.stages = 1}));
  ASSERT_EQ(started.status, AdmitStatus::Admitted);

  EXPECT_TRUE(manager.release(started.app_id));  // first release is fine
  // The second is reported — recorded error + counter + false, never a
  // throw.
  EXPECT_FALSE(manager.release(started.app_id));
  EXPECT_EQ(manager.stats().releases, 1u);
  EXPECT_EQ(manager.stats().release_errors, 1u);
  const auto errors = manager.drain_release_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].id, started.app_id);

  EXPECT_FALSE(manager.release(started.app_id));
  EXPECT_EQ(manager.stats().release_errors, 2u);
  const auto again = manager.drain_release_errors();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].id, started.app_id);
}

TEST(SerialMode, ReleaseWakesMoreParkedRequestsThanTheQueueHolds) {
  // Nobody else drains the queue, so re-queueing three parked requests
  // into a two-slot queue must pump inline instead of blocking release().
  const auto platform = two_big_tiles();
  ConcurrentRuntimeManager manager(
      platform,
      {.mapper = paper_mapper(),
       .policy = std::make_shared<RetryAdmission>(5)},
      {.workers = 0, .queue_capacity = 2, .max_batch = 2});
  const auto app = one_big_stage();
  const auto a = manager.admit(app);
  ASSERT_EQ(a.status, AdmitStatus::Admitted);
  ASSERT_EQ(manager.admit(app).status, AdmitStatus::Admitted);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(manager.admit(app).status, AdmitStatus::Waiting);
  }
  ASSERT_EQ(manager.waiting_count(), 3u);

  EXPECT_TRUE(manager.release(a.app_id));
  manager.pump();
  // One woken request took the freed tile; the other two parked again.
  EXPECT_EQ(manager.running_count(), 2u);
  EXPECT_EQ(manager.waiting_count(), 2u);
  EXPECT_EQ(manager.stats().retries, 3u);
}

TEST(SerialMode, RetryPolicyGivesUpAfterMaxAttempts) {
  const auto platform = test::small_platform();
  auto manager = make_manager(
      platform, std::make_shared<RetryAdmission>(/*max_attempts=*/2));
  // Never fits: 5 BIG-only stages on 2 BIG tiles.
  auto parked = manager.submit(std::make_shared<kpn::Application>(
      test::pipeline_app({.stages = 5, .little_wcet_cc = 0})));
  manager.pump();
  ASSERT_FALSE(ready(parked));
  EXPECT_EQ(manager.waiting_count(), 1u);

  // Admit + release a small app to trigger a retry; the second (= max)
  // attempt fails and the request is finally rejected.
  const auto small =
      manager.admit(test::pipeline_app({.stages = 1, .little_wcet_cc = 0}));
  ASSERT_EQ(small.status, AdmitStatus::Admitted);
  manager.release(small.app_id);
  manager.pump();
  ASSERT_TRUE(ready(parked));
  const AdmitOutcome outcome = parked.get();
  EXPECT_EQ(outcome.status, AdmitStatus::Rejected);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(manager.waiting_count(), 0u);
}

TEST(SerialMode, BatchedReleasesWakeParkedRequestsOnlyOnce) {
  // A parked request needing BOTH BIG tiles must not burn its last retry
  // attempt between two back-to-back releases: releases only re-queue it,
  // and the pump after the second release retries it once.
  const auto platform = two_big_tiles();
  auto manager = make_manager(
      platform, std::make_shared<RetryAdmission>(/*max_attempts=*/2));
  const auto small = one_big_stage();

  const auto a = manager.admit(small);
  const auto b = manager.admit(small);
  ASSERT_EQ(a.status, AdmitStatus::Admitted);
  ASSERT_EQ(b.status, AdmitStatus::Admitted);
  auto parked = manager.submit(std::make_shared<kpn::Application>(
      test::pipeline_app({.stages = 2, .little_wcet_cc = 0})));
  manager.pump();
  ASSERT_FALSE(ready(parked));  // needs both BIG tiles

  manager.release(a.app_id);
  manager.release(b.app_id);
  manager.pump();
  ASSERT_TRUE(ready(parked));
  const AdmitOutcome outcome = parked.get();
  EXPECT_EQ(outcome.status, AdmitStatus::Admitted);
  EXPECT_EQ(outcome.attempts, 2u);  // one retry, after both releases
}

TEST(SerialMode, QueuedArrivalsAreProcessedInArrivalOrder) {
  const auto platform = two_big_tiles();
  auto manager = make_manager(platform);
  const auto app = std::make_shared<kpn::Application>(one_big_stage());

  auto f1 = manager.submit(app);
  auto f2 = manager.submit(app);
  auto f3 = manager.submit(app);  // no capacity by its turn
  EXPECT_EQ(manager.queued_count(), 3u);
  manager.pump();
  EXPECT_EQ(manager.queued_count(), 0u);
  const AdmitOutcome r1 = f1.get();
  const AdmitOutcome r2 = f2.get();
  const AdmitOutcome r3 = f3.get();
  EXPECT_LT(r1.request, r2.request);
  EXPECT_LT(r2.request, r3.request);
  EXPECT_EQ(r1.status, AdmitStatus::Admitted);
  EXPECT_EQ(r2.status, AdmitStatus::Admitted);
  EXPECT_EQ(r3.status, AdmitStatus::Rejected);
}

TEST(SerialMode, DeadlineMissNotAdmitted) {
  const auto platform = test::small_platform();
  auto manager = make_manager(platform);
  const auto app = test::pipeline_app({.stages = 2});
  // An absurdly small wall-clock budget: any real mapping run exceeds it.
  const auto result = manager.admit(app, /*deadline_us=*/1e-3);
  EXPECT_EQ(result.status, AdmitStatus::DeadlineMiss);
  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_EQ(manager.stats().deadline_misses, 1u);
  const core::ResourceState state = manager.state_snapshot();
  for (const TileId tid : platform.tile_ids()) {
    EXPECT_DOUBLE_EQ(state.utilization(tid), 0.0);
  }
}

TEST(SerialMode, ReleaseUnknownIdIsRecordedNotThrown) {
  const auto platform = test::small_platform();
  auto manager = make_manager(platform);
  EXPECT_FALSE(manager.release(AppId{99}));
  EXPECT_EQ(manager.stats().release_errors, 1u);
  const auto errors = manager.drain_release_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].id, AppId{99});

  // The JSON report names the failed release by its app id only.
  EXPECT_FALSE(manager.release(AppId{5}));
  const std::string json = manager.stats_report().to_json();
  const std::string::size_type entry = json.find("\"release_errors\":[{");
  ASSERT_NE(entry, std::string::npos) << json;
  const std::string errors_json = json.substr(entry);
  EXPECT_NE(errors_json.find("{\"id\":5,"), std::string::npos) << json;
  EXPECT_EQ(errors_json.find("\"request\""), std::string::npos) << json;
}

TEST(SerialMode, IdsAreUniqueAcrossRestarts) {
  const auto platform = test::small_platform();
  auto manager = make_manager(platform);
  test::PipelineSpec spec;
  spec.stages = 1;
  const auto app = test::pipeline_app(spec);
  const auto a = manager.admit(app);
  ASSERT_EQ(a.status, AdmitStatus::Admitted);
  manager.release(a.app_id);
  const auto b = manager.admit(app);
  ASSERT_EQ(b.status, AdmitStatus::Admitted);
  EXPECT_NE(a.app_id, b.app_id);
}

TEST(SerialMode, MappingOfAndRunningIds) {
  const auto platform = test::small_platform();
  auto manager = make_manager(platform);
  const auto app = test::pipeline_app({.stages = 2});
  const auto started = manager.admit(app);
  ASSERT_EQ(started.status, AdmitStatus::Admitted);
  const auto ids = manager.running_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], started.app_id);
  EXPECT_TRUE(manager.mapping_of(ids[0]).all_assigned());
  EXPECT_THROW((void)manager.mapping_of(AppId{1234}), Error);
}

TEST(SerialMode, RejectWaitingResolvesParkedRequests) {
  const auto platform = test::small_platform();
  auto manager = make_manager(platform, std::make_shared<RetryAdmission>(5));
  const auto impossible =
      test::pipeline_app({.stages = 5, .little_wcet_cc = 0});
  const auto parked = manager.admit(impossible);
  ASSERT_EQ(parked.status, AdmitStatus::Waiting);
  const auto resolved = manager.reject_waiting();
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].request, parked.request);
  EXPECT_EQ(resolved[0].status, AdmitStatus::Rejected);
  EXPECT_EQ(manager.stats().rejected, 1u);
  EXPECT_EQ(manager.waiting_count(), 0u);
}

}  // namespace
}  // namespace rtsm::runtime
