#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/spatial_mapper.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/request_queue.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rtsm::runtime {
namespace {

std::shared_ptr<const core::SpatialMapper> paper_mapper() {
  return std::make_shared<core::SpatialMapper>();
}

/// A row of four single-slot compute tiles with IO tiles at the ends (the
/// same fragmentation fixture as defrag_test): one-stage apps occupy one
/// compute tile each, so releases leave scattered holes a defrag pass can
/// compact.
arch::Platform row_platform() {
  arch::Platform p("defrag 4x2", 4, 2);
  const TileTypeId big = p.add_tile_type("BIG", 200'000'000);
  const TileTypeId io = p.add_tile_type("IO", 200'000'000);
  p.add_tile("C0", big, 0, 0, 64 * 1024);
  p.add_tile("C1", big, 1, 0, 64 * 1024);
  p.add_tile("C2", big, 2, 0, 64 * 1024);
  p.add_tile("C3", big, 3, 0, 64 * 1024);
  p.add_tile("SRC", io, 0, 1, 64 * 1024, /*process_slots=*/8);
  p.add_tile("DST", io, 3, 1, 64 * 1024, /*process_slots=*/8);
  return p;
}

/// 4x3 mesh of twelve single-slot compute tiles, BIG and LITTLE in a
/// checkerboard: room for several fixture-less pipelines at once.
arch::Platform roomy_platform() {
  arch::Platform p("roomy 4x3", 4, 3);
  const TileTypeId big = p.add_tile_type("BIG", 200'000'000);
  const TileTypeId little = p.add_tile_type("LITTLE", 200'000'000);
  for (std::uint32_t y = 0; y < 3; ++y) {
    for (std::uint32_t x = 0; x < 4; ++x) {
      p.add_tile("T" + std::to_string(x) + std::to_string(y),
                 (x + y) % 2 == 0 ? big : little, x, y, 64 * 1024);
    }
  }
  return p;
}

kpn::Application fixture_app(std::uint32_t stages) {
  test::PipelineSpec spec;
  spec.stages = stages;
  spec.little_wcet_cc = 0;  // BIG only
  return test::pipeline_app(spec);
}

DefragOptions on_release_defrag(double threshold = 0.3) {
  DefragOptions defrag;
  defrag.policy = DefragPolicy::OnReleaseThreshold;
  defrag.fragmentation_threshold = threshold;
  return defrag;
}

kpn::Application compute_app(std::uint32_t stages,
                             std::uint32_t little_wcet_cc = 400) {
  test::PipelineSpec spec;
  spec.stages = stages;  // >= 2: a fixture-less app needs >= 1 channel
  spec.little_wcet_cc = little_wcet_cc;
  spec.with_fixtures = false;  // pure compute: no shared IO-tile fixtures
  return test::pipeline_app(spec);
}

/// Replays the still-running applications' commits serially into a fresh
/// ResourceState; the concurrent manager's live state must match it. This
/// is the correctness oracle of every stress test: whatever interleaving
/// happened, the booked state must equal a serial replay of the surviving
/// reservations.
void expect_state_equals_serial_replay(const arch::Platform& platform,
                                       const ConcurrentRuntimeManager& cm) {
  core::ResourceState replayed(platform);
  for (const AppId id : cm.running_ids()) {
    core::commit_mapping(replayed, *cm.app_of(id), cm.mapping_of(id));
  }
  EXPECT_TRUE(cm.state_snapshot().approx_equals(replayed))
      << "concurrent bookkeeping diverged from a serial replay";
}

TEST(BoundedQueue, PushPopBatchCloseSemantics) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  int three = 3;
  EXPECT_FALSE(q.try_push(std::move(three)));  // full
  EXPECT_EQ(q.size(), 2u);

  const auto batch = q.try_pop_batch(8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  EXPECT_TRUE(q.try_pop_batch(8).empty());

  EXPECT_TRUE(q.try_push(4));
  q.close();
  int five = 5;
  EXPECT_FALSE(q.push(std::move(five)));  // closed, item untouched
  EXPECT_EQ(five, 5);
  const auto rest = q.pop_batch(8);  // drains the remainder, no block
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], 4);
  EXPECT_TRUE(q.pop_batch(8).empty());  // closed + empty = end of stream
}

TEST(ConcurrentRuntimeManager, AdmitsAndReleasesWithWorkerPool) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(platform, {.mapper = paper_mapper()},
                                   {.workers = 2, .queue_capacity = 16});
  const auto started = manager.admit(compute_app(2));
  ASSERT_EQ(started.status, AdmitStatus::Admitted) << started.mapping.failure;
  EXPECT_EQ(manager.running_count(), 1u);
  EXPECT_GT(manager.total_energy_nj_per_symbol(), 0.0);

  EXPECT_TRUE(manager.release(started.app_id));
  EXPECT_EQ(manager.running_count(), 0u);
  for (const TileId tid : platform.tile_ids()) {
    EXPECT_DOUBLE_EQ(manager.state_snapshot().utilization(tid), 0.0);
  }
}

TEST(ConcurrentRuntimeManager, EightThreadAdmitReleaseStress) {
  // The TSan target: 8 client threads hammer admit/release against a
  // 4-worker pool. Afterwards the live state must equal a serial replay of
  // the surviving reservations and every counter must balance.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 4, .queue_capacity = 32, .max_batch = 4});
  const auto app = compute_app(2);  // two 2-stage apps fill the 4 tiles

  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kIterations = 8;
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> released{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<AppId> mine;
      for (std::uint32_t i = 0; i < kIterations; ++i) {
        const auto outcome = manager.admit(app);
        if (outcome.status == AdmitStatus::Admitted) {
          admitted.fetch_add(1);
          mine.push_back(outcome.app_id);
        }
        // Alternate clients release eagerly so capacity churns.
        if ((t + i) % 2 == 0 && !mine.empty()) {
          ASSERT_TRUE(manager.release(mine.front()));
          released.fetch_add(1);
          mine.erase(mine.begin());
        }
      }
      for (const AppId id : mine) {
        ASSERT_TRUE(manager.release(id));
        released.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, kThreads * kIterations);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.releases, released.load());
  EXPECT_EQ(stats.release_errors, 0u);
  EXPECT_EQ(stats.admitted + stats.rejected + stats.deadline_misses,
            stats.offered);
  EXPECT_EQ(stats.latencies.count(), stats.offered);
  EXPECT_EQ(manager.running_count(), stats.admitted - stats.releases);

  // Everything was released: the platform must be pristine again.
  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_TRUE(
      manager.state_snapshot().approx_equals(core::ResourceState(platform)));
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, StressWithoutReleasesMatchesSerialReplay) {
  // Saturate the platform from 8 threads with no churn: whatever subset of
  // requests won the race, the final state must replay serially.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 4, .queue_capacity = 64, .max_batch = 8});
  const auto app = compute_app(2);

  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (std::uint32_t i = 0; i < 4; ++i) (void)manager.admit(app);
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  EXPECT_GT(manager.running_count(), 0u);  // some must fit on 4 tiles
  expect_state_equals_serial_replay(platform, manager);
  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, 32u);
  EXPECT_EQ(stats.admitted + stats.rejected, 32u);
}

TEST(ConcurrentRuntimeManager, InlinePumpFromManyThreads) {
  // workers == 0: the callers themselves pump the queue; racing pumps must
  // not lose or double-process requests.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 0, .queue_capacity = 64, .max_batch = 4});
  const auto app = compute_app(2);

  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (std::uint32_t i = 0; i < 4; ++i) (void)manager.admit(app);
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, 16u);
  EXPECT_EQ(stats.admitted + stats.rejected, 16u);
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, InlineSubmitPumpsWhenQueueFull) {
  // workers == 0 with a tiny queue: submit() has no consumer to wait for,
  // so it must make room by pumping inline instead of deadlocking.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 0, .queue_capacity = 2, .max_batch = 2});
  const auto app = std::make_shared<kpn::Application>(compute_app(2));

  std::vector<std::future<AdmitOutcome>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(manager.submit(app));
  manager.pump();
  manager.wait_idle();
  for (auto& f : futures) {
    EXPECT_NE(f.get().status, AdmitStatus::Waiting);
  }
  EXPECT_EQ(manager.stats().offered, 5u);
}

TEST(ConcurrentRuntimeManager, BatchIsReorderedByPriorityPolicy) {
  // Three arrivals of different sizes queue up while no worker runs; one
  // pump() drains them as a single batch, and the smallest-first policy
  // must decide the admission (= commit) order, not arrival order.
  const auto platform = roomy_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 0,
       .queue_capacity = 16,
       .max_batch = 8,
       .priority = std::make_shared<SmallestFirstPriority>()});

  auto large = std::make_shared<kpn::Application>(compute_app(4));
  auto medium = std::make_shared<kpn::Application>(compute_app(3));
  auto small = std::make_shared<kpn::Application>(compute_app(2));
  auto f1 = manager.submit(large);
  auto f2 = manager.submit(medium);
  auto f3 = manager.submit(small);
  manager.pump();
  manager.wait_idle();

  const auto r1 = f1.get();
  const auto r2 = f2.get();
  const auto r3 = f3.get();
  ASSERT_EQ(r1.status, AdmitStatus::Admitted) << r1.mapping.failure;
  ASSERT_EQ(r2.status, AdmitStatus::Admitted) << r2.mapping.failure;
  ASSERT_EQ(r3.status, AdmitStatus::Admitted) << r3.mapping.failure;
  // App ids are handed out at commit, so they record the admission order.
  EXPECT_LT(r3.app_id.value(), r2.app_id.value());  // 2 stages first
  EXPECT_LT(r2.app_id.value(), r1.app_id.value());  // then 3, 4 last
}

TEST(ConcurrentRuntimeManager, FifoPriorityKeepsArrivalOrder) {
  const auto platform = roomy_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 0, .queue_capacity = 16, .max_batch = 8});
  auto f1 = manager.submit(std::make_shared<kpn::Application>(compute_app(3)));
  auto f2 = manager.submit(std::make_shared<kpn::Application>(compute_app(2)));
  manager.pump();
  const auto r1 = f1.get();
  const auto r2 = f2.get();
  ASSERT_EQ(r1.status, AdmitStatus::Admitted) << r1.mapping.failure;
  ASSERT_EQ(r2.status, AdmitStatus::Admitted) << r2.mapping.failure;
  EXPECT_LT(r1.app_id.value(), r2.app_id.value());  // commit order
}

TEST(ConcurrentRuntimeManager, ShardedModeAdmitsWithFallback) {
  // Two vertical shards on the 3x2 test mesh. Shard-confined planning must
  // still admit up to capacity thanks to the whole-platform fallback, and
  // the bookkeeping must stay replayable.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper()},
      {.workers = 2, .queue_capacity = 16, .shards = 2});

  // Every tile belongs to exactly one shard and both shards are used.
  std::vector<std::size_t> per_shard(2, 0);
  for (const TileId tid : platform.tile_ids()) {
    const std::size_t s = manager.shard_of(tid);
    ASSERT_LT(s, 2u);
    ++per_shard[s];
  }
  EXPECT_GT(per_shard[0], 0u);
  EXPECT_GT(per_shard[1], 0u);

  const auto app = compute_app(2);
  std::uint32_t ok = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    if (manager.admit(app).status == AdmitStatus::Admitted) ++ok;
  }
  // 2 BIG + 2 LITTLE single-slot tiles: two 2-stage apps fill them.
  EXPECT_EQ(ok, 2u);
  // Least-loaded dispatch spread the first two admissions over both
  // stripes; the failing ones fell back to the whole platform.
  EXPECT_GE(manager.stats().shard_fallbacks, 1u);
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, RetryPolicyParksAndReleaseWakes) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform,
      {.mapper = paper_mapper(), .policy = std::make_shared<RetryAdmission>(3)},
      {.workers = 2, .queue_capacity = 16});
  // Needs both BIG tiles: one instance saturates them.
  const auto big_only = compute_app(2, /*little_wcet_cc=*/0);

  const auto a = manager.admit(big_only);
  ASSERT_EQ(a.status, AdmitStatus::Admitted);

  // Both BIG tiles taken: the second request parks instead of resolving.
  auto parked =
      manager.submit(std::make_shared<kpn::Application>(big_only));
  manager.wait_idle();
  EXPECT_EQ(manager.waiting_count(), 1u);
  EXPECT_EQ(parked.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  // A release wakes it; the future now resolves as admitted.
  ASSERT_TRUE(manager.release(a.app_id));
  const auto outcome = parked.get();
  EXPECT_EQ(outcome.status, AdmitStatus::Admitted);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(manager.waiting_count(), 0u);
  EXPECT_GE(manager.stats().retries, 1u);
}

TEST(ConcurrentRuntimeManager, RetryChurnDoesNotStrandParkedRequests) {
  // Releases race against park decisions. The release-epoch check must
  // guarantee that a request never parks itself past the release that
  // would have woken it (the lost-wakeup race): with continuous churn,
  // every one of these competing requests must eventually resolve.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform,
      {.mapper = paper_mapper(),
       .policy = std::make_shared<RetryAdmission>(100)},
      {.workers = 3, .queue_capacity = 32});
  // Needs both BIG tiles: only one instance can run at a time.
  const auto big_only = compute_app(2, /*little_wcet_cc=*/0);

  std::vector<std::future<AdmitOutcome>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        manager.submit(std::make_shared<kpn::Application>(big_only)));
  }

  // Churn: release whatever runs so the next parked request can win.
  std::size_t resolved = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (resolved < futures.size() &&
         std::chrono::steady_clock::now() < deadline) {
    for (const AppId id : manager.running_ids()) manager.release(id);
    resolved = 0;
    for (auto& f : futures) {
      if (f.wait_for(std::chrono::milliseconds(1)) ==
          std::future_status::ready) {
        ++resolved;
      }
    }
  }
  ASSERT_EQ(resolved, futures.size()) << "a parked request was stranded";
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, AdmitStatus::Admitted);
  }
  for (const AppId id : manager.running_ids()) manager.release(id);
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, RejectWaitingResolvesParkedFutures) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform,
      {.mapper = paper_mapper(), .policy = std::make_shared<RetryAdmission>(5)},
      {.workers = 1, .queue_capacity = 16});
  // Impossible: 5 BIG-only stages on 2 BIG tiles — parked forever.
  auto parked = manager.submit(std::make_shared<kpn::Application>(
      compute_app(5, /*little_wcet_cc=*/0)));
  manager.wait_idle();
  ASSERT_EQ(manager.waiting_count(), 1u);

  const auto resolved = manager.reject_waiting();
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].status, AdmitStatus::Rejected);
  EXPECT_EQ(parked.get().status, AdmitStatus::Rejected);
  EXPECT_EQ(manager.stats().rejected, 1u);
}

TEST(ConcurrentRuntimeManager, ShutdownResolvesEverything) {
  const auto platform = test::small_platform();
  std::future<AdmitOutcome> parked;
  {
    ConcurrentRuntimeManager manager(
        platform,
        {.mapper = paper_mapper(),
         .policy = std::make_shared<RetryAdmission>(5)},
        {.workers = 2, .queue_capacity = 16});
    parked = manager.submit(std::make_shared<kpn::Application>(
        compute_app(5, /*little_wcet_cc=*/0)));
    manager.wait_idle();
    // Destructor shuts down: the parked future must still resolve.
  }
  EXPECT_EQ(parked.get().status, AdmitStatus::Rejected);
}

TEST(ConcurrentRuntimeManager, ParkedRequestIsReattemptedAfterDefragPass) {
  // Deterministic (workers == 0): a two-tile request parks while only
  // scattered one-tile holes exist; a release-triggered defrag pass
  // compacts the row into a contiguous hole and the woken retry admits.
  const auto platform = row_platform();
  ConcurrentRuntimeManager manager(
      platform,
      {.mapper = paper_mapper(),
       .policy = std::make_shared<RetryAdmission>(5),
       .defrag = on_release_defrag()},
      {.workers = 0, .queue_capacity = 16});

  const auto one = fixture_app(1);
  std::vector<AppId> ids;
  for (int i = 0; i < 4; ++i) {
    const auto outcome = manager.admit(one);
    ASSERT_EQ(outcome.status, AdmitStatus::Admitted)
        << outcome.mapping.failure;
    ids.push_back(outcome.app_id);
  }

  // Needs two compute tiles: parks while the row is full.
  auto parked =
      manager.submit(std::make_shared<kpn::Application>(fixture_app(2)));
  manager.pump();
  ASSERT_EQ(manager.waiting_count(), 1u);

  // One scattered hole: the wake retries, fails again, re-parks.
  ASSERT_TRUE(manager.release(ids[1]));
  manager.pump();
  ASSERT_EQ(manager.waiting_count(), 1u);

  // Second scattered hole: the pass migrates the C2 resident into the C1
  // hole, the woken retry plans onto the contiguous C2+C3 pair.
  ASSERT_TRUE(manager.release(ids[3]));
  manager.pump();
  const auto outcome = parked.get();
  EXPECT_EQ(outcome.status, AdmitStatus::Admitted)
      << outcome.mapping.failure;
  EXPECT_GE(outcome.attempts, 3u);

  const AdmissionStats stats = manager.stats();
  EXPECT_GE(stats.defrag_passes, 1u);
  EXPECT_GE(stats.migrations, 1u);
  EXPECT_GE(stats.parked_woken_by_defrag, 1u);
  EXPECT_EQ(stats.migration_failures, 0u);
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, OnRejectDefragGivesTheRequestASecondChance) {
  // Two dual-slot tiles, residents smeared one per tile at 0.3
  // utilisation each: a 0.8-utilisation app fits neither tile until the
  // on-reject pass consolidates the residents onto one tile.
  arch::Platform platform("pair 2x2", 2, 2);
  const TileTypeId big = platform.add_tile_type("BIG", 200'000'000);
  const TileTypeId io = platform.add_tile_type("IO", 200'000'000);
  platform.add_tile("C0", big, 0, 0, 64 * 1024, /*process_slots=*/2);
  platform.add_tile("C1", big, 1, 0, 64 * 1024, /*process_slots=*/2);
  platform.add_tile("SRC", io, 0, 1, 64 * 1024, 8);
  platform.add_tile("DST", io, 1, 1, 64 * 1024, 8);

  test::PipelineSpec small;
  small.stages = 1;
  small.little_wcet_cc = 0;
  small.big_wcet_cc = 240;  // util 0.3 at 200 MHz / 4 us
  test::PipelineSpec large = small;
  large.big_wcet_cc = 640;  // util 0.8

  DefragOptions defrag;
  defrag.policy = DefragPolicy::OnReject;
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper(), .defrag = defrag},
      {.workers = 0, .queue_capacity = 16});

  std::vector<AppId> ids;
  for (int i = 0; i < 3; ++i) {
    const auto outcome = manager.admit(test::pipeline_app(small));
    ASSERT_EQ(outcome.status, AdmitStatus::Admitted)
        << outcome.mapping.failure;
    ids.push_back(outcome.app_id);
  }
  ASSERT_TRUE(manager.release(ids[0]));  // leave one resident per tile

  const auto outcome = manager.admit(test::pipeline_app(large));
  EXPECT_EQ(outcome.status, AdmitStatus::Admitted)
      << outcome.mapping.failure;
  EXPECT_GE(outcome.attempts, 2u);
  const AdmissionStats stats = manager.stats();
  EXPECT_GE(stats.defrag_passes, 1u);
  EXPECT_GE(stats.migrations, 1u);
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, EightThreadStressWithDefragOn) {
  // The defrag TSan target: admit/release churn from 8 clients while
  // release-triggered passes migrate running applications under the state
  // lock. Counters must balance and the final state must replay serially.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper(), .defrag = on_release_defrag(0.1)},
      {.workers = 4, .queue_capacity = 32, .max_batch = 4});
  const auto app = compute_app(2);

  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kIterations = 8;
  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<AppId> mine;
      for (std::uint32_t i = 0; i < kIterations; ++i) {
        const auto outcome = manager.admit(app);
        if (outcome.status == AdmitStatus::Admitted) {
          admitted.fetch_add(1);
          mine.push_back(outcome.app_id);
        }
        if ((t + i) % 2 == 0 && !mine.empty()) {
          ASSERT_TRUE(manager.release(mine.front()));
          mine.erase(mine.begin());
        }
      }
      for (const AppId id : mine) ASSERT_TRUE(manager.release(id));
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  const AdmissionStats stats = manager.stats();
  EXPECT_EQ(stats.offered, kThreads * kIterations);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.admitted + stats.rejected + stats.deadline_misses,
            stats.offered);
  EXPECT_EQ(stats.releases, stats.admitted);  // everything was released
  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_TRUE(
      manager.state_snapshot().approx_equals(core::ResourceState(platform)));
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, ShardedStressWithDefragRebalances) {
  // Sharded mode + defrag: passes plan whole-platform, so migrations may
  // cross stripe boundaries (the work-stealing path). The bookkeeping
  // must survive the combination under churn.
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(
      platform, {.mapper = paper_mapper(), .defrag = on_release_defrag(0.1)},
      {.workers = 2, .queue_capacity = 32, .shards = 2});
  const auto app = compute_app(2);

  std::vector<std::thread> clients;
  for (std::uint32_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      std::vector<AppId> mine;
      for (std::uint32_t i = 0; i < 6; ++i) {
        const auto outcome = manager.admit(app);
        if (outcome.status == AdmitStatus::Admitted) {
          mine.push_back(outcome.app_id);
        }
        if ((t + i) % 2 == 1 && !mine.empty()) {
          ASSERT_TRUE(manager.release(mine.front()));
          mine.erase(mine.begin());
        }
      }
      for (const AppId id : mine) ASSERT_TRUE(manager.release(id));
    });
  }
  for (auto& c : clients) c.join();
  manager.wait_idle();

  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_TRUE(
      manager.state_snapshot().approx_equals(core::ResourceState(platform)));
  expect_state_equals_serial_replay(platform, manager);
}

TEST(ConcurrentRuntimeManager, UnknownReleaseIsReportedError) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(platform, {.mapper = paper_mapper()},
                                   {.workers = 1, .queue_capacity = 8});
  EXPECT_FALSE(manager.release(AppId{99}));
  EXPECT_EQ(manager.stats().release_errors, 1u);
  const auto errors = manager.drain_release_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].id, AppId{99});

  // Double release: the second one is the reported error.
  const auto started = manager.admit(compute_app(2));
  ASSERT_EQ(started.status, AdmitStatus::Admitted);
  EXPECT_TRUE(manager.release(started.app_id));
  EXPECT_FALSE(manager.release(started.app_id));
  EXPECT_EQ(manager.stats().release_errors, 2u);
}

TEST(ConcurrentRuntimeManager, DeadlineMissBooksNothing) {
  const auto platform = test::small_platform();
  ConcurrentRuntimeManager manager(platform, {.mapper = paper_mapper()},
                                   {.workers = 1, .queue_capacity = 8});
  const auto result = manager.admit(compute_app(2), /*deadline_us=*/1e-3);
  EXPECT_EQ(result.status, AdmitStatus::DeadlineMiss);
  EXPECT_EQ(manager.running_count(), 0u);
  EXPECT_EQ(manager.stats().deadline_misses, 1u);
  EXPECT_TRUE(
      manager.state_snapshot().approx_equals(core::ResourceState(platform)));
}

}  // namespace
}  // namespace rtsm::runtime
