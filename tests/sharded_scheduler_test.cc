// Differential tests pinning ShardedScheduler to the bare RequestScheduler it
// wraps, plus the donor-index and scan-memo contracts library_sim.cc leans on.
//
// The load-bearing guarantees (see sharded_scheduler.h):
//   * With one shard, every routed operation is byte-identical to a bare
//     RequestScheduler — the sharded control plane at 1 partition cannot
//     perturb fig9.
//   * ForEachDonor enumerates exactly the shards with queued bytes > 0 in
//     (bytes descending, shard descending) order — the order the replaced
//     scan-and-sort produced — no matter how many stale heap entries have
//     accumulated or how often compaction ran.
//   * MigrateQueue conserves requests and restores arrival order at the
//     destination (dynamic repartitioning must not drop, duplicate, or
//     reorder queued work).
//   * The scan memo only reports "known empty" while it is provably true:
//     any queue mutation or explicit revival clears it and bumps the
//     mutation epoch; recording a failure does not bump the epoch.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/request.h"
#include "core/request_scheduler.h"
#include "core/sharded_scheduler.h"
#include "workload/trace_gen.h"

namespace silica {
namespace {

bool SameRequest(const ReadRequest& a, const ReadRequest& b) {
  return a.id == b.id && a.arrival == b.arrival && a.file_id == b.file_id &&
         a.bytes == b.bytes && a.platter == b.platter && a.parent == b.parent;
}

// Drains the platter's group (`all`) or pops just its oldest request, returned
// as a batch either way so both schedulers compare alike.
std::vector<ReadRequest> Take(RequestScheduler& s, uint64_t platter, bool all) {
  if (all) {
    return s.TakeRequests(platter);
  }
  std::vector<ReadRequest> taken(1);
  if (!s.TakeFront(platter, &taken[0])) {
    taken.clear();
  }
  return taken;
}

std::vector<ReadRequest> Take(ShardedScheduler& s, int shard, uint64_t platter,
                              bool all) {
  if (all) {
    return s.TakeRequests(shard, platter);
  }
  std::vector<ReadRequest> taken(1);
  if (!s.TakeFront(shard, platter, &taken[0])) {
    taken.clear();
  }
  return taken;
}

TEST(ShardedScheduler, OneShardByteIdenticalToBareScheduler) {
  constexpr uint64_t kPlatters = 24;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    ShardedScheduler sharded;
    sharded.Init(1, kPlatters);
    RequestScheduler bare;
    bare.ReservePlatters(kPlatters);

    double arrival = 0.0;
    uint64_t next_id = 1;
    for (int op = 0; op < 400; ++op) {
      const uint64_t kind = rng.UniformInt(0, static_cast<int64_t>(10) - 1);
      if (kind < 5) {  // submit (nondecreasing arrivals, per the contract)
        arrival += static_cast<double>(rng.UniformInt(0, static_cast<int64_t>(100) - 1)) * 0.01;
        ReadRequest request{next_id++, arrival, rng.UniformInt(0, static_cast<int64_t>(1000) - 1),
                            1 + rng.UniformInt(0, static_cast<int64_t>(1 << 20) - 1), rng.UniformInt(0, static_cast<int64_t>(kPlatters) - 1), 0};
        sharded.Submit(0, request);
        bare.Submit(request);
      } else if (kind < 8) {  // take (sometimes partial), sometimes put back
        const uint64_t platter = rng.UniformInt(0, static_cast<int64_t>(kPlatters) - 1);
        const bool all = rng.UniformInt(0, static_cast<int64_t>(2) - 1) == 0;
        const auto got = Take(sharded, 0, platter, all);
        const auto want = Take(bare, platter, all);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(SameRequest(got[i], want[i]));
        }
        if (!got.empty() && rng.UniformInt(0, 2) == 0) {
          // Requeue restores at the group front, so walking the taken batch
          // newest-first rebuilds the original order (the MigrateQueue idiom).
          for (auto it = got.rbegin(); it != got.rend(); ++it) {
            sharded.Requeue(0, *it);
            bare.Requeue(*it);
          }
        }
      } else {  // select under a random accessibility mask
        const uint64_t mask_seed = rng.UniformInt(0, static_cast<int64_t>(1u << 16) - 1);
        const auto accessible = [mask_seed](uint64_t platter) {
          return ((mask_seed >> (platter % 16)) & 1u) != 0;
        };
        const auto got = sharded.SelectPlatter(0, accessible);
        const auto want = bare.SelectPlatter(accessible);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got.has_value()) {
          EXPECT_EQ(*got, *want);
        }
      }
      ASSERT_EQ(sharded.total_queued_bytes(), bare.total_queued_bytes());
      ASSERT_EQ(sharded.pending_requests(), bare.pending_requests());
      for (uint64_t platter = 0; platter < kPlatters; ++platter) {
        ASSERT_EQ(sharded.HasRequests(0, platter), bare.HasRequests(platter));
      }
    }
  }
}

// Same differential on replayed fig9 traffic: the iops-profile trace the
// figure-9 experiment runs, submitted in arrival order with periodic
// select/drain churn, must produce byte-identical decisions at 1 shard.
TEST(ShardedScheduler, OneShardMatchesBareSchedulerOnFig9Trace) {
  constexpr uint64_t kPlatters = 300;
  const auto generated = GenerateTrace(TraceProfile::Iops(/*seed=*/1), kPlatters);
  ShardedScheduler sharded;
  sharded.Init(1, kPlatters);
  RequestScheduler bare;
  bare.ReservePlatters(kPlatters);

  Rng rng(17);
  const auto all_accessible = [](uint64_t) { return true; };
  size_t replayed = 0;
  for (const auto& request : generated.requests) {
    sharded.Submit(0, request);
    bare.Submit(request);
    if (++replayed % 7 != 0) {
      continue;
    }
    // Drain the platter both sides would pick next, like a dispatch would.
    const auto got = sharded.SelectPlatter(0, all_accessible);
    const auto want = bare.SelectPlatter(all_accessible);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got.has_value()) {
      continue;
    }
    ASSERT_EQ(*got, *want);
    const bool all = rng.UniformInt(0, static_cast<int64_t>(4) - 1) != 0;  // mostly whole-group mounts
    const auto taken = Take(sharded, 0, *got, all);
    const auto expected = Take(bare, *want, all);
    ASSERT_EQ(taken.size(), expected.size());
    for (size_t i = 0; i < taken.size(); ++i) {
      ASSERT_TRUE(SameRequest(taken[i], expected[i]));
    }
    ASSERT_EQ(sharded.total_queued_bytes(), bare.total_queued_bytes());
  }
  EXPECT_GT(replayed, 1000u);  // the profile actually produced a real trace
  EXPECT_EQ(sharded.pending_requests(), bare.pending_requests());
}

// Reference for the donor enumeration: the full scan-and-sort the heap
// replaced — every shard with queued bytes, (bytes desc, shard desc).
std::vector<std::pair<uint64_t, int>> ScanAndSortDonors(
    const ShardedScheduler& sched, int thief) {
  std::vector<std::pair<uint64_t, int>> donors;
  for (int s = 0; s < sched.size(); ++s) {
    if (s != thief && sched.queued_bytes(s) > 0) {
      donors.emplace_back(sched.queued_bytes(s), s);
    }
  }
  std::sort(donors.rbegin(), donors.rend());
  return donors;
}

TEST(ShardedScheduler, DonorOrderMatchesScanAndSortAcrossSeeds) {
  constexpr int kShards = 9;
  constexpr uint64_t kPlatters = 90;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    ShardedScheduler sched;
    sched.Init(kShards, kPlatters);
    double arrival = 0.0;
    uint64_t next_id = 1;
    for (int op = 0; op < 300; ++op) {
      const uint64_t platter = rng.UniformInt(0, static_cast<int64_t>(kPlatters) - 1);
      const int shard = static_cast<int>(platter) % kShards;
      if (rng.UniformInt(0, static_cast<int64_t>(3) - 1) != 0) {
        arrival += 0.5;
        sched.Submit(shard, {next_id++, arrival, 0, 1 + rng.UniformInt(0, static_cast<int64_t>(1 << 16) - 1),
                             platter, 0});
      } else {
        Take(sched, shard, platter, rng.UniformInt(0, static_cast<int64_t>(2) - 1) == 0);
      }
      if (op % 10 != 0) {
        continue;
      }
      const int thief = static_cast<int>(rng.UniformInt(0, static_cast<int64_t>(kShards) - 1));
      std::vector<std::pair<uint64_t, int>> enumerated;
      sched.ForEachDonor(thief, /*cut_bytes=*/0, /*scan_all=*/true,
                         [&](uint64_t bytes, int donor) {
                           enumerated.emplace_back(bytes, donor);
                           return true;
                         });
      ASSERT_EQ(enumerated, ScanAndSortDonors(sched, thief));
    }
  }
}

TEST(ShardedScheduler, DonorCutStopsBelowThreshold) {
  ShardedScheduler sched;
  sched.Init(4, 8);
  sched.Submit(0, {1, 0.0, 0, 500, 0, 0});
  sched.Submit(1, {2, 0.0, 0, 2000, 1, 0});
  sched.Submit(2, {3, 0.0, 0, 1000, 2, 0});
  std::vector<int> donors;
  sched.ForEachDonor(/*thief=*/3, /*cut_bytes=*/900, /*scan_all=*/false,
                     [&](uint64_t, int shard) {
                       donors.push_back(shard);
                       return true;
                     });
  // 500-byte shard 0 sits at/below the cut; the max-order walk never offers it.
  EXPECT_EQ(donors, (std::vector<int>{1, 2}));
}

TEST(ShardedScheduler, MigrateQueueConservesAndKeepsArrivalOrder) {
  constexpr uint64_t kPlatter = 5;
  ShardedScheduler sched;
  sched.Init(3, 16);
  std::vector<ReadRequest> submitted;
  for (int i = 0; i < 6; ++i) {
    ReadRequest request{static_cast<uint64_t>(i + 1), static_cast<double>(i),
                        0, 100u + static_cast<uint64_t>(i), kPlatter, 0};
    sched.Submit(0, request);
    submitted.push_back(request);
  }
  sched.Submit(0, {99, 10.0, 0, 77, /*platter=*/6, 0});  // bystander group
  const uint64_t bytes_before = sched.total_queued_bytes();
  const size_t pending_before = sched.pending_requests();

  EXPECT_EQ(sched.MigrateQueue(kPlatter, /*from=*/0, /*to=*/2), 6u);

  EXPECT_EQ(sched.total_queued_bytes(), bytes_before);
  EXPECT_EQ(sched.pending_requests(), pending_before);
  EXPECT_FALSE(sched.HasRequests(0, kPlatter));
  EXPECT_TRUE(sched.HasRequests(0, 6));  // bystander stayed put
  const auto moved = sched.TakeRequests(2, kPlatter);
  ASSERT_EQ(moved.size(), submitted.size());
  for (size_t i = 0; i < moved.size(); ++i) {
    EXPECT_TRUE(SameRequest(moved[i], submitted[i]));
  }
}

TEST(ShardedScheduler, ScanMemoClearsOnMutationAndTracksEpoch) {
  ShardedScheduler sched;
  sched.Init(2, 8);
  sched.Submit(0, {1, 0.0, 0, 100, 0, 0});
  EXPECT_EQ(sched.live_nonzero_shards(), 1);

  // Recording a failed scan must not bump the epoch (it cannot make a future
  // scan succeed), but it retires the shard from the live count.
  const uint64_t epoch = sched.mutation_epoch();
  sched.NoteScanFailed(0);
  EXPECT_TRUE(sched.ScanKnownEmpty(0));
  EXPECT_EQ(sched.mutation_epoch(), epoch);
  EXPECT_EQ(sched.live_nonzero_shards(), 0);

  // Any queue mutation revives the shard and advances the epoch.
  sched.Submit(0, {2, 1.0, 0, 50, 1, 0});
  EXPECT_FALSE(sched.ScanKnownEmpty(0));
  EXPECT_GT(sched.mutation_epoch(), epoch);
  EXPECT_EQ(sched.live_nonzero_shards(), 1);

  // Explicit revival (platter turned accessible) does the same for its shard.
  sched.NoteScanFailed(0);
  const uint64_t epoch2 = sched.mutation_epoch();
  sched.ClearScanMemo(0);
  EXPECT_FALSE(sched.ScanKnownEmpty(0));
  EXPECT_GT(sched.mutation_epoch(), epoch2);
  EXPECT_EQ(sched.live_nonzero_shards(), 1);

  // Draining the queue leaves the shard out of the live count even with a
  // clear memo: live shards are nonzero shards that might yield a target.
  sched.TakeRequests(0, 0);
  sched.TakeRequests(0, 1);
  EXPECT_EQ(sched.live_nonzero_shards(), 0);
}

}  // namespace
}  // namespace silica
