// Differential tests pinning the pooled / lazy-heap RequestScheduler — alone
// and as the shards of a ShardedScheduler over one shared platter table — to
// the ordered-set reference it replaced, plus telemetry contract checks.
//
// The reference keeps the old structure verbatim: a std::set<(arrival, platter)>
// of group fronts, updated eagerly on every mutation. The production scheduler
// must make identical SelectPlatter / TakeRequests decisions under randomized
// submit / take / partial-take / requeue workloads with adversarial
// accessibility masks. One regime runs with enough platters and take-churn to
// trip the heap compaction repeatedly — the in-situ bug class this guards
// against (a compaction observing a half-updated group) only ever appears when
// compaction interleaves with mutation, which tiny workloads never trigger.
// The sharded regime adds cross-shard MigrateQueue and Requeue, so platters
// change owner inside the shared table while stale heap entries for them
// linger in their former shards.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/request_scheduler.h"
#include "core/sharded_scheduler.h"
#include "telemetry/telemetry.h"

namespace silica {
namespace {

// The previous implementation, kept as the selection oracle.
class ReferenceScheduler {
 public:
  void Submit(const ReadRequest& request) {
    Group& group = groups_[request.platter];
    if (!group.requests.empty()) {
      order_.erase({group.requests.front().arrival, request.platter});
    }
    group.requests.push_back(request);
    group.bytes += request.bytes;
    order_.insert({group.requests.front().arrival, request.platter});
    ++pending_;
    bytes_ += request.bytes;
  }

  std::optional<uint64_t> SelectPlatter(
      const std::function<bool(uint64_t)>& accessible) const {
    for (const auto& [arrival, platter] : order_) {
      if (accessible(platter)) {
        return platter;
      }
    }
    return std::nullopt;
  }

  std::vector<ReadRequest> TakeRequests(uint64_t platter, bool all) {
    const auto it = groups_.find(platter);
    if (it == groups_.end()) {
      return {};
    }
    Group& group = it->second;
    order_.erase({group.requests.front().arrival, platter});
    std::vector<ReadRequest> taken;
    if (all) {
      taken.assign(group.requests.begin(), group.requests.end());
      group.requests.clear();
    } else {
      taken.push_back(group.requests.front());
      group.requests.pop_front();
    }
    pending_ -= taken.size();
    for (const ReadRequest& request : taken) {
      bytes_ -= request.bytes;
    }
    if (group.requests.empty()) {
      groups_.erase(it);
    } else {
      order_.insert({group.requests.front().arrival, platter});
    }
    return taken;
  }

  void Requeue(const ReadRequest& request) {
    Group& group = groups_[request.platter];
    if (!group.requests.empty()) {
      order_.erase({group.requests.front().arrival, request.platter});
    }
    group.requests.push_front(request);
    order_.insert({request.arrival, request.platter});
    ++pending_;
    bytes_ += request.bytes;
  }

  bool HasRequests(uint64_t platter) const { return groups_.count(platter) != 0; }
  std::optional<double> EarliestArrival(uint64_t platter) const {
    const auto it = groups_.find(platter);
    if (it == groups_.end()) {
      return std::nullopt;
    }
    return it->second.requests.front().arrival;
  }
  size_t pending_requests() const { return pending_; }
  size_t pending_platters() const { return groups_.size(); }
  uint64_t total_bytes() const { return bytes_; }

 private:
  struct Group {
    std::deque<ReadRequest> requests;
    uint64_t bytes = 0;
  };
  std::map<uint64_t, Group> groups_;
  std::set<std::pair<double, uint64_t>> order_;
  size_t pending_ = 0;
  uint64_t bytes_ = 0;
};

// Drives both schedulers through the same randomized op stream and asserts
// identical observable behavior after every op.
void RunDifferential(uint64_t seed, uint64_t num_platters, int ops) {
  RequestScheduler scheduler;
  scheduler.ReservePlatters(num_platters);
  ReferenceScheduler reference;
  Rng rng(seed);
  double clock = 0.0;
  uint64_t next_req = 1;
  std::vector<ReadRequest> in_flight;  // taken singles eligible for requeue

  for (int op = 0; op < ops; ++op) {
    const int kind = static_cast<int>(rng.UniformInt(0, 9));
    if (kind <= 4) {  // submit (the common case)
      // Coarse arrival quantization produces frequent equal-arrival fronts.
      clock += static_cast<double>(rng.UniformInt(0, 3)) * 0.5;
      ReadRequest request;
      request.id = next_req++;
      request.arrival = clock;
      request.bytes = static_cast<uint64_t>(rng.UniformInt(1, 1 << 20));
      request.platter = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(num_platters) - 1));
      scheduler.Submit(request);
      reference.Submit(request);
    } else if (kind <= 7) {  // select + take under a random accessibility mask
      const uint64_t salt = rng.NextU64();
      const auto accessible = [salt](uint64_t platter) {
        return ((platter * 0x9e3779b97f4a7c15ull) ^ salt) % 4 != 0;
      };
      const auto mine = scheduler.SelectPlatter(accessible);
      const auto theirs = reference.SelectPlatter(accessible);
      ASSERT_EQ(mine, theirs) << "seed " << seed << " op " << op;
      if (mine.has_value()) {
        const bool all = rng.Bernoulli(0.7);
        std::vector<ReadRequest> taken_mine;
        if (all) {
          taken_mine = scheduler.TakeRequests(*mine);
        } else {
          ReadRequest request;
          ASSERT_TRUE(scheduler.TakeFront(*mine, &request));
          taken_mine.push_back(request);
        }
        const auto taken_theirs = reference.TakeRequests(*mine, all);
        ASSERT_EQ(taken_mine.size(), taken_theirs.size());
        for (size_t i = 0; i < taken_mine.size(); ++i) {
          ASSERT_EQ(taken_mine[i].id, taken_theirs[i].id);
        }
        if (!all && !taken_mine.empty() && in_flight.size() < 32) {
          in_flight.push_back(taken_mine.front());
        }
      }
    } else if (kind == 8 && !in_flight.empty()) {  // requeue a taken single
      const ReadRequest request = in_flight.back();
      in_flight.pop_back();
      // Requeue is only legal while it would not reorder arrivals; the taken
      // single is older than everything still queued for its platter unless
      // new work arrived meanwhile — skip those, as the twin's degraded path
      // requeues immediately after the take.
      const auto front = scheduler.EarliestArrival(request.platter);
      if (!front.has_value() || request.arrival <= *front) {
        scheduler.Requeue(request);
        reference.Requeue(request);
      }
    } else {  // full drain of the earliest platter, no mask
      const auto everything = [](uint64_t) { return true; };
      const auto mine = scheduler.SelectPlatter(everything);
      const auto theirs = reference.SelectPlatter(everything);
      ASSERT_EQ(mine, theirs) << "seed " << seed << " op " << op;
      if (mine.has_value()) {
        const auto taken_mine = scheduler.TakeRequests(*mine);
        const auto taken_theirs = reference.TakeRequests(*mine, true);
        ASSERT_EQ(taken_mine.size(), taken_theirs.size());
      }
    }
    ASSERT_EQ(scheduler.pending_requests(), reference.pending_requests());
    ASSERT_EQ(scheduler.pending_platters(), reference.pending_platters());
  }
}

TEST(SchedulerEquivalence, RandomizedSmallPool) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    RunDifferential(seed, 16, 2000);
    if (HasFailure()) {
      return;
    }
  }
}

TEST(SchedulerEquivalence, RandomizedWidePoolTripsCompaction) {
  // Hundreds of platters with heavy take/resubmit churn: the lazy heap
  // accumulates stale entries past the 2 * groups + 64 threshold, so
  // compaction rebuilds interleave with submits, takes, and requeues — the
  // regime where a rebuild reading a half-mutated group would surface.
  for (uint64_t seed = 100; seed <= 120; ++seed) {
    RunDifferential(seed, 1000, 6000);
    if (HasFailure()) {
      return;
    }
  }
}

// Sharded flavor: one ReferenceScheduler per shard plus the test's own
// platter -> shard map. Besides submit / select / take / requeue, platters
// migrate between shards (MigrateQueue), and requeues land on whichever shard
// owns the platter *now*, so the shared table's owner tags, the lower-bound
// re-keying, and stale entries left behind in former owners' heaps are all
// exercised against the eager reference.
void RunShardedDifferential(uint64_t seed, int num_shards, uint64_t num_platters,
                            int ops) {
  ShardedScheduler sharded;
  sharded.Init(num_shards, num_platters);
  std::vector<ReferenceScheduler> reference(static_cast<size_t>(num_shards));
  std::vector<int> owner(num_platters);
  for (uint64_t platter = 0; platter < num_platters; ++platter) {
    owner[platter] = static_cast<int>(platter % static_cast<uint64_t>(num_shards));
  }
  Rng rng(seed);
  double clock = 0.0;
  uint64_t next_req = 1;
  std::vector<ReadRequest> in_flight;
  const auto random_shard = [&] {
    return static_cast<int>(rng.UniformInt(0, num_shards - 1));
  };

  for (int op = 0; op < ops; ++op) {
    const int kind = static_cast<int>(rng.UniformInt(0, 11));
    if (kind <= 4) {  // submit to the platter's current owner
      clock += static_cast<double>(rng.UniformInt(0, 3)) * 0.5;
      ReadRequest request;
      request.id = next_req++;
      request.arrival = clock;
      request.bytes = static_cast<uint64_t>(rng.UniformInt(1, 1 << 20));
      request.platter = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(num_platters) - 1));
      const int shard = owner[request.platter];
      sharded.Submit(shard, request);
      reference[static_cast<size_t>(shard)].Submit(request);
    } else if (kind <= 7) {  // select + take on one shard under a mask
      const int shard = random_shard();
      const uint64_t salt = rng.NextU64();
      const auto accessible = [salt](uint64_t platter) {
        return ((platter * 0x9e3779b97f4a7c15ull) ^ salt) % 4 != 0;
      };
      const auto mine = sharded.SelectPlatter(shard, accessible);
      const auto theirs =
          reference[static_cast<size_t>(shard)].SelectPlatter(accessible);
      ASSERT_EQ(mine, theirs) << "seed " << seed << " op " << op;
      if (!mine.has_value()) {
        continue;
      }
      const bool all = rng.UniformInt(0, 2) == 0;
      const auto theirs_taken =
          reference[static_cast<size_t>(shard)].TakeRequests(*mine, all);
      std::vector<ReadRequest> mine_taken;
      if (all) {
        mine_taken = sharded.TakeRequests(shard, *mine);
      } else {  // the serve path: one request, no batch
        ReadRequest request;
        ASSERT_TRUE(sharded.TakeFront(shard, *mine, &request));
        mine_taken.push_back(request);
      }
      ASSERT_EQ(mine_taken.size(), theirs_taken.size());
      for (size_t i = 0; i < mine_taken.size(); ++i) {
        ASSERT_EQ(mine_taken[i].id, theirs_taken[i].id);
      }
      if (!all && in_flight.size() < 32) {
        in_flight.push_back(mine_taken.front());
      }
    } else if (kind <= 8 && !in_flight.empty()) {  // requeue to today's owner
      const ReadRequest request = in_flight.back();
      in_flight.pop_back();
      const int shard = owner[request.platter];
      // Legal only while it would not reorder arrivals (see RunDifferential).
      const auto front =
          reference[static_cast<size_t>(shard)].EarliestArrival(request.platter);
      if (!front.has_value() || request.arrival <= *front) {
        sharded.Requeue(shard, request);
        reference[static_cast<size_t>(shard)].Requeue(request);
      }
    } else if (kind <= 10) {  // migrate a platter to another shard
      const uint64_t platter = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(num_platters) - 1));
      const int from = owner[platter];
      const int to = random_shard();
      const size_t moved = sharded.MigrateQueue(platter, from, to);
      size_t expected = 0;
      if (from != to) {
        const auto batch = reference[static_cast<size_t>(from)].TakeRequests(
            platter, /*all=*/true);
        for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
          reference[static_cast<size_t>(to)].Requeue(*it);
        }
        expected = batch.size();
      }
      ASSERT_EQ(moved, expected) << "seed " << seed << " op " << op;
      owner[platter] = to;
    } else {  // full drain of one shard's earliest platter, no mask
      const int shard = random_shard();
      const auto everything = [](uint64_t) { return true; };
      const auto mine = sharded.SelectPlatter(shard, everything);
      const auto theirs =
          reference[static_cast<size_t>(shard)].SelectPlatter(everything);
      ASSERT_EQ(mine, theirs) << "seed " << seed << " op " << op;
      if (mine.has_value()) {
        ASSERT_EQ(sharded.TakeRequests(shard, *mine).size(),
                  reference[static_cast<size_t>(shard)]
                      .TakeRequests(*mine, true)
                      .size());
      }
    }
    size_t pending = 0;
    for (int shard = 0; shard < num_shards; ++shard) {
      const ReferenceScheduler& ref = reference[static_cast<size_t>(shard)];
      ASSERT_EQ(sharded.queued_bytes(shard), ref.total_bytes())
          << "seed " << seed << " op " << op << " shard " << shard;
      pending += ref.pending_requests();
    }
    ASSERT_EQ(sharded.pending_requests(), pending);
    if (op % 50 == 0) {
      for (uint64_t platter = 0; platter < num_platters; ++platter) {
        for (int shard = 0; shard < num_shards; ++shard) {
          ASSERT_EQ(sharded.HasRequests(shard, platter),
                    reference[static_cast<size_t>(shard)].HasRequests(platter))
              << "seed " << seed << " op " << op << " platter " << platter;
        }
      }
    }
  }
}

TEST(SchedulerEquivalence, ShardedRandomizedSmallPool) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    RunShardedDifferential(seed, 4, 16, 2000);
    if (HasFailure()) {
      return;
    }
  }
}

TEST(SchedulerEquivalence, ShardedRandomizedWidePoolTripsCompaction) {
  for (uint64_t seed = 200; seed <= 215; ++seed) {
    RunShardedDifferential(seed, 8, 600, 6000);
    if (HasFailure()) {
      return;
    }
  }
}

TEST(SchedulerEquivalence, CompactionDuringSubmitKeepsNewGroupSelectable) {
  // Regression shape (found in-situ by lockstep verification against the old
  // implementation): draining groups releases their slots without compacting,
  // so the heap keeps stale entries while active_groups_ — and with it the
  // compaction threshold — shrinks. The next Submit to a brand-new platter
  // then pushes the heap over the threshold and compacts *inside Submit*. The
  // rebuild reads every live group's front, so the new group must already hold
  // its request when the rebuild runs, or its entry is silently dropped and
  // the platter becomes unselectable.
  RequestScheduler scheduler;
  scheduler.ReservePlatters(4096);
  uint64_t id = 1;
  for (uint64_t platter = 0; platter < 100; ++platter) {
    ReadRequest request;
    request.id = id++;
    request.arrival = static_cast<double>(platter);
    request.bytes = 1;
    request.platter = platter;
    scheduler.Submit(request);
  }
  // Drain 90 of the 100 groups: 90 stale heap entries remain, active groups
  // drop to 10, and the threshold falls to 2 * 11 + 64 = 86 < 101.
  for (uint64_t platter = 10; platter < 100; ++platter) {
    ASSERT_EQ(scheduler.TakeRequests(platter).size(), 1u);
  }
  ReadRequest fresh;
  fresh.id = id++;
  fresh.arrival = 1000.0;
  fresh.bytes = 1;
  fresh.platter = 999;
  scheduler.Submit(fresh);  // pushes the 101st entry -> compacts inside Submit
  // The fresh group must have survived the rebuild and be selectable, both
  // behind the older groups and alone under a mask.
  const auto first = scheduler.SelectPlatter([](uint64_t) { return true; });
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 0u);
  const auto masked =
      scheduler.SelectPlatter([](uint64_t platter) { return platter == 999; });
  ASSERT_TRUE(masked.has_value());
  EXPECT_EQ(*masked, 999u);
  EXPECT_EQ(scheduler.TakeRequests(999).size(), 1u);
  EXPECT_EQ(scheduler.pending_platters(), 10u);
}

TEST(SchedulerTelemetry, RequeuePublishesQueueDepthGauges) {
  Telemetry telemetry;
  RequestScheduler scheduler;
  scheduler.SetTelemetry(&telemetry, /*scheduler_id=*/3);
  const MetricLabels labels = {{"scheduler", "3"}};

  ReadRequest request;
  request.id = 1;
  request.arrival = 5.0;
  request.bytes = 4096;
  request.platter = 11;
  scheduler.Submit(request);
  EXPECT_EQ(telemetry.metrics.GaugeValue("scheduler_pending_requests", labels), 1.0);
  EXPECT_EQ(telemetry.metrics.GaugeValue("scheduler_queued_bytes", labels), 4096.0);

  ReadRequest taken;
  ASSERT_TRUE(scheduler.TakeFront(11, &taken));
  EXPECT_EQ(telemetry.metrics.GaugeValue("scheduler_pending_requests", labels), 0.0);
  EXPECT_EQ(telemetry.metrics.GaugeValue("scheduler_queued_bytes", labels), 0.0);

  // The degraded-mode path: a requeued in-flight request must re-appear in the
  // queue-depth gauges, not just in the internal counters.
  scheduler.Requeue(taken);
  EXPECT_EQ(telemetry.metrics.GaugeValue("scheduler_pending_requests", labels), 1.0);
  EXPECT_EQ(telemetry.metrics.GaugeValue("scheduler_queued_bytes", labels), 4096.0);
}

}  // namespace
}  // namespace silica
