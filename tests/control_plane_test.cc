// Invariant tests for the partitioned twin's incrementally maintained
// dispatch indices (DESIGN.md section 16).
//
// The dispatch sweep visits only the actionable partitions — ready or
// orphaned, with an available drive or a queued return — and those flags,
// the per-partition available-drive counts, and the distress flags are all
// updated in O(1) at individual state transitions. A transition that forgets
// its update leaves a partition silently unvisited (or visited for nothing)
// without any other test noticing, so this one recomputes every index from
// shuttle, drive, and return-queue state between 60 s slices of a 64-shuttle
// fleet with every control-plane mechanism and fault class live, and demands
// exact agreement. The same indices are dropped from checkpoints and rebuilt
// on restore, which the second test pins on the same fleet.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/state_io.h"
#include "common/units.h"
#include "core/library_sim.h"

namespace silica {
namespace {

constexpr int kShuttles = 64;

// One partition per shuttle (read drives grown to match), work stealing,
// congestion-aware routing, 10-minute repartitioning, and shuttle, drive and
// rack outages frequent enough that partitions are orphaned and drive-starved
// many times per run.
LibrarySimConfig FaultyFleetConfig(uint64_t seed) {
  LibrarySimConfig config;
  auto& lib = config.library;
  lib.policy = LibraryConfig::Policy::kPartitioned;
  lib.num_shuttles = kShuttles;
  lib.drives_per_read_rack = kShuttles / 2;
  const uint64_t platters = 40ull * kShuttles;
  const uint64_t with_redundancy = platters + (platters + 15) / 16 * 3;
  const uint64_t per_rack =
      static_cast<uint64_t>(lib.shelves * lib.slots_per_shelf);
  lib.storage_racks = std::max(
      7, static_cast<int>((with_redundancy + per_rack - 1) / per_rack));
  lib.work_stealing = true;
  lib.congestion_aware_routing = true;
  lib.repartition_interval_s = 600.0;
  config.num_info_platters = platters;
  config.seed = seed;
  config.faults.shuttle = FaultProcess::Exponential(4.0 * 3600.0, 600.0);
  config.faults.drive = FaultProcess::Exponential(4.0 * 3600.0, 900.0);
  config.faults.rack = FaultProcess::Exponential(2.0 * 3600.0, 300.0);
  return config;
}

// Skewed read burst (u^2 toward low platter ids) so some partitions run hot
// enough to trigger steals and boundary shifts.
ReadTrace SkewedTrace(uint64_t requests, uint64_t platters, uint64_t seed) {
  constexpr double kWindowS = 1.5 * 3600.0;
  Rng rng(seed);
  ReadTrace trace;
  for (uint64_t i = 0; i < requests; ++i) {
    ReadRequest r;
    r.id = i + 1;
    r.arrival = rng.NextDouble() * kWindowS;
    const double u = rng.NextDouble();
    r.platter = std::min<uint64_t>(
        platters - 1, static_cast<uint64_t>(u * u * static_cast<double>(platters)));
    r.file_id = r.id;
    r.bytes = 64 * kMiB;
    trace.push_back(r);
  }
  std::sort(trace.begin(), trace.end(),
            [](const ReadRequest& a, const ReadRequest& b) {
              return a.arrival != b.arrival ? a.arrival < b.arrival : a.id < b.id;
            });
  return trace;
}

TEST(ControlPlaneIndices, MatchRecomputationBetweenSlicesUnderFaults) {
  uint64_t shuttle_failures = 0, drive_failures = 0, rack_failures = 0;
  uint64_t steals = 0, repartitions = 0, slices = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const auto config = FaultyFleetConfig(seed);
    LibraryTwin twin(config,
                     SkewedTrace(6000, config.num_info_platters, 500 + seed));
    twin.Prologue();
    ASSERT_EQ(twin.CheckControlPlaneIndices(), "") << "seed " << seed;
    for (double until = 60.0; twin.WorkloadUnresolved() || !twin.Idle();
         until += 60.0) {
      twin.RunUntil(until);
      ++slices;
      ASSERT_EQ(twin.CheckControlPlaneIndices(), "")
          << "seed " << seed << " after t=" << until << " s";
      ASSERT_LT(until, 7 * 24 * 3600.0) << "seed " << seed << " never drained";
    }
    const LibrarySimResult result = twin.Finish();
    ASSERT_EQ(result.requests_completed + result.requests_failed,
              result.requests_total)
        << "seed " << seed;
    shuttle_failures += result.faults.shuttle_failures;
    drive_failures += result.faults.drive_failures;
    rack_failures += result.faults.rack_failures;
    steals += result.work_steals;
    repartitions += result.repartitions;
  }
  // The check only means something if the transitions it guards happened.
  EXPECT_GT(shuttle_failures, 0u);
  EXPECT_GT(drive_failures, 0u);
  EXPECT_GT(rack_failures, 0u);
  EXPECT_GT(steals, 0u);
  EXPECT_GT(repartitions, 0u);
  EXPECT_GT(slices, 12u * 60u);
}

std::vector<uint8_t> ResultBytes(const LibrarySimResult& result) {
  StateWriter w;
  SaveLibrarySimResult(w, result);
  return w.Take();
}

// The dispatch indices are not serialized: restore rebuilds them from the
// restored shuttle, drive, and return state. Snapshots taken mid-burst, with
// outages open, must still replay byte-identically.
TEST(ControlPlaneIndices, CheckpointRebuildReplaysFaultyFleetByteIdentically) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const auto config = FaultyFleetConfig(seed);
    const auto trace = SkewedTrace(3000, config.num_info_platters, 900 + seed);
    const auto baseline = ResultBytes(SimulateLibrary(config, trace));
    for (const double at : {1200.0, 3000.0}) {
      LibraryCheckpoint snapshot;
      const auto captured =
          SimulateLibraryWithCheckpoint(config, trace, at, &snapshot);
      ASSERT_EQ(ResultBytes(captured), baseline) << "seed " << seed;
      ASSERT_EQ(ResultBytes(ResumeLibrary(config, trace, snapshot)), baseline)
          << "seed " << seed << ": restore from " << at << " s diverged";
    }
  }
}

}  // namespace
}  // namespace silica
