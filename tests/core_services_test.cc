#include <gtest/gtest.h>

#include "common/stats.h"
#include "common/units.h"
#include "core/cost_model.h"
#include "core/metadata.h"
#include "core/request_scheduler.h"
#include "core/staging.h"
#include "workload/archive_stats.h"

namespace silica {
namespace {

// ---------- Request scheduler ----------

ReadRequest Req(uint64_t id, double arrival, uint64_t platter, uint64_t bytes = 1) {
  return ReadRequest{.id = id, .arrival = arrival, .file_id = id, .bytes = bytes,
                     .platter = platter};
}

TEST(RequestScheduler, SelectsEarliestAccessible) {
  RequestScheduler s;
  s.Submit(Req(1, 1.0, 100));
  s.Submit(Req(2, 2.0, 200));
  s.Submit(Req(3, 3.0, 300));
  auto all = [](uint64_t) { return true; };
  EXPECT_EQ(s.SelectPlatter(all), 100u);
  // Work conservation: skip inaccessible platters rather than waiting.
  auto not_100 = [](uint64_t p) { return p != 100; };
  EXPECT_EQ(s.SelectPlatter(not_100), 200u);
  auto none = [](uint64_t) { return false; };
  EXPECT_FALSE(s.SelectPlatter(none).has_value());
}

TEST(RequestScheduler, GroupsRequestsPerPlatter) {
  RequestScheduler s;
  s.Submit(Req(1, 1.0, 100, 10));
  s.Submit(Req(2, 2.0, 200, 20));
  s.Submit(Req(3, 3.0, 100, 30));
  EXPECT_EQ(s.QueuedBytes(100), 40u);
  EXPECT_EQ(s.pending_platters(), 2u);

  const auto taken = s.TakeRequests(100);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].id, 1u);
  EXPECT_EQ(taken[1].id, 3u);
  EXPECT_FALSE(s.HasRequests(100));
  EXPECT_EQ(s.pending_requests(), 1u);
  EXPECT_EQ(s.total_queued_bytes(), 20u);
}

TEST(RequestScheduler, SingleTakeForAblation) {
  RequestScheduler s;
  s.Submit(Req(1, 1.0, 100));
  s.Submit(Req(2, 2.0, 100));
  ReadRequest first;
  ASSERT_TRUE(s.TakeFront(100, &first));
  EXPECT_EQ(first.id, 1u);
  EXPECT_TRUE(s.HasRequests(100));
  // Selection order is preserved for the remaining request.
  EXPECT_EQ(s.EarliestArrival(100), 2.0);
}

TEST(RequestScheduler, SelectionOrderAfterPartialDrain) {
  RequestScheduler s;
  s.Submit(Req(1, 1.0, 100));
  s.Submit(Req(2, 2.0, 200));
  s.TakeRequests(100);
  s.Submit(Req(3, 3.0, 100));
  auto all = [](uint64_t) { return true; };
  // Platter 200 now holds the earliest queued read.
  EXPECT_EQ(s.SelectPlatter(all), 200u);
}

TEST(RequestScheduler, OutOfOrderSubmissionThrows) {
  RequestScheduler s;
  s.Submit(Req(1, 5.0, 100));
  EXPECT_THROW(s.Submit(Req(2, 4.0, 100)), std::invalid_argument);
}

TEST(RequestScheduler, PlatterDarkensBetweenSelectionAndDrain) {
  // Degraded mode: a platter can go dark after SelectPlatter returned it but
  // before the fetch drains its queue (a rack fails mid-decision). The queue
  // must survive untouched, selection must fall through to the next platter,
  // and the dark platter must come back once accessible again.
  RequestScheduler s;
  s.Submit(Req(1, 1.0, 100));
  s.Submit(Req(2, 2.0, 200));
  auto all = [](uint64_t) { return true; };
  ASSERT_EQ(s.SelectPlatter(all), 100u);

  // 100 goes dark before TakeRequests; the controller re-selects instead.
  auto not_100 = [](uint64_t p) { return p != 100; };
  EXPECT_EQ(s.SelectPlatter(not_100), 200u);
  EXPECT_TRUE(s.HasRequests(100));
  EXPECT_EQ(s.EarliestArrival(100), 1.0);
  EXPECT_EQ(s.pending_requests(), 2u);

  // Repair: platter 100 is selectable again and still holds the oldest read.
  EXPECT_EQ(s.SelectPlatter(all), 100u);
  const auto taken = s.TakeRequests(100);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].id, 1u);
}

TEST(RequestScheduler, EarliestArrivalAfterPartialPops) {
  RequestScheduler s;
  s.Submit(Req(1, 1.0, 100));
  s.Submit(Req(2, 2.0, 100));
  s.Submit(Req(3, 3.0, 100));
  EXPECT_EQ(s.EarliestArrival(100), 1.0);
  ReadRequest popped;
  ASSERT_TRUE(s.TakeFront(100, &popped));
  EXPECT_EQ(s.EarliestArrival(100), 2.0);
  ASSERT_TRUE(s.TakeFront(100, &popped));
  EXPECT_EQ(s.EarliestArrival(100), 3.0);
  ASSERT_TRUE(s.TakeFront(100, &popped));
  EXPECT_FALSE(s.TakeFront(100, &popped));
  EXPECT_FALSE(s.EarliestArrival(100).has_value());
  EXPECT_FALSE(s.HasRequests(100));
  EXPECT_EQ(s.pending_requests(), 0u);
  EXPECT_EQ(s.total_queued_bytes(), 0u);
}

TEST(RequestScheduler, RequeueRestoresFrontAndSelectionOrder) {
  // The drive-failure path: the oldest request was popped for serving, the
  // drive died, and the request must re-enter ahead of its younger siblings.
  RequestScheduler s;
  s.Submit(Req(1, 1.0, 100, 10));
  s.Submit(Req(2, 2.0, 100, 20));
  s.Submit(Req(3, 1.5, 200, 30));
  ReadRequest popped;
  ASSERT_TRUE(s.TakeFront(100, &popped));
  // With request 1 out, platter 200's 1.5 s arrival beats 100's 2.0 s.
  auto all = [](uint64_t) { return true; };
  EXPECT_EQ(s.SelectPlatter(all), 200u);

  s.Requeue(popped);
  EXPECT_EQ(s.SelectPlatter(all), 100u);  // oldest read leads again
  EXPECT_EQ(s.EarliestArrival(100), 1.0);
  EXPECT_EQ(s.QueuedBytes(100), 30u);
  EXPECT_EQ(s.pending_requests(), 3u);
  const auto drained = s.TakeRequests(100);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].id, 1u);
  EXPECT_EQ(drained[1].id, 2u);
}

TEST(RequestScheduler, RequeueIntoEmptyGroupAndReorderThrows) {
  RequestScheduler s;
  s.Submit(Req(1, 1.0, 100));
  const auto popped = s.TakeRequests(100);  // group now gone entirely
  ASSERT_EQ(popped.size(), 1u);
  s.Requeue(popped[0]);
  EXPECT_TRUE(s.HasRequests(100));
  EXPECT_EQ(s.EarliestArrival(100), 1.0);

  // Requeue is strictly a front-restore: pushing a request younger than the
  // current head would silently reorder arrivals, so it must throw.
  s.Submit(Req(2, 2.0, 100));
  EXPECT_THROW(s.Requeue(Req(9, 3.0, 100)), std::invalid_argument);
}

// ---------- Metadata ----------

TEST(Metadata, WriteLookupRoundTrip) {
  MetadataService meta;
  const auto v = meta.RecordWrite("acct/blob", 42, 7, 1000, 0xCAFE);
  EXPECT_EQ(v, 1u);
  const auto found = meta.Lookup("acct/blob");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->platter_id, 42u);
  EXPECT_EQ(found->start_sector_index, 7u);
  EXPECT_EQ(found->bytes, 1000u);
}

TEST(Metadata, OverwriteIsVersioned) {
  MetadataService meta;
  meta.RecordWrite("f", 1, 0, 10, 1);
  const auto v2 = meta.RecordWrite("f", 2, 5, 20, 2);
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(meta.Lookup("f")->platter_id, 2u);        // latest wins
  EXPECT_EQ(meta.LookupVersion("f", 1)->platter_id, 1u);  // old version reachable
}

TEST(Metadata, DeleteIsCryptoShredding) {
  MetadataService meta;
  meta.RecordWrite("f", 1, 0, 10, 1);
  EXPECT_TRUE(meta.Delete("f"));
  EXPECT_FALSE(meta.Lookup("f").has_value());
  EXPECT_FALSE(meta.Delete("f"));  // already gone
}

TEST(Metadata, RebuildFromPlatterHeaders) {
  PlatterHeader h1;
  h1.platter_id = 10;
  h1.files = {{.file_id = 1, .name = "a", .start_sector_index = 0, .size_bytes = 5},
              {.file_id = 2, .name = "b", .start_sector_index = 1, .size_bytes = 6}};
  PlatterHeader h2;
  h2.platter_id = 11;
  h2.files = {{.file_id = 3, .name = "c", .start_sector_index = 0, .size_bytes = 7}};

  const PlatterHeader headers[] = {h1, h2};
  const auto meta = MetadataService::RebuildFromHeaders(headers);
  EXPECT_EQ(meta.live_files(), 3u);
  EXPECT_EQ(meta.Lookup("b")->platter_id, 10u);
  EXPECT_EQ(meta.Lookup("c")->platter_id, 11u);
}

// ---------- Staging ----------

TEST(Staging, SmoothsBurstIntoSteadyDrain) {
  // A burst of 100 GB arriving instantly drains at 1 GB/s over 100 s.
  StagingBuffer staging({.drain_bytes_per_s = 1e9});
  staging.Ingest(0.0, 100ull * 1000 * 1000 * 1000);
  const auto report = staging.Finish();
  EXPECT_EQ(report.peak_occupancy_bytes, 100ull * 1000 * 1000 * 1000);
  EXPECT_NEAR(report.max_staging_delay_s, 100.0, 1.0);
}

TEST(Staging, UtilizationHighWhenProvisionedNearMean) {
  StagingBuffer staging({.drain_bytes_per_s = 100.0});
  // 1000 bytes/10 s = 100 B/s offered, matching the drain exactly.
  for (int t = 0; t < 100; ++t) {
    staging.Ingest(t * 10.0, 1000);
  }
  const auto report = staging.Finish();
  EXPECT_GT(report.write_drive_utilization, 0.95);
}

TEST(Staging, RequiredDrainRateShrinksWithWindow) {
  Rng rng(3);
  const auto daily = GenerateDailyIngress(180, rng);
  const double rate_1d = RequiredDrainRate(daily, 1);
  const double rate_30d = RequiredDrainRate(daily, 30);
  // Smoothing over a month cuts provisioning dramatically (Figure 2's point).
  EXPECT_LT(rate_30d, rate_1d / 3.0);
}

TEST(Staging, RejectsBadInput) {
  StagingBuffer staging({.drain_bytes_per_s = 1.0});
  staging.Ingest(5.0, 1);
  EXPECT_THROW(staging.Ingest(4.0, 1), std::invalid_argument);
  EXPECT_THROW(RequiredDrainRate({}, 1), std::invalid_argument);
}

// ---------- Archive statistics (Figures 1 and 2) ----------

TEST(ArchiveStats, WritesDominateReads) {
  Rng rng(5);
  const auto months = GenerateMonthlyOps(6, rng);
  ASSERT_EQ(months.size(), 6u);
  double ops_ratio_sum = 0.0;
  double bytes_ratio_sum = 0.0;
  for (const auto& m : months) {
    EXPECT_GT(m.OpsRatio(), 10.0);   // writes dominate by over an order of magnitude
    EXPECT_GT(m.BytesRatio(), 10.0);
    ops_ratio_sum += m.OpsRatio();
    bytes_ratio_sum += m.BytesRatio();
  }
  // Averages near the paper's 174x (ops) and 47x (bytes).
  EXPECT_NEAR(ops_ratio_sum / 6.0, 174.0, 90.0);
  EXPECT_NEAR(bytes_ratio_sum / 6.0, 47.0, 25.0);
}

TEST(ArchiveStats, TailOverMedianSpansOrders) {
  Rng rng(7);
  const auto quiet = GenerateHourlyReadRates(24 * 180, 1.5, rng);
  const auto bursty = GenerateHourlyReadRates(24 * 180, 5.0, rng);
  EXPECT_GT(TailOverMedian(quiet), 10.0);
  EXPECT_GT(TailOverMedian(bursty), 1e5);
  EXPECT_LT(TailOverMedian(quiet), TailOverMedian(bursty));
}

TEST(ArchiveStats, IngressBurstyDailySmoothMonthly) {
  Rng rng(9);
  StreamingStats daily_pom;
  StreamingStats monthly_pom;
  for (int trial = 0; trial < 20; ++trial) {
    const auto series = GenerateDailyIngress(180, rng);
    daily_pom.Add(PeakOverMean(series, 1));
    monthly_pom.Add(PeakOverMean(series, 30));
  }
  EXPECT_NEAR(daily_pom.mean(), 16.0, 6.0);   // ~16x at day granularity
  EXPECT_NEAR(monthly_pom.mean(), 2.0, 1.0);  // ~2x at 30 days
  EXPECT_GT(daily_pom.mean(), 4.0 * monthly_pom.mean());
}

TEST(ArchiveStats, PeakOverMeanMonotoneInWindow) {
  Rng rng(11);
  const auto series = GenerateDailyIngress(180, rng);
  double last = 1e18;
  for (int w : {1, 5, 10, 30, 60}) {
    const double pom = PeakOverMean(series, w);
    EXPECT_LE(pom, last + 1e-9) << "window " << w;
    last = pom;
  }
}

// ---------- Cost model (Table 2) ----------

TEST(CostModel, SilicaCheaperOverLongHorizons) {
  const auto tape = TotalCostOfOwnership(TapeTechnology(), 1000.0, 50.0, 0.05);
  const auto silica = TotalCostOfOwnership(SilicaTechnology(), 1000.0, 50.0, 0.05);
  EXPECT_LT(silica.total(), tape.total());
  // The gap comes from maintenance and refresh, not from writes.
  EXPECT_LT(silica.media_maintenance, tape.media_maintenance / 5.0);
  EXPECT_LT(silica.media_manufacturing, tape.media_manufacturing);
}

TEST(CostModel, SilicaWritesAreItsExpensivePart) {
  // Write drives (femtosecond lasers) dominate Silica system cost (Section 9).
  const auto silica = SilicaTechnology();
  EXPECT_GT(silica.write_drive_cost_per_tb, silica.read_drive_cost_per_tb);
  const auto tape = TapeTechnology();
  EXPECT_GT(silica.write_drive_cost_per_tb, tape.write_drive_cost_per_tb);
}

TEST(CostModel, CostGapGrowsWithHorizon) {
  const double tb = 100.0;
  const auto t10 = TotalCostOfOwnership(TapeTechnology(), tb, 10, 0.05).total() /
                   TotalCostOfOwnership(SilicaTechnology(), tb, 10, 0.05).total();
  const auto t100 = TotalCostOfOwnership(TapeTechnology(), tb, 100, 0.05).total() /
                    TotalCostOfOwnership(SilicaTechnology(), tb, 100, 0.05).total();
  EXPECT_GT(t100, t10);  // "costs of archival data on magnetic media increase over time"
}

TEST(CostModel, QualitativeTableMatchesPaper) {
  const auto rows = QualitativeComparison();
  ASSERT_EQ(rows.size(), 7u);
  // Silica is Low everywhere except the write process, which is High.
  for (const auto& row : rows) {
    if (row.aspect.find("write process") != std::string::npos) {
      EXPECT_EQ(row.silica, CostLevel::kHigh);
      EXPECT_EQ(row.tape, CostLevel::kMedium);
    } else {
      EXPECT_EQ(row.silica, CostLevel::kLow);
    }
  }
}

}  // namespace
}  // namespace silica
