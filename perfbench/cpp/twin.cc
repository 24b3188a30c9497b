// The standalone library-twin workloads: `fleet` (control plane at 256
// shuttles) and `durability` (aging, scrub, lazy repair, rack outages).
//
// The reference repetition calls SimulateLibrary. Timed untraced repetitions
// drive the same inputs through LibraryTwin in one RunUntil, so twin
// construction counts as set-up; traced repetitions attach a Telemetry
// registry and run in one-hour RunUntil slices. The library promises all
// three are byte-identical, and the determinism gates hold it to that.
#include <algorithm>
#include <atomic>
#include <memory>

#include "common/rng.h"
#include "core/library_sim.h"
#include "gates.h"
#include "sim/simulator.h"
#include "layers.h"
#include "telemetry/telemetry.h"
#include "workload/trace_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct TwinInputs {
  silica::LibrarySimConfig config;
  silica::ReadTrace trace;
};

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  return silica::Rng(seed).Fork(tag).NextU64();
}

// bench_traffic's 256-shuttle cell: one partition per shuttle, drives and
// storage racks grown with the fleet, and a read burst skewed toward low
// platter ids (u^2 placement) so stealing, congestion routing and
// repartitioning all engage.
TwinInputs BuildFleet(uint64_t seed) {
  constexpr int kShuttles = 256;
  constexpr uint64_t kRequestsPerShuttle = 600;
  constexpr double kWindowS = 2.0 * 3600.0;
  constexpr uint64_t kReadBytes = 64ull << 20;

  TwinInputs in;
  auto& lib = in.config.library;
  lib.policy = silica::LibraryConfig::Policy::kPartitioned;
  lib.num_shuttles = kShuttles;
  lib.drives_per_read_rack = std::max(5, (kShuttles + 1) / 2);
  const uint64_t platters = 40ull * kShuttles;
  const uint64_t with_redundancy = platters + (platters + 15) / 16 * 3;
  const uint64_t per_rack = static_cast<uint64_t>(lib.shelves * lib.slots_per_shelf);
  lib.storage_racks =
      std::max(7, static_cast<int>((with_redundancy + per_rack - 1) / per_rack));
  lib.work_stealing = true;
  lib.congestion_aware_routing = true;
  lib.repartition_interval_s = 600.0;
  in.config.num_info_platters = platters;
  in.config.seed = SubSeed(seed, 1);
  // Measure the middle of the burst; the first and last quarter hour are
  // warm-up and drain.
  in.config.measure_start = 0.25 * 3600.0;
  in.config.measure_end = kWindowS - 0.25 * 3600.0;

  silica::Rng rng(SubSeed(seed, 2));
  const uint64_t requests = kRequestsPerShuttle * kShuttles;
  in.trace.reserve(requests);
  for (uint64_t i = 0; i < requests; ++i) {
    silica::ReadRequest r;
    r.id = i + 1;
    r.arrival = rng.NextDouble() * kWindowS;
    const double u = rng.NextDouble();
    r.platter = std::min<uint64_t>(
        platters - 1, static_cast<uint64_t>(u * u * static_cast<double>(platters)));
    r.file_id = r.id;
    r.bytes = kReadBytes;
    in.trace.push_back(r);
  }
  std::sort(in.trace.begin(), in.trace.end(),
            [](const silica::ReadRequest& a, const silica::ReadRequest& b) {
              return a.arrival != b.arrival ? a.arrival < b.arrival : a.id < b.id;
            });
  return in;
}

// A paper-scale library (20 shuttles, 3,000 information platters) under a
// steady Poisson read trace, with media aging, background scrub, lazy
// budgeted repair and frequent short rack (blast-zone) outages.
//
// Aging strikes only damage the on-platter tiers repair (LDPC retry,
// within-track and large-group network coding), which is what scrub detects
// and the lazy queue drains. Platter-set (tier 3) damage is left out: one
// rebuild streams 16 full production-scale platters (~2 TB each) through 16
// of the 20 read drives for about ten simulated hours, so whether a run draws
// zero or a few rebuilds moved p50 from ~18 s to ~3,300 s between seeds.
TwinInputs BuildDurability(uint64_t seed) {
  constexpr uint64_t kPlatters = 3000;
  silica::TraceProfile profile = silica::TraceProfile::SteadyPoisson(
      0.15, 64.0 * 1024 * 1024, SubSeed(seed, 2));
  profile.window_s = 48.0 * 3600.0;
  profile.warmup_s = 1.0 * 3600.0;
  profile.cooldown_s = 1.0 * 3600.0;
  silica::GeneratedTrace trace = silica::GenerateTrace(profile, kPlatters);

  TwinInputs in;
  in.config.library.policy = silica::LibraryConfig::Policy::kPartitioned;
  in.config.library.num_shuttles = 20;
  in.config.library.drive_throughput_mbps = 60.0;
  in.config.num_info_platters = kPlatters;
  in.config.seed = SubSeed(seed, 1);
  in.config.measure_start = trace.measure_start;
  in.config.measure_end = trace.measure_end;
  in.config.faults.aging = silica::MediaAgingConfig::Exponential(30.0 * 86400.0);
  in.config.faults.aging.tier_weights[static_cast<int>(
      silica::RepairTier::kPlatterSet)] = 0.0;
  in.config.faults.rack = silica::FaultProcess::Exponential(6.0 * 3600.0, 300.0);
  in.config.faults.inject_until_s = trace.measure_end;
  in.config.scrub.enabled = true;
  in.config.scrub.platter_interval_s = 3.0 * 3600.0;
  in.config.scrub.track_sample_fraction = 0.05;
  in.config.lazy_repair.enabled = true;
  in.config.lazy_repair.bandwidth_bytes_per_s = 16.0 * 1024 * 1024;
  in.trace = std::move(trace.requests);
  return in;
}

using InputsFn = TwinInputs (*)(uint64_t);
using Mechanisms = void (*)(const silica::LibrarySimResult&, Report&);

void FleetMechanisms(const silica::LibrarySimResult& r, Report& report) {
  report.Gate("mechanism", "work_steals", r.work_steals > 0,
              std::to_string(r.work_steals));
  report.Gate("mechanism", "repartitions", r.repartitions > 0,
              std::to_string(r.repartitions));
  report.Gate("mechanism", "congestion_detours", r.congestion_detours > 0,
              std::to_string(r.congestion_detours));
}

void DurabilityMechanisms(const silica::LibrarySimResult& r, Report& report) {
  const auto& s = r.scrub;
  report.Gate("mechanism", "scrub_passes", s.scrubs_completed > 0,
              std::to_string(s.scrubs_completed));
  report.Gate("mechanism", "lazy_drains", s.lazy_drained > 0,
              std::to_string(s.lazy_drained));
  report.Gate("mechanism", "rack_failures", r.faults.rack_failures > 0,
              std::to_string(r.faults.rack_failures));
  report.Gate("correctness", "repair_ledger_conservation", RepairConserves(r),
              "detected " + std::to_string(s.ledger.detected) + ", unrecoverable " +
                  std::to_string(s.ledger.unrecoverable));
  silica::LibrarySimResult broken = r;
  ++broken.scrub.ledger.detected;
  report.Gate("self_check", "repair_ledger_gate_rejects_leak",
              !RepairConserves(broken));
}

// Traced repetition: Telemetry attached, the run sliced into simulated hours.
struct TracedRep {
  silica::LibrarySimResult result;
  std::unique_ptr<silica::Telemetry> telemetry;
  double replay_s = 0.0;     // CPU seconds
  double slice_max_s = 0.0;  // wall seconds
};

TracedRep RunTraced(TwinInputs in, SpanRecorder& spans, uint64_t parent) {
  TracedRep rep;
  rep.telemetry = std::make_unique<silica::Telemetry>();
  in.config.telemetry = rep.telemetry.get();
  const uint64_t setup = spans.Begin("LibraryTwin.setup", parent);
  silica::LibraryTwin twin(in.config, std::move(in.trace));
  twin.Prologue();
  spans.End(setup);
  const uint64_t replay = spans.Begin("LibraryTwin.replay", parent);
  const double cpu0 = CpuSeconds(CpuClock::kThread);
  for (double until = 3600.0; !twin.Idle(); until += 3600.0) {
    const uint64_t slice = spans.Begin("LibraryTwin.RunUntil", replay);
    twin.RunUntil(until);
    rep.slice_max_s = std::max(rep.slice_max_s, spans.End(slice));
  }
  rep.result = twin.Finish();
  rep.replay_s = CpuSeconds(CpuClock::kThread) - cpu0;
  spans.End(replay);
  return rep;
}

void RunTwin(const Options& options, Report& report, InputsFn build,
             Mechanisms mechanisms) {
  SpanRecorder spans(options.trace,
                     options.workload + "-" + std::to_string(options.seed));
  const uint64_t root = spans.Begin("workload." + options.workload, 0);

  silica::LibrarySimResult first;
  uint64_t first_hash = 0;
  uint64_t clients = 0;
  std::atomic<bool> repeats_identical{true};  // written by concurrent reps
  bool traced_identical = true;
  TracedRep traced;
  Samples slice_max_s;
  const Timings t = MeasureReps(
      options, CpuClock::kThread,
      [&](int rep) {
        if (rep == 0) {
          const TwinInputs in = build(options.seed);
          first = silica::SimulateLibrary(in.config, in.trace);
          first_hash = ResultHash(first);
          clients = in.trace.size();
          return RepTiming{};
        }
        // Timed repetitions split SimulateLibrary into set-up (inputs, twin
        // construction, Prologue) and the simulate call proper.
        const HostInstant t0 = HostNow(CpuClock::kThread);
        TwinInputs in = build(options.seed);
        silica::LibraryTwin twin(in.config, std::move(in.trace));
        twin.Prologue();
        const HostInstant t1 = HostNow(CpuClock::kThread);
        twin.RunUntil(silica::Simulator::kForever);
        const silica::LibrarySimResult result = twin.Finish();
        const HostInstant t2 = HostNow(CpuClock::kThread);
        if (ResultHash(result) != first_hash) {
          repeats_identical = false;
        }
        return Between(t0, t1, t2);
      },
      [&](int) {
        const uint64_t setup = spans.Begin("setup", root);
        const double cpu0 = CpuSeconds(CpuClock::kThread);
        TwinInputs in = build(options.seed);
        const double setup_s = CpuSeconds(CpuClock::kThread) - cpu0;
        spans.End(setup);
        TracedRep r = RunTraced(std::move(in), spans, root);
        traced_identical = traced_identical && ResultHash(r.result) == first_hash;
        slice_max_s.Add(r.slice_max_s);
        const RepTiming timing{setup_s, r.replay_s};
        if (traced.telemetry == nullptr) {
          traced = std::move(r);
        }
        return timing;
      },
      [&] {
        TwinInputs in = build(options.seed);
        auto twin =
            std::make_unique<silica::LibraryTwin>(in.config, std::move(in.trace));
        twin->Prologue();
        return twin;
      });
  spans.End(root);

  report.Gate("determinism", "repeated_runs_identical", repeats_identical,
              std::to_string(t.replay_s.count() + 1) + " runs, hash " +
                  Hex(first_hash));
  if (options.trace) {
    report.Gate("determinism", "traced_equals_untraced", traced_identical,
                "result hash " + Hex(first_hash));
  }
  report.Gate("correctness", "twin_conservation", TwinConserves(first),
              std::to_string(first.requests_completed) + " + " +
                  std::to_string(first.requests_failed) + " of " +
                  std::to_string(first.requests_total));
  silica::LibrarySimResult leaky = first;
  ++leaky.requests_total;
  report.Gate("self_check", "twin_gate_rejects_leak", !TwinConserves(leaky));
  const uint64_t tail_samples = first.completion_times.count();
  report.Gate("samples", "p999_window_requests",
              tail_samples >= SamplesForTail(kTwinTailQuantile),
              std::to_string(tail_samples) + " measured-window reads");
  mechanisms(first, report);
  report.CountAttempts(clients, first.requests_failed);

  ReportTwinEndToEnd(report, t, clients, first.completion_times);
  report.Note("result_hash", JsonString(Hex(first_hash)));

  // Per-layer metrics come from the traced repetitions when there are any.
  TwinLayerInputs layers;
  layers.result = options.trace ? &traced.result : &first;
  layers.metrics = options.trace ? &traced.telemetry->metrics : nullptr;
  layers.replay_host_s = t.replay_s.Median();
  layers.slice_host_s_max = slice_max_s.Median();
  layers.client_requests = clients;
  EmitTwinLayers(report, &layers);
  EmitFederationLayers(report, nullptr);
  EmitArchiveLayers(report, nullptr);
  EmitSharedLayers(report, t, first.requests_failed, clients);
  report.Note("slice_host_s_max", TimingJson(slice_max_s));
  if (options.trace) {
    report.Gate("correctness", "spans_written", spans.WriteJson(options.spans_path),
                options.spans_path);
  }
}

}  // namespace

void RunFleet(const Options& options, Report& report) {
  RunTwin(options, report, BuildFleet, FleetMechanisms);
}

void RunDurability(const Options& options, Report& report) {
  RunTwin(options, report, BuildDurability, DurabilityMechanisms);
}

}  // namespace perfbench
