// The `geo` workload: four paper-scale libraries federated under conservative
// epochs, with geo-routed reads, cross-site replication writes through the
// explicit write pipeline, shuttle and drive failures, and media aging.
//
// Scrub stays off: with the explicit write pipeline on, the twin accepts a
// scrub config but runs no scrub passes, so it would add nothing to measure.
#include <algorithm>
#include <atomic>
#include <memory>

#include "common/rng.h"
#include "federation/federation.h"
#include "gates.h"
#include "layers.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  return silica::Rng(seed).Fork(tag).NextU64();
}

silica::FederationConfig BuildGeo(uint64_t seed, int threads) {
  silica::FederationConfig fc;
  silica::LibrarySimConfig& lib = fc.library;
  lib.library.policy = silica::LibraryConfig::Policy::kPartitioned;
  lib.library.num_shuttles = 20;
  lib.library.drive_throughput_mbps = 60.0;
  lib.num_info_platters = 3000;

  fc.profile = silica::TraceProfile::SteadyPoisson(0.2, 64.0 * 1024 * 1024,
                                                   SubSeed(seed, 2));
  fc.profile.window_s = 6.0 * 3600.0;
  fc.profile.warmup_s = 0.5 * 3600.0;
  fc.profile.cooldown_s = 0.5 * 3600.0;
  lib.measure_start = fc.profile.measure_start();
  lib.measure_end = fc.profile.measure_end();

  lib.write_platters_per_hour = 2.0;
  lib.write_until = fc.profile.measure_end();
  lib.faults.shuttle = silica::FaultProcess::Exponential(12.0 * 3600.0, 1800.0);
  lib.faults.drive = silica::FaultProcess::Exponential(12.0 * 3600.0, 1800.0);
  lib.faults.aging = silica::MediaAgingConfig::Exponential(60.0 * 86400.0);
  lib.faults.inject_until_s = fc.profile.measure_end();

  fc.num_libraries = 4;
  fc.replication = 2;
  fc.tenants = 64;
  // Moderate skew: at sigma 0.5 the hottest site of some seeds saturates and
  // p50 moved by half between seeds.
  fc.demand_skew_sigma = 0.25;
  fc.geo_read_fraction = 0.1;
  // Effective latency of platter-scale bulk transfers, as bench_federation
  // uses. With the 5 s + 1 s default the run took ~6,500 one-millisecond
  // epochs and its host time swung by up to 3x when the machine's other
  // tenants stalled a core; at 35 s lookahead it takes ~1,200.
  fc.base_latency_s = 30.0;
  fc.hop_latency_s = 5.0;
  fc.replication_writes_per_hour = 1.0;
  fc.replication_until_s = fc.profile.measure_end();
  fc.threads = threads;
  fc.seed = SubSeed(seed, 1);
  return fc;
}

// Client reads: every local read plus every geo-routed read (counted once).
uint64_t CountClients(const silica::FederationWorkload& fw) {
  uint64_t count = fw.workload.geo.size();
  for (const silica::ReadTrace& trace : fw.workload.local) {
    count += trace.size();
  }
  return count;
}

}  // namespace

void RunGeo(const Options& options, Report& report) {
  SpanRecorder spans(options.trace, "geo-" + std::to_string(options.seed));
  const uint64_t root = spans.Begin("workload.geo", 0);

  // The reference repetition runs the federation on options.threads
  // threads. Timed repetitions run it on one thread, which the epoch scheme
  // promises is byte-identical, so that an untraced run can replay
  // options.threads of them at once on the thread clock like the standalone
  // twins (see MeasureReps): the multi-threaded call's host time rises and
  // falls with every core's load at once, and its CPU time spread about 0.25
  // over six seeds on a shared 4-vCPU host. The traced run times it once.
  silica::FederationResult first;
  uint64_t first_hash = 0;
  uint64_t clients = 0;
  std::atomic<uint64_t> serial_hash{0};  // first one-thread result seen
  std::atomic<bool> repeats_identical{true};
  auto check_serial = [&](uint64_t hash) {
    uint64_t expected = 0;
    if (!serial_hash.compare_exchange_strong(expected, hash) && expected != hash) {
      repeats_identical = false;
    }
  };
  bool traced_identical = true;
  silica::FederationResult traced;
  std::unique_ptr<silica::Telemetry> telemetry;
  auto setup = [&] {
    const silica::FederationConfig config = BuildGeo(options.seed, 1);
    const uint64_t c = CountClients(silica::BuildFederationWorkload(config));
    return std::make_pair(config, c);
  };
  const Timings t = MeasureReps(
      options, CpuClock::kThread,
      [&](int rep) {
        if (rep == 0) {
          const silica::FederationConfig config =
              BuildGeo(options.seed, options.threads);
          clients = CountClients(silica::BuildFederationWorkload(config));
          first = silica::SimulateFederation(config);
          first_hash = ResultHash(first);
          return RepTiming{};
        }
        const HostInstant t0 = HostNow(CpuClock::kThread);
        const auto [config, c] = setup();
        const HostInstant t1 = HostNow(CpuClock::kThread);
        const silica::FederationResult result = silica::SimulateFederation(config);
        const HostInstant t2 = HostNow(CpuClock::kThread);
        check_serial(ResultHash(result));
        return Between(t0, t1, t2);
      },
      [&](int) {
        const uint64_t setup_span = spans.Begin("setup", root);
        const HostInstant t0 = HostNow(CpuClock::kThread);
        auto [config, c] = setup();
        auto tel = std::make_unique<silica::Telemetry>();
        config.telemetry = tel.get();
        const HostInstant t1 = HostNow(CpuClock::kThread);
        spans.End(setup_span);
        const uint64_t call = spans.Begin("SimulateFederation", root);
        silica::FederationResult result = silica::SimulateFederation(config);
        const HostInstant t2 = HostNow(CpuClock::kThread);
        spans.End(call);
        traced_identical = traced_identical && ResultHash(result) == first_hash;
        if (telemetry == nullptr) {
          traced = std::move(result);
          telemetry = std::move(tel);
        }
        return Between(t0, t1, t2);
      },
      setup);

  const std::string threads = std::to_string(options.threads) + " threads";
  report.Gate("determinism", "repeated_runs_identical", repeats_identical,
              std::to_string(t.replay_s.count()) + " one-thread runs");
  report.Gate("determinism", "one_thread_equals_n_threads",
              repeats_identical && serial_hash == first_hash,
              "1 thread vs the reference run on " + threads + ", hash " +
                  Hex(first_hash));
  double threaded_s = 0.0;
  if (options.trace) {
    // The federation on options.threads threads, against the one-thread
    // untraced repetitions: the speedup figure, both on the wall clock.
    const uint64_t call = spans.Begin("SimulateFederation.threaded", root);
    silica::SimulateFederation(BuildGeo(options.seed, options.threads));
    threaded_s = spans.End(call);
    report.Gate("determinism", "traced_equals_untraced", traced_identical,
                "result hash " + Hex(first_hash));
  }
  spans.End(root);

  const silica::LibrarySimResult sum = SumLibraries(first.libraries);
  std::string why;
  report.Gate("correctness", "federation_conservation",
              FederationConserves(first, &why), why);
  silica::FederationResult leaky = first;
  ++leaky.messages_sent;
  report.Gate("self_check", "federation_gate_rejects_leak",
              !FederationConserves(leaky, &why));
  report.Gate("mechanism", "geo_reads_delivered", first.geo_completed > 0,
              std::to_string(first.geo_completed));
  report.Gate("mechanism", "replication_writes", first.replication_writes > 0,
              std::to_string(first.replication_writes));
  report.Gate("mechanism", "platters_verified", sum.platters_verified > 0,
              std::to_string(sum.platters_verified));
  report.Gate("mechanism", "shuttle_failures", sum.faults.shuttle_failures > 0,
              std::to_string(sum.faults.shuttle_failures));
  report.Gate("mechanism", "drive_failures", sum.faults.drive_failures > 0,
              std::to_string(sum.faults.drive_failures));
  report.Gate("mechanism", "aging_events", sum.scrub.aging_events > 0,
              std::to_string(sum.scrub.aging_events));

  // Client reads: local reads (each library's completion times, which also
  // hold the serving leg of reads forwarded to it; the result has no split)
  // merged with geo reads timed from client arrival to response.
  silica::PercentileTracker completion = sum.completion_times;
  completion.Merge(first.geo_completion_times);
  report.Gate("samples", "p999_window_requests",
              completion.count() >= SamplesForTail(kTwinTailQuantile),
              std::to_string(completion.count()) + " measured-window reads");
  // Failed client reads: local reads that failed (a forwarded read failing at
  // its serving library counts once, as a geo failure), plus geo reads that
  // found no live replica or failed.
  const uint64_t failed = sum.requests_failed - sum.federation.injected_failed +
                          first.geo_unroutable + first.geo_failed;
  report.CountAttempts(clients, failed);

  ReportTwinEndToEnd(report, t, clients, completion);
  report.Note("result_hash", JsonString(Hex(first_hash)));

  const silica::FederationResult& layer_result = options.trace ? traced : first;
  const silica::LibrarySimResult layer_sum = SumLibraries(layer_result.libraries);
  TwinLayerInputs twin;
  twin.result = &layer_sum;
  twin.replay_host_s = t.replay_s.Median();
  twin.client_requests = clients;
  EmitTwinLayers(report, &twin);
  FederationLayerInputs fed;
  fed.result = &layer_result;
  fed.replay_host_s = t.replay_s.Median();
  fed.thread_speedup = options.trace ? t.replay_wall_s.Median() / threaded_s : 0.0;
  EmitFederationLayers(report, &fed);
  EmitArchiveLayers(report, nullptr);
  EmitSharedLayers(report, t, failed, clients);
  if (options.trace) {
    // The registry's federation counters must agree with the result struct.
    const silica::MetricsRegistry& m = telemetry->metrics;
    report.Gate("correctness", "telemetry_matches_result",
                m.CounterValue("fed_epochs_total") ==
                        static_cast<double>(traced.epochs) &&
                    m.CounterValue("fed_messages_sent_total") ==
                        static_cast<double>(traced.messages_sent),
                "fed_epochs_total, fed_messages_sent_total");
    report.Gate("correctness", "spans_written", spans.WriteJson(options.spans_path),
                options.spans_path);
  }
}

}  // namespace perfbench
