// Per-layer metrics. Every workload reports the same per-layer set, so each
// emitter takes its inputs by pointer and reports zeros when the layer is not
// on that workload's path (the prediction there is "no change").
#ifndef PERFBENCH_CPP_LAYERS_H_
#define PERFBENCH_CPP_LAYERS_H_

#include <cstdint>

#include "core/library_sim.h"
#include "federation/federation.h"
#include "frontend/frontend.h"
#include "harness.h"
#include "telemetry/metrics.h"

namespace perfbench {

// sim, core control / drives / write / scrub, library, faults, ecc lazy.
struct TwinLayerInputs {
  const silica::LibrarySimResult* result = nullptr;  // summed over libraries
  const silica::MetricsRegistry* metrics = nullptr;  // null: no twin telemetry
  double replay_host_s = 0.0;     // median untraced replay, CPU seconds
  double slice_host_s_max = 0.0;  // costliest simulated hour, wall seconds
  uint64_t client_requests = 0;
};
void EmitTwinLayers(Report& report, const TwinLayerInputs* in);

struct FederationLayerInputs {
  const silica::FederationResult* result = nullptr;
  double replay_host_s = 0.0;  // median untraced replay, CPU seconds
  double thread_speedup = 0.0;  // 1-thread time / N-thread time
};
void EmitFederationLayers(Report& report, const FederationLayerInputs* in);

// frontend, core service + pipeline, and the channel / ecc stage replay.
struct ArchiveLayerInputs {
  const silica::FrontEnd::Counters* counters = nullptr;
  const silica::MetricsRegistry* metrics = nullptr;  // service telemetry
  uint64_t not_found = 0;
  double submit_host_us_p50 = 0.0;
  double pump_host_s = 0.0;
  double scrub_host_ms_p50 = 0.0;
  // Stage replay, host microseconds per sector (per reconstructed sector for
  // network coding).
  double read_us_per_sector = 0.0;
  double soft_decode_us_per_sector = 0.0;
  double ldpc_us_per_sector = 0.0;
  double nc_us_per_sector = 0.0;
};
void EmitArchiveLayers(Report& report, const ArchiveLayerInputs* in);

// failed_fraction and telemetry.overhead (traced ÷ untraced median replay
// time − 1), which every workload reports.
void EmitSharedLayers(Report& report, const Timings& timings, uint64_t failed,
                      uint64_t attempted);

// The tail quantile every twin workload reports; the run fails unless at least
// SamplesForTail(kTwinTailQuantile) measured-window reads back it.
inline constexpr double kTwinTailQuantile = 0.999;

// End-to-end metrics of the twin workloads: set-up time, peak RSS, client
// reads resolved per CPU second of the simulate call, and completion-time
// percentiles over measured-window reads.
void ReportTwinEndToEnd(Report& report, const Timings& timings, uint64_t clients,
                        const silica::PercentileTracker& completion);

// Per-repetition rates `amount / replay seconds`.
Samples RatesOver(const Samples& replay_s, double amount);

// Sums a federation's per-library results into one result the twin emitters
// can read (counters add, percentile samples merge).
silica::LibrarySimResult SumLibraries(
    const std::vector<silica::LibrarySimResult>& libraries);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_LAYERS_H_
