// The full-system discrete event simulation of a Silica library — the digital twin
// used for every experiment in Section 7.
//
// It combines: the panel geometry and mechanical latency models measured on the
// prototype (library/), the controller's scheduler and traffic manager (core/), and
// a read trace (workload/). Three control-plane policies are supported, matching the
// paper's evaluated systems:
//   - Silica   : partitioned traffic management with optional work stealing;
//   - SP       : shortest-path free-for-all (strawman baseline);
//   - NS       : no shuttles — platters teleport to drives (infeasible lower bound).
//
// Read drives model the dual-slot design: a verification platter is always mounted
// (Section 7.2), customer traffic preempts verification via 1 s fast switching, and
// utilization is accounted per Figure 6 (mount/seek/read and verify count toward
// utilization; fast switching does not).
#ifndef SILICA_CORE_LIBRARY_SIM_H_
#define SILICA_CORE_LIBRARY_SIM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/request.h"
#include "core/scrub.h"
#include "ecc/lazy_repair.h"
#include "ecc/repair.h"
#include "faults/fault_injector.h"
#include "library/panel.h"
#include "media/geometry.h"

namespace silica {

struct Telemetry;

// Requests injected into a twin by the federation layer (geo-routed read
// forwards, cross-library repair reads) carry ids at or above this base, far
// above any trace id and below the recovery sub-read base (1 << 62), so the
// three id spaces never collide.
inline constexpr uint64_t kFederatedIdBase = 1ull << 61;

// Outbound callbacks a federation driver installs on a twin. Both fire
// synchronously inside the twin's event loop (single-threaded per twin); the
// driver records them into its per-library outbox and turns them into
// latency-delayed messages at the next epoch barrier. A null hooks pointer
// (the default) leaves the twin's behavior — and its RNG/event order —
// bit-identical to a build without federation.
struct FederationHooks {
  // An injected request (id >= kFederatedIdBase) resolved at its root.
  std::function<void(uint64_t fed_id, double time, bool failed)> on_resolve;
  // A platter rebuild exhausted local redundancy: `sectors` are unrecoverable
  // from this library alone and need a cross-library repair transfer.
  std::function<void(uint64_t platter, uint64_t sectors, double time)>
      on_data_loss;
};

struct LibrarySimConfig {
  LibraryConfig library;
  MediaGeometry media = MediaGeometry::ProductionScale();

  uint64_t num_info_platters = 3000;  // platters holding user data
  int platter_set_info = 16;          // I_p
  int platter_set_redundancy = 3;     // R_p

  uint64_t seed = 1;

  // Requests arriving inside [measure_start, measure_end] contribute to the
  // completion-time statistics (the trace includes warm-up / cool-down outside it).
  double measure_start = 0.0;
  double measure_end = 1e30;

  // Fraction of platters unavailable (shuttle / drive failures, Figure 8); reads to
  // them are served through cross-platter network coding with I_p-way amplification.
  double unavailable_fraction = 0.0;

  // Explicit write pipeline (Section 3.1). When > 0 the write drive ejects this
  // many platters per hour until `write_until`; each must be fully read back on a
  // read drive before it counts as durably stored, and shuttles move it from the
  // eject bay to a drive and finally to its storage slot. When 0 (the paper's
  // evaluation methodology), a verification backlog is assumed always mounted.
  double write_platters_per_hour = 0.0;
  double write_until = 12.0 * 3600.0;

  // Runtime shuttle failures: (time, shuttle id) pairs. A failed shuttle finishes
  // its current job and leaves service; the controller detects it and the
  // remaining shuttles (and work stealing) absorb its partition's load. Static
  // blast-zone unavailability is modeled separately via unavailable_fraction.
  std::vector<std::pair<double, int>> shuttle_failures;

  // Scenario knobs for stress experiments (all default-off => byte-identical
  // event order to a build without them).
  //
  // Fleet loss: this fraction of the shuttle fleet (highest ids first, so the
  // survivors keep their partition assignments) fails at t = 0, exercising the
  // orphaned-partition steal path at scale.
  double fleet_loss_fraction = 0.0;
  // Partition blackout: every read drive of the partition goes down at
  // blackout_start_s and is repaired blackout_duration_s later. Requires the
  // partitioned policy; -1 disables.
  int blackout_partition = -1;
  double blackout_start_s = 0.0;
  double blackout_duration_s = 0.0;
  // Write-rack surge: within [start, start + duration) the write drive ejects
  // platters at write_platters_per_hour * write_surge_factor, colliding the
  // verify pipeline with the read burst. Factor 1 disables.
  double write_surge_start_s = 0.0;
  double write_surge_duration_s = 0.0;
  double write_surge_factor = 1.0;

  // Dynamic fault injection (src/faults): time-varying shuttle breakdowns
  // (aborted mid-transit), read-drive failures (sessions resume on repair), and
  // rack/blast-zone outages (resident platters go dark and reads amplify into
  // platter-set recovery, per outage interval). Disabled by default; when
  // disabled the twin's behavior is bit-identical to a build without it.
  FaultConfig faults;

  // Background scrub + repair orchestration (src/core/scrub.h). Requires media
  // aging (faults.aging) to have anything to find, but also runs without it
  // (pure verification sweeps). When enabled, drives no longer assume the
  // abstract always-mounted verification backlog: their verify slots are fed by
  // the scrubber, and customer traffic preempts via the same 1 s fast switch.
  ScrubConfig scrub;

  // Lazy bandwidth-budgeted repair (DESIGN.md section 17). When enabled (needs
  // scrub), on-platter repair tiers detected by scrub passes are admitted to a
  // global queue ordered by remaining set redundancy and drained under
  // `bandwidth_bytes_per_s` instead of being repaired inline on the detecting
  // drive's verify clock. Tier-3 rebuilds stay eager (the last line of
  // defense). Default-off => byte-identical event order to the eager twin.
  LazyRepairConfig lazy_repair;

  // Optional federation callbacks (not owned). Set only by FederationSim;
  // nullptr (the default) keeps the standalone twin bit-identical to a build
  // without federation.
  const FederationHooks* federation = nullptr;

  // Optional observability (not owned). When set, the twin publishes live metrics
  // (queue depths, drive time split, congestion, steals, completion histograms) and
  // simulation-time trace spans for every shuttle, drive, and scheduler into it.
  // nullptr (the default) keeps the hot path free of telemetry work.
  Telemetry* telemetry = nullptr;
};

struct LibrarySimResult {
  // Completion times (seconds) of measured-window requests.
  PercentileTracker completion_times;
  uint64_t requests_total = 0;
  uint64_t requests_completed = 0;
  uint64_t recovery_reads = 0;  // sub-reads issued for unavailable platters
  double makespan = 0.0;        // time of the last completion

  // Shuttle travel.
  uint64_t travels = 0;
  PercentileTracker travel_times;
  double congestion_wait_total = 0.0;
  double expected_travel_total = 0.0;
  uint64_t congestion_stops = 0;

  // Energy (relative units, Figure 7(b)).
  double travel_energy_total = 0.0;
  uint64_t platter_operations = 0;  // pick+place pairs

  // Drive time accounting (Figure 6), summed over drives.
  double drive_read_seconds = 0.0;
  double drive_verify_seconds = 0.0;
  double drive_switch_seconds = 0.0;
  double drive_idle_seconds = 0.0;

  uint64_t work_steals = 0;
  uint64_t shuttle_recharges = 0;

  // Control-plane scale accounting. `events_executed` is the simulator's event
  // count for the run (the numerator of bench_traffic's events/sec).
  // `congestion_detours` counts traversals the congestion-aware router sent
  // down a lane other than the target shelf's. Repartition steps record the
  // dynamic split/merge history in execution order.
  uint64_t events_executed = 0;
  uint64_t congestion_detours = 0;
  uint64_t repartitions = 0;
  struct RepartitionEvent {
    double time = 0.0;
    int hot = 0;
    int cold = 0;
  };
  std::vector<RepartitionEvent> repartition_history;

  // Dynamic fault injection and degraded-mode bookkeeping. `amplified_requests`
  // counts logical reads served through cross-platter recovery fan-out (static
  // unavailability or dark platters); recovery_reads counts the sub-reads those
  // fan-outs issued, so amplified <= recovery_reads <= amplified * I_p always.
  // `requests_failed` counts reads the controller gave up on (platter-set
  // unreadable after retries, or stranded when the run drained); completed +
  // failed == total holds for every schedule — nothing is dropped or duplicated.
  struct FaultOutcome {
    uint64_t shuttle_failures = 0, shuttle_repairs = 0;
    uint64_t drive_failures = 0, drive_repairs = 0;
    uint64_t rack_failures = 0, rack_repairs = 0;
    uint64_t aborted_shuttle_jobs = 0;  // in-flight motions cancelled mid-transit
    uint64_t stranded_recoveries = 0;   // platters recovered off dead shuttles
    uint64_t dark_retries = 0;          // backoff probes of dark platters
    uint64_t converted_requests = 0;    // queued reads converted to recovery
  } faults;
  uint64_t amplified_requests = 0;
  uint64_t requests_failed = 0;

  // Explicit write pipeline (Section 3.1).
  uint64_t platters_written = 0;    // ejected by the write drive
  uint64_t platters_verified = 0;   // fully read back on a read drive
  PercentileTracker verify_turnaround;  // eject -> durably stored (seconds)

  // Media aging + background scrub + repair escalation. The ledger obeys
  // `detected == sum(repaired by tier) + unrecoverable` for every schedule;
  // with the paper's 16+3 platter sets and peers readable, bytes_lost stays 0.
  struct ScrubOutcome {
    uint64_t aging_events = 0;       // media damage events injected
    uint64_t latent_sectors = 0;     // sectors those events damaged
    uint64_t scrubs_completed = 0;   // scrub passes finished at a drive
    uint64_t scrub_detections = 0;   // passes that surfaced latent damage
    uint64_t read_detections = 0;    // customer sessions that surfaced damage
    uint64_t rebuilds_started = 0;   // tier-3 platter rebuilds begun
    uint64_t rebuilds_completed = 0;
    uint64_t rebuild_retries = 0;    // backoff probes waiting for set peers
    uint64_t rebuild_reads = 0;      // set-peer sub-reads issued by rebuilds
    double scrub_read_seconds = 0.0;   // drive time streaming scrub passes
    double repair_read_seconds = 0.0;  // extra drive time on inline repairs
    // Lazy repair accounting (zero unless lazy_repair.enabled). Entries
    // conserve: admitted == drained + settled always holds at end of run, and
    // lazy_drained_bytes (budget-gated drains only; settlement excluded) never
    // exceeds bandwidth * elapsed.
    uint64_t lazy_admitted = 0;      // entries admitted to the repair queue
    uint64_t lazy_drained = 0;       // entries drained under the byte budget
    uint64_t lazy_settled = 0;       // backlog force-drained at end of run
    uint64_t lazy_drained_bytes = 0; // budget-gated repair-read traffic
    uint64_t lazy_peak_queue = 0;    // high-water mark of queued entries
    RepairLedger ledger;
  } scrub;

  // Federation bookkeeping (all zero for standalone runs). Injected arrivals
  // are geo-forwarded reads and cross-library repair reads served by this
  // library on behalf of another; injected_resolved + injected_failed ==
  // injected_arrivals once the run drains (they ride the same completed +
  // failed == total conservation as local requests).
  struct FederationOutcome {
    uint64_t injected_arrivals = 0;
    uint64_t injected_resolved = 0;
    uint64_t injected_failed = 0;
    uint64_t injected_writes = 0;  // replicated platters ingested here
    uint64_t data_loss_escalations = 0;  // on_data_loss hook firings
  } federation;

  double CongestionOverheadFraction() const {
    return expected_travel_total > 0.0 ? congestion_wait_total / expected_travel_total
                                       : 0.0;
  }
  double EnergyPerPlatterOperation() const {
    return platter_operations > 0
               ? travel_energy_total / static_cast<double>(platter_operations)
               : 0.0;
  }
  double DriveUtilization() const {
    const double total = drive_read_seconds + drive_verify_seconds +
                         drive_switch_seconds + drive_idle_seconds;
    return total > 0.0 ? (drive_read_seconds + drive_verify_seconds) / total : 0.0;
  }
  double DriveReadFraction() const {
    const double total = drive_read_seconds + drive_verify_seconds +
                         drive_switch_seconds + drive_idle_seconds;
    return total > 0.0 ? drive_read_seconds / total : 0.0;
  }
  double DriveVerifyFraction() const {
    const double total = drive_read_seconds + drive_verify_seconds +
                         drive_switch_seconds + drive_idle_seconds;
    return total > 0.0 ? drive_verify_seconds / total : 0.0;
  }
};

// Runs the trace through the digital twin and reports metrics. Deterministic for a
// given (config.seed, trace).
LibrarySimResult SimulateLibrary(const LibrarySimConfig& config,
                                 const ReadTrace& trace);

// Opaque snapshot of a running twin: engine clock, calendar queue (as event
// descriptors), every RNG stream, fault-injector renewal state, platter and
// drive health, repair queues, and partial results. Restoring it replays the
// remainder of the run byte-identically to the uninterrupted one.
struct LibraryCheckpoint {
  std::vector<uint8_t> bytes;
};

// Runs like SimulateLibrary but snapshots the full simulation state into `out`
// once simulated time reaches `checkpoint_at_s`, then continues to completion.
// The returned result is identical to SimulateLibrary's. Requires tracing to
// be disabled (spans cannot be serialized); live metrics are fine.
LibrarySimResult SimulateLibraryWithCheckpoint(const LibrarySimConfig& config,
                                               const ReadTrace& trace,
                                               double checkpoint_at_s,
                                               LibraryCheckpoint* out);

// Resumes a snapshot taken by SimulateLibraryWithCheckpoint. `config` and
// `trace` must be those the snapshot was taken under (a topology fingerprint
// is validated; mismatch throws). The returned result is byte-identical to
// the uninterrupted run's.
LibrarySimResult ResumeLibrary(const LibrarySimConfig& config,
                               const ReadTrace& trace,
                               const LibraryCheckpoint& checkpoint);

// Full-result serialization, used by the byte-identity tests to compare runs
// without enumerating fields.
void SaveLibrarySimResult(StateWriter& w, const LibrarySimResult& result);
LibrarySimResult LoadLibrarySimResult(StateReader& r);

// Stepped flavor of SimulateLibrary for conservative parallel federation
// (DESIGN.md section 18): the twin is driven in bounded time slices so a
// federation driver can exchange latency-delayed messages between slices.
//
//   LibraryTwin twin(config, std::move(trace));
//   twin.Prologue();
//   while (...) { twin.InjectArrival(...); twin.RunUntil(t); }
//   LibrarySimResult r = twin.Finish();
//
// Prologue + RunUntil(forever) + Finish is byte-identical to SimulateLibrary,
// and so is any RunUntil slicing (a calendar queue run in bounded slices pops
// the same events in the same order). Each twin is single-threaded; the
// federation driver may run distinct twins on distinct threads concurrently.
class LibraryTwin {
 public:
  // Owns the trace (federation generates per-library traces and hands them
  // over). Validates the config like SimulateLibrary.
  LibraryTwin(const LibrarySimConfig& config, ReadTrace trace);
  ~LibraryTwin();
  LibraryTwin(const LibraryTwin&) = delete;
  LibraryTwin& operator=(const LibraryTwin&) = delete;

  // Arms the workload (trace arrivals, write pipeline, scripted faults).
  // Must be called exactly once, before the first RunUntil.
  void Prologue();
  // Executes every event with time <= until; returns the number executed.
  uint64_t RunUntil(double until);
  double Now() const;
  // Earliest queued event time (a conservative lower bound; Simulator's
  // kForever when drained). No message can leave this twin before it.
  double NextEventTime();
  // True when the calendar queue is drained (no live events pending).
  bool Idle() const;
  // True while requests or the write pipeline are still outstanding.
  bool WorkloadUnresolved() const;
  bool explicit_writes() const;

  // Schedules a federated read (id >= kFederatedIdBase, parent == 0) to
  // arrive at `when` (must be >= Now(); between-epoch injections always are).
  // Counts toward requests_total, so conservation and run-liveness hold.
  void InjectArrival(const ReadRequest& request, double when);
  // Schedules ingestion of one replicated platter at `when`. Requires the
  // explicit write pipeline (write_platters_per_hour > 0); the platter rides
  // the normal eject -> verify -> store path.
  void InjectReplicatedPlatter(double when);

  // Post-drain accounting; call once, after the last RunUntil. The returned
  // result is what SimulateLibrary would have returned.
  LibrarySimResult Finish();

  // Consistency check of the partitioned dispatch indices (ready, orphaned,
  // distressed, and actionable partitions; drive availability and per-
  // partition available-drive counts; the pending-return total): recomputes
  // each from shuttle, drive, and return-queue state and compares it with the
  // incrementally maintained copy. Returns "" when all agree, else the names
  // of the mismatching indices. O(partitions + drives + shuttles); meant for
  // tests, between RunUntil slices.
  std::string CheckControlPlaneIndices() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace silica

#endif  // SILICA_CORE_LIBRARY_SIM_H_
