#include "layers.h"

#include <algorithm>

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Count(uint64_t v) { return static_cast<double>(v); }

}  // namespace

void EmitTwinLayers(Report& report, const TwinLayerInputs* in) {
  const silica::LibrarySimResult none;
  const silica::LibrarySimResult& r = in != nullptr ? *in->result : none;
  const silica::MetricsRegistry* metrics = in != nullptr ? in->metrics : nullptr;
  const double events = Count(r.events_executed);

  report.Layer("sim.events", events, "count", "sim");
  report.Layer("sim.host_ns_per_event",
               in != nullptr ? Ratio(in->replay_host_s * 1e9, events) : 0.0,
               "ns/event", "host");
  report.Layer("sim.events_per_request",
               in != nullptr ? Ratio(events, Count(in->client_requests)) : 0.0,
               "events/req", "sim");
  report.Layer("sim.slice_host_s_max", in != nullptr ? in->slice_host_s_max : 0.0,
               "s/sim_h", "host");

  const silica::Histogram* queue_wait =
      metrics != nullptr ? metrics->FindHistogram("library_queue_wait_seconds")
                         : nullptr;
  report.Layer("core.control.work_steals", Count(r.work_steals), "count", "sim");
  report.Layer("core.control.repartitions", Count(r.repartitions), "count", "sim");
  report.Layer("core.control.queue_wait_p99_s",
               queue_wait != nullptr ? queue_wait->Percentile(0.99) : 0.0,
               "sim_s", "sim");
  report.Layer("core.control.scheduler_submitted",
               metrics != nullptr
                   ? SumCounter(*metrics, "scheduler_requests_submitted_total")
                   : 0.0,
               "count", "sim");

  report.Layer("core.drive.utilization", r.DriveUtilization(), "ratio", "sim");
  report.Layer("core.drive.read_s", r.drive_read_seconds, "sim_s", "sim");
  report.Layer("core.drive.verify_s", r.drive_verify_seconds, "sim_s", "sim");
  report.Layer("core.drive.switch_s", r.drive_switch_seconds, "sim_s", "sim");
  report.Layer("core.drive.idle_s", r.drive_idle_seconds, "sim_s", "sim");

  report.Layer("library.travels", Count(r.travels), "count", "sim");
  report.Layer("library.travel_p99_s", r.travel_times.Percentile(0.99), "sim_s",
               "sim");
  report.Layer("library.congestion_stops", Count(r.congestion_stops), "count",
               "sim");
  report.Layer("library.congestion_detours", Count(r.congestion_detours),
               "count", "sim");
  report.Layer("library.congestion_overhead", r.CongestionOverheadFraction(),
               "ratio", "sim");

  report.Layer("core.write.platters_written", Count(r.platters_written), "count",
               "sim");
  report.Layer("core.write.platters_verified", Count(r.platters_verified),
               "count", "sim");
  report.Layer("core.write.verify_turnaround_p99_s",
               r.verify_turnaround.Percentile(0.99), "sim_s", "sim");

  const auto& f = r.faults;
  report.Layer("faults.shuttle_failures", Count(f.shuttle_failures), "count", "sim");
  report.Layer("faults.drive_failures", Count(f.drive_failures), "count", "sim");
  report.Layer("faults.rack_failures", Count(f.rack_failures), "count", "sim");
  report.Layer("faults.aging_events", Count(r.scrub.aging_events), "count", "sim");
  report.Layer("faults.aborted_jobs", Count(f.aborted_shuttle_jobs), "count", "sim");
  report.Layer("faults.dark_retries", Count(f.dark_retries), "count", "sim");
  report.Layer("faults.amplified_requests", Count(r.amplified_requests), "count",
               "sim");
  report.Layer("faults.recovery_reads", Count(r.recovery_reads), "count", "sim");

  const auto& s = r.scrub;
  report.Layer("core.scrub.passes", Count(s.scrubs_completed), "count", "sim");
  report.Layer("core.scrub.latent_sectors", Count(s.latent_sectors), "count", "sim");
  report.Layer("core.scrub.detected_sectors", Count(s.ledger.detected), "count",
               "sim");
  report.Layer("core.scrub.rebuilds", Count(s.rebuilds_completed), "count", "sim");
  report.Layer("ecc.lazy.admitted", Count(s.lazy_admitted), "count", "sim");
  report.Layer("ecc.lazy.drained_bytes", Count(s.lazy_drained_bytes), "B", "sim");
  report.Layer("ecc.lazy.peak_queue", Count(s.lazy_peak_queue), "count", "sim");
  report.Layer("lost_sectors", Count(s.ledger.unrecoverable), "count", "sim");
}

void EmitFederationLayers(Report& report, const FederationLayerInputs* in) {
  const silica::FederationResult none;
  const silica::FederationResult& r = in != nullptr ? *in->result : none;
  const double epochs = Count(r.epochs);
  report.Layer("federation.epochs", epochs, "count", "sim");
  report.Layer("federation.events_per_epoch",
               Ratio(Count(r.events_executed), epochs), "events/epoch", "sim");
  report.Layer("federation.host_us_per_epoch",
               in != nullptr ? Ratio(in->replay_host_s * 1e6, epochs) : 0.0,
               "us/epoch", "host");
  report.Layer("federation.messages_sent", Count(r.messages_sent), "count", "sim");
  report.Layer("federation.messages_dropped", Count(r.messages_dropped), "count",
               "sim");
  report.Layer("federation.replication_writes", Count(r.replication_writes),
               "count", "sim");
  report.Layer("federation.geo_read_p999_s",
               r.geo_completion_times.Percentile(0.999), "sim_s", "sim");
  report.Layer("federation.thread_speedup",
               in != nullptr ? in->thread_speedup : 0.0, "ratio", "host");
}

void EmitArchiveLayers(Report& report, const ArchiveLayerInputs* in) {
  const silica::FrontEnd::Counters none;
  const silica::FrontEnd::Counters& c = in != nullptr ? *in->counters : none;
  const silica::MetricsRegistry* m = in != nullptr ? in->metrics : nullptr;
  auto counter = [m](const char* name) {
    return m != nullptr ? m->CounterValue(name) : 0.0;
  };

  report.Layer("frontend.submit_host_us_p50",
               in != nullptr ? in->submit_host_us_p50 : 0.0, "us/op", "host");
  report.Layer("frontend.pump_host_s", in != nullptr ? in->pump_host_s : 0.0,
               "s/replay", "host");
  report.Layer("frontend.rejected", Count(c.rejected), "count", "sim");
  report.Layer("frontend.not_found", in != nullptr ? Count(in->not_found) : 0.0,
               "count", "sim");
  report.Layer("frontend.mounts_per_read",
               Ratio(Count(c.platter_mounts), Count(c.reads_executed)), "ratio",
               "sim");
  report.Layer("frontend.staged_read_hits", Count(c.staged_read_hits), "count",
               "sim");
  report.Layer("frontend.flushes", Count(c.flushes), "count", "sim");
  report.Layer("frontend.write_retries", Count(c.write_retries), "count", "sim");

  const double sectors = counter("decode_sectors_read_total");
  report.Layer("core.service.scrub_host_ms_p50",
               in != nullptr ? in->scrub_host_ms_p50 : 0.0, "ms/platter", "host");
  report.Layer("core.pipeline.sectors_read", sectors, "count", "sim");
  report.Layer("core.pipeline.ldpc_failure_ratio",
               Ratio(counter("decode_ldpc_failures_total"), sectors), "ratio",
               "sim");
  report.Layer("core.pipeline.track_nc_recoveries",
               counter("decode_track_nc_recoveries_total"), "count", "sim");
  report.Layer("core.pipeline.large_nc_recoveries",
               counter("decode_large_nc_recoveries_total"), "count", "sim");
  report.Layer("core.pipeline.platter_set_recoveries",
               counter("decode_platter_set_recoveries_total"), "count", "sim");
  report.Layer("core.pipeline.recovery_reads_per_sector",
               Ratio(counter("decode_recovery_reads_total"), sectors), "ratio",
               "sim");
  report.Layer("core.pipeline.platters_verified",
               counter("decode_platters_verified_total"), "count", "sim");

  report.Layer("channel.read_us_per_sector",
               in != nullptr ? in->read_us_per_sector : 0.0, "us/sector", "host");
  report.Layer("channel.soft_decode_us_per_sector",
               in != nullptr ? in->soft_decode_us_per_sector : 0.0, "us/sector",
               "host");
  report.Layer("ecc.ldpc_us_per_sector",
               in != nullptr ? in->ldpc_us_per_sector : 0.0, "us/sector", "host");
  report.Layer("ecc.nc_us_per_sector", in != nullptr ? in->nc_us_per_sector : 0.0,
               "us/sector", "host");
}

void EmitSharedLayers(Report& report, const Timings& timings, uint64_t failed,
                      uint64_t attempted) {
  report.Layer("failed_fraction", Ratio(Count(failed), Count(attempted)), "ratio",
               "sim");
  const bool traced = timings.traced_replay_s.count() > 0;
  report.Layer("telemetry.overhead",
               traced ? timings.traced_replay_s.Median() / timings.replay_s.Median() -
                            1.0
                      : 0.0,
               "ratio", "host");
  if (traced) {
    report.Note("traced_replay_s", TimingJson(timings.traced_replay_s));
  }
}

Samples RatesOver(const Samples& replay_s, double amount) {
  Samples rates;
  for (double s : replay_s.values()) {
    rates.Add(amount / s);
  }
  return rates;
}

void ReportTwinEndToEnd(Report& report, const Timings& timings, uint64_t clients,
                        const silica::PercentileTracker& completion) {
  const Samples requests_per_s = RatesOver(timings.replay_s, Count(clients));
  report.EndToEnd("setup_s", timings.setup_s.Median(), "s", "host",
                  TimingJson(timings.setup_s));
  report.EndToEnd("peak_rss_mb", timings.peak_rss_mib, "MiB", "host");
  report.EndToEnd("requests_per_s", requests_per_s.Median(), "req/cpu_s", "host",
                  TimingJson(requests_per_s));
  const std::string detail = Json().Int("samples", completion.count()).Done();
  report.EndToEnd("p50_completion_s", completion.Percentile(0.5), "sim_s", "sim",
                  detail);
  report.EndToEnd("p999_completion_s", completion.Percentile(kTwinTailQuantile), "sim_s",
                  "sim", detail);
  report.Note("replay_s", TimingJson(timings.replay_s));
  report.Note("replay_wall_s", TimingJson(timings.replay_wall_s));
}

silica::LibrarySimResult SumLibraries(
    const std::vector<silica::LibrarySimResult>& libraries) {
  silica::LibrarySimResult sum;
  for (const silica::LibrarySimResult& lib : libraries) {
    sum.completion_times.Merge(lib.completion_times);
    sum.requests_total += lib.requests_total;
    sum.requests_completed += lib.requests_completed;
    sum.requests_failed += lib.requests_failed;
    sum.recovery_reads += lib.recovery_reads;
    sum.amplified_requests += lib.amplified_requests;
    sum.travels += lib.travels;
    sum.travel_times.Merge(lib.travel_times);
    sum.congestion_wait_total += lib.congestion_wait_total;
    sum.expected_travel_total += lib.expected_travel_total;
    sum.congestion_stops += lib.congestion_stops;
    sum.congestion_detours += lib.congestion_detours;
    sum.drive_read_seconds += lib.drive_read_seconds;
    sum.drive_verify_seconds += lib.drive_verify_seconds;
    sum.drive_switch_seconds += lib.drive_switch_seconds;
    sum.drive_idle_seconds += lib.drive_idle_seconds;
    sum.work_steals += lib.work_steals;
    sum.repartitions += lib.repartitions;
    sum.events_executed += lib.events_executed;
    sum.platters_written += lib.platters_written;
    sum.platters_verified += lib.platters_verified;
    sum.verify_turnaround.Merge(lib.verify_turnaround);

    const auto& f = lib.faults;
    sum.faults.shuttle_failures += f.shuttle_failures;
    sum.faults.drive_failures += f.drive_failures;
    sum.faults.rack_failures += f.rack_failures;
    sum.faults.aborted_shuttle_jobs += f.aborted_shuttle_jobs;
    sum.faults.dark_retries += f.dark_retries;

    const auto& s = lib.scrub;
    sum.scrub.aging_events += s.aging_events;
    sum.scrub.latent_sectors += s.latent_sectors;
    sum.scrub.scrubs_completed += s.scrubs_completed;
    sum.scrub.rebuilds_completed += s.rebuilds_completed;
    sum.scrub.lazy_admitted += s.lazy_admitted;
    sum.scrub.lazy_drained += s.lazy_drained;
    sum.scrub.lazy_settled += s.lazy_settled;
    sum.scrub.lazy_drained_bytes += s.lazy_drained_bytes;
    sum.scrub.lazy_peak_queue =
        std::max(sum.scrub.lazy_peak_queue, s.lazy_peak_queue);
    sum.scrub.ledger.Merge(s.ledger);

    sum.federation.injected_arrivals += lib.federation.injected_arrivals;
    sum.federation.injected_failed += lib.federation.injected_failed;
  }
  return sum;
}

}  // namespace perfbench
