// The `archive` workload: a multi-tenant frame stream from
// GenerateRequestStream (64 tenants; 70% Get, 25% Put, 5% Delete) replayed
// through FrontEnd over a SilicaService on the virtual clock. The initial
// catalog is written in set-up; a fixed share of its platters is marked
// unavailable so Gets to them take the platter-set recovery path; every
// simulated kBackgroundIntervalS the benchmark ages and scrubs one platter.
// A shadow catalog byte-checks every completion.
//
// The traced run also replays a sample platter written from the workload's
// own catalog stage by stage through the public ReadChannel, SoftDecoder,
// SectorCodec and NetworkCodec, timing each stage per sector.
#include <algorithm>
#include <memory>
#include <optional>
#include <span>

#include "common/rng.h"
#include "core/data_pipeline.h"
#include "core/silica_service.h"
#include "frontend/frontend.h"
#include "gates.h"
#include "layers.h"
#include "media/platter.h"
#include "telemetry/telemetry.h"
#include "workload/request_stream.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kTenants = 64;
constexpr int kInitialObjects = 4;
constexpr double kStreamSeconds = 6.0;
constexpr double kBackgroundIntervalS = 1.0;
constexpr double kAgeYearsPerPass = 4.0;
// One catalog platter in this many is marked unavailable.
constexpr size_t kUnavailableEvery = 4;
// The tail quantile the archive reports: its stream holds a few hundred
// frames, so p95 is the highest quantile with ten samples beyond it.
constexpr double kArchiveTailQuantile = 0.95;

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  return silica::Rng(seed).Fork(tag).NextU64();
}

struct ArchiveInputs {
  std::vector<silica::TimedFrame> stream;
  std::vector<silica::FileData> catalog;  // name, tenant (file_id), bytes
};

ArchiveInputs BuildInputs(uint64_t seed) {
  ArchiveInputs in;
  silica::RequestStreamConfig config;
  config.num_tenants = kTenants;
  config.duration_s = kStreamSeconds;
  config.base.rate_per_s = 1.0;
  config.base.read_fraction = 0.70;
  config.base.delete_fraction = 0.05;
  config.initial_objects_per_tenant = kInitialObjects;
  config.seed = SubSeed(seed, 1);
  in.stream = silica::GenerateRequestStream(config);

  silica::Rng fill(SubSeed(seed, 2));
  for (uint64_t t = 0; t < kTenants; ++t) {
    for (uint64_t i = 0; i < kInitialObjects; ++i) {
      silica::FileData file;
      file.file_id = t;
      file.name = silica::TenantObjectName(t, i);
      file.bytes.resize(1024 + static_cast<size_t>(fill.UniformInt(0, 2048)));
      for (uint8_t& b : file.bytes) {
        b = static_cast<uint8_t>(fill.UniformInt(0, 255));
      }
      in.catalog.push_back(std::move(file));
    }
  }
  return in;
}

// A service with the initial catalog committed and part of it made
// unavailable, the front-end over it, and the shadow of what it holds.
struct Rig {
  std::unique_ptr<silica::SilicaService> service;
  std::unique_ptr<silica::FrontEnd> frontend;
  ShadowCatalog shadow;
  uint64_t catalog_bytes = 0;
  uint64_t unavailable = 0;
};

Rig BuildRig(const ArchiveInputs& in, uint64_t seed, int threads,
             silica::Telemetry* telemetry) {
  Rig rig;
  silica::ServiceConfig config;
  config.seed = SubSeed(seed, 3);
  config.threads = threads;
  rig.service = std::make_unique<silica::SilicaService>(config);
  for (const silica::FileData& file : in.catalog) {
    rig.service->Put(file.name, file.file_id, file.bytes);
    rig.shadow.Seed(file.name, file.bytes);
    rig.catalog_bytes += file.bytes.size();
  }
  rig.service->Flush();

  std::vector<uint64_t> platters;
  for (const silica::FileData& file : in.catalog) {
    if (const auto version = rig.service->metadata().Lookup(file.name)) {
      platters.push_back(version->platter_id);
    }
  }
  std::sort(platters.begin(), platters.end());
  platters.erase(std::unique(platters.begin(), platters.end()), platters.end());
  for (size_t i = 1; i < platters.size(); i += kUnavailableEvery) {
    rig.unavailable += rig.service->MarkUnavailable(platters[i]) ? 1 : 0;
  }

  silica::FrontEndConfig fe;
  fe.admission.max_queue_depth = 1 << 20;  // the stream is never refused
  fe.batch.flush_bytes =
      rig.service->data_plane().geometry().payload_bytes_per_platter() * 4;
  fe.batch.max_linger_s = 1.0;
  rig.frontend =
      std::make_unique<silica::FrontEnd>(*rig.service, fe, telemetry);
  return rig;
}

struct Outcome {
  uint64_t frames = 0;
  uint64_t terminal = 0;
  uint64_t ok = 0;
  uint64_t not_found = 0;
  uint64_t failed_status = 0;
  uint64_t mismatches = 0;
  uint64_t scrub_repaired = 0;
  uint64_t scrub_lost = 0;
  std::string first_mismatch;
  silica::PercentileTracker latency;  // complete - submit, simulated seconds
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over the completion stream

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
};

// Replays the stream through the front-end, applying every completion to the
// shadow catalog in order. `spans` records Submit/Pump/Drain and the
// background Age/Scrub calls when enabled.
Outcome Replay(const ArchiveInputs& in, Rig& rig, SpanRecorder& spans,
               uint64_t parent) {
  Outcome out;
  out.frames = in.stream.size();
  auto settle = [&] {
    for (const silica::Completion& c : rig.frontend->TakeCompletions()) {
      ++out.terminal;
      out.latency.Add(c.complete_time - c.submit_time);
      out.Mix(c.id);
      out.Mix(static_cast<uint64_t>(c.status));
      out.Mix(static_cast<uint64_t>(c.complete_time * 1e6));
      if (c.data) {
        for (uint8_t b : *c.data) {
          out.Mix(b);
        }
      }
      switch (rig.shadow.Complete(c)) {
        case ShadowCatalog::Verdict::kOk:
          ++out.ok;
          break;
        case ShadowCatalog::Verdict::kDeletedNotFound:
          ++out.not_found;
          break;
        case ShadowCatalog::Verdict::kFailedStatus:
          ++out.failed_status;
          break;
        case ShadowCatalog::Verdict::kMismatch:
          ++out.mismatches;
          break;
      }
    }
  };
  uint64_t next_platter = 1;
  auto background = [&](double) {
    const uint64_t platter = next_platter;
    next_platter = next_platter % rig.service->platters_in_library() + 1;
    const uint64_t age = spans.Begin("SilicaService.AgePlatter", parent);
    rig.service->AgePlatter(platter, kAgeYearsPerPass);
    spans.End(age);
    const uint64_t scrub = spans.Begin("SilicaService.ScrubPlatter", parent);
    const auto result = rig.service->ScrubPlatter(platter);
    spans.End(scrub);
    if (result) {
      out.scrub_repaired += result->ledger.repaired_total();
      out.scrub_lost += result->data_lost ? 1 : 0;
    }
  };

  double next_background = kBackgroundIntervalS;
  for (const silica::TimedFrame& timed : in.stream) {
    while (next_background <= timed.time) {
      background(next_background);
      next_background += kBackgroundIntervalS;
    }
    const uint64_t pump = spans.Begin("FrontEnd.Pump", parent);
    rig.frontend->Pump(timed.time);
    spans.End(pump);
    const uint64_t submit = spans.Begin("FrontEnd.Submit", parent);
    const silica::RequestId id = rig.frontend->Submit(timed.frame, timed.time);
    spans.End(submit);
    rig.shadow.Submitted(id, timed.frame);
    settle();
  }
  const uint64_t drain = spans.Begin("FrontEnd.Drain", parent);
  rig.frontend->Drain(kStreamSeconds);
  spans.End(drain);
  settle();
  out.first_mismatch = rig.shadow.first_mismatch();
  return out;
}

// Stage-by-stage replay of one platter written from the catalog: every
// sector through ReadChannel, SoftDecoder and SectorCodec, and every
// information track's first R_t sectors rebuilt by the within-track
// NetworkCodec. Returns false when a stage produced wrong bytes.
struct StageTimes {
  double read_us = 0.0, soft_us = 0.0, ldpc_us = 0.0, nc_us = 0.0;
  bool bytes_ok = true;
};

StageTimes ReplayStages(const ArchiveInputs& in, const silica::DataPlane& plane,
                        uint64_t seed, SpanRecorder& spans, uint64_t parent) {
  const silica::MediaGeometry& g = plane.geometry();
  // Files are packed whole sectors at a time; fill nine tenths of the
  // platter's information sectors.
  const uint64_t sector_bytes = plane.sector_payload_bytes();
  const uint64_t capacity = static_cast<uint64_t>(g.info_tracks_per_platter) *
                            static_cast<uint64_t>(g.info_sectors_per_track) * 9 / 10;
  std::vector<silica::FileData> files;
  uint64_t used = 0;
  for (const silica::FileData& file : in.catalog) {
    const uint64_t need = (file.bytes.size() + sector_bytes - 1) / sector_bytes;
    if (used + need > capacity) {
      break;
    }
    used += need;
    files.push_back(file);
  }
  silica::Rng rng(SubSeed(seed, 4));
  const silica::WrittenPlatter written =
      silica::PlatterWriter(plane).WritePlatter(1, files, rng);

  StageTimes out;
  double read_s = 0.0, soft_s = 0.0, ldpc_s = 0.0, nc_s = 0.0;
  uint64_t sectors = 0, rebuilt = 0;
  for (int t = 0; t < g.tracks_per_platter(); ++t) {
    const uint64_t track_span = spans.Begin("stage.track", parent);
    for (int s = 0; s < g.sectors_per_track(); ++s) {
      const auto symbols = written.platter.SectorSymbols({t, s});
      const double t0 = NowSeconds();
      silica::AnalogSector analog;
      analog.rows = g.sector_rows;
      analog.cols = g.sector_cols;
      analog.voxels.resize(symbols.size());
      analog.missing.assign(symbols.size(), 0);
      for (size_t v = 0; v < symbols.size(); ++v) {
        if (symbols[v] == silica::kMissingVoxel) {
          analog.missing[v] = 1;
        } else {
          analog.voxels[v] = plane.constellation().Point(symbols[v]);
        }
      }
      const auto measured = plane.read_channel().ReadSector(analog, rng);
      const double t1 = NowSeconds();
      const auto posteriors = plane.soft_decoder().Decode(measured);
      const double t2 = NowSeconds();
      const auto payload =
          plane.sector_codec().DecodeSector(posteriors, plane.soft_decoder());
      const double t3 = NowSeconds();
      read_s += t1 - t0;
      soft_s += t2 - t1;
      ldpc_s += t3 - t2;
      ++sectors;
      if (payload && *payload != written.payloads[t][s]) {
        out.bytes_ok = false;
      }
    }
    spans.End(track_span);
  }

  const silica::NetworkCodec& codec = plane.track_codec();
  const size_t group = codec.group_size();
  const size_t lost = codec.redundancy();
  for (int t = 0; t < g.info_tracks_per_platter; ++t) {
    const auto& payloads = written.payloads[t];
    std::vector<size_t> present_indices, missing;
    std::vector<std::span<const uint8_t>> present;
    for (size_t s = 0; s < group; ++s) {
      if (s < lost) {
        missing.push_back(s);
      } else {
        present_indices.push_back(s);
        present.emplace_back(payloads[s]);
      }
    }
    std::vector<std::vector<uint8_t>> recovered(
        lost, std::vector<uint8_t>(payloads[0].size()));
    std::vector<std::span<uint8_t>> views(recovered.begin(), recovered.end());
    const uint64_t nc_span = spans.Begin("stage.nc.Reconstruct", parent);
    const double t0 = NowSeconds();
    const bool ok = codec.Reconstruct(present_indices, present, missing, views);
    nc_s += NowSeconds() - t0;
    spans.End(nc_span);
    rebuilt += lost;
    for (size_t i = 0; i < lost; ++i) {
      out.bytes_ok = out.bytes_ok && ok && recovered[i] == payloads[i];
    }
  }
  out.read_us = read_s * 1e6 / static_cast<double>(sectors);
  out.soft_us = soft_s * 1e6 / static_cast<double>(sectors);
  out.ldpc_us = ldpc_s * 1e6 / static_cast<double>(sectors);
  out.nc_us = nc_s * 1e6 / static_cast<double>(std::max<uint64_t>(1, rebuilt));
  return out;
}

}  // namespace

void RunArchive(const Options& options, Report& report) {
  SpanRecorder spans(options.trace, "archive-" + std::to_string(options.seed));
  const uint64_t root = spans.Begin("workload.archive", 0);

  // The reference repetition attaches Telemetry to read the data-plane stage
  // counters; its timing is dropped like every warm-up. Timed untraced
  // repetitions attach none.
  silica::Telemetry reference_telemetry;
  Outcome first;
  silica::FrontEnd::Counters counters;
  uint64_t stored_bytes = 0, catalog_bytes = 0, unavailable = 0;
  bool repeats_identical = true;
  bool traced_identical = true;
  std::unique_ptr<silica::Telemetry> traced_telemetry;
  Samples submit_s, pump_s, scrub_s;
  SpanRecorder untraced_spans(false, "");
  const Timings t = MeasureReps(
      options, CpuClock::kProcess,
      [&](int rep) {
        const HostInstant t0 = HostNow(CpuClock::kProcess);
        const ArchiveInputs in = BuildInputs(options.seed);
        Rig rig = BuildRig(in, options.seed, options.threads,
                           rep == 0 ? &reference_telemetry : nullptr);
        const HostInstant t1 = HostNow(CpuClock::kProcess);
        Outcome out = Replay(in, rig, untraced_spans, 0);
        const HostInstant t2 = HostNow(CpuClock::kProcess);
        if (rep == 0) {
          counters = rig.frontend->counters();
          stored_bytes = rig.service->platters_in_library() *
                         rig.service->data_plane().geometry().payload_bytes_per_platter();
          catalog_bytes = rig.catalog_bytes;
          unavailable = rig.unavailable;
          first = std::move(out);
        } else if (out.hash != first.hash) {
          repeats_identical = false;
        }
        return Between(t0, t1, t2);
      },
      [&](int) {
        const uint64_t setup_span = spans.Begin("setup", root);
        const HostInstant t0 = HostNow(CpuClock::kProcess);
        const ArchiveInputs in = BuildInputs(options.seed);
        auto telemetry = std::make_unique<silica::Telemetry>();
        Rig rig = BuildRig(in, options.seed, options.threads, telemetry.get());
        const HostInstant t1 = HostNow(CpuClock::kProcess);
        spans.End(setup_span);
        const uint64_t replay_span = spans.Begin("replay", root);
        const Outcome out = Replay(in, rig, spans, replay_span);
        const HostInstant t2 = HostNow(CpuClock::kProcess);
        spans.End(replay_span);
        traced_identical = traced_identical && out.hash == first.hash;
        if (traced_telemetry == nullptr) {
          traced_telemetry = std::move(telemetry);
        }
        return Between(t0, t1, t2);
      },
      [&] {
        const ArchiveInputs in = BuildInputs(options.seed);
        return BuildRig(in, options.seed, options.threads, nullptr);
      });

  StageTimes stages;
  if (options.trace) {
    const ArchiveInputs in = BuildInputs(options.seed);
    silica::ServiceConfig config;
    config.threads = options.threads;
    const silica::SilicaService service(config);
    const uint64_t stage_span = spans.Begin("stage_replay", root);
    stages = ReplayStages(in, service.data_plane(), options.seed, spans, stage_span);
    spans.End(stage_span);
    report.Gate("correctness", "stage_replay_bytes", stages.bytes_ok);
    report.Gate("determinism", "traced_equals_untraced", traced_identical,
                "completion stream hash " + Hex(first.hash));
    submit_s = spans.Durations("FrontEnd.Submit");
    pump_s = spans.Durations("FrontEnd.Pump");
    scrub_s = spans.Durations("SilicaService.ScrubPlatter");
  }
  spans.End(root);

  // Gates on the reference repetition.
  report.Gate("determinism", "repeated_runs_identical", repeats_identical,
              std::to_string(t.replay_s.count() + 1) +
                  " runs, completion stream hash " + Hex(first.hash));
  report.Gate("correctness", "frontend_conservation", FrontEndConserves(counters),
              std::to_string(counters.submitted) + " submitted, " +
                  std::to_string(counters.admitted) + " admitted");
  silica::FrontEnd::Counters leaky = counters;
  ++leaky.admitted;
  report.Gate("self_check", "frontend_gate_rejects_leak", !FrontEndConserves(leaky));
  report.Gate("correctness", "every_frame_terminal",
              first.terminal == first.frames, std::to_string(first.terminal) +
                                                   " of " +
                                                   std::to_string(first.frames));
  report.Gate("correctness", "shadow_catalog", first.mismatches == 0,
              std::to_string(first.mismatches) + " mismatching completions" +
                  (first.mismatches > 0 ? ", first: " + first.first_mismatch : ""));
  {
    // A corrupted byte and a completion for an unknown id must both fail.
    ShadowCatalog shadow;
    shadow.Seed("probe", {1, 2, 3});
    silica::RequestFrame get;
    get.op = silica::OpType::kGet;
    get.name = "probe";
    shadow.Submitted(1, get);
    silica::Completion corrupted;
    corrupted.id = 1;
    corrupted.op = silica::OpType::kGet;
    corrupted.data = std::vector<uint8_t>{1, 2, 4};
    silica::Completion unknown = corrupted;
    unknown.id = 2;
    report.Gate("self_check", "shadow_rejects_corrupted_byte",
                shadow.Complete(corrupted) == ShadowCatalog::Verdict::kMismatch &&
                    shadow.Complete(unknown) == ShadowCatalog::Verdict::kMismatch);
  }
  const double platter_set_recoveries = reference_telemetry.metrics.CounterValue(
      "decode_platter_set_recoveries_total");
  report.Gate("mechanism", "platter_set_recoveries", platter_set_recoveries > 0,
              std::to_string(static_cast<uint64_t>(platter_set_recoveries)) +
                  " sectors over " + std::to_string(unavailable) +
                  " unavailable platters");
  report.Gate("mechanism", "coalesced_reads", counters.coalesced_reads > 0,
              std::to_string(counters.coalesced_reads));
  report.Gate("mechanism", "flushes", counters.flushes > 0,
              std::to_string(counters.flushes));
  report.Gate("mechanism", "scrub_repairs", first.scrub_repaired > 0,
              std::to_string(first.scrub_repaired) + " sectors");
  report.Gate("samples", "tail_frames",
              first.latency.count() >= SamplesForTail(kArchiveTailQuantile),
              std::to_string(first.latency.count()) + " frames");
  const uint64_t failed =
      first.failed_status + first.mismatches + counters.rejected;
  report.CountAttempts(first.frames, failed);

  // The archive's end-to-end metrics, under the names the data plane is
  // judged by: frames reaching a terminal state and user megabytes of OK
  // reads and writes per CPU second of Submit/Pump/Drain plus background
  // calls, stored platter capacity per committed user byte, and simulated
  // frame completion times.
  const Samples ops_per_s = RatesOver(t.replay_s, static_cast<double>(first.terminal));
  const Samples mb_per_s = RatesOver(
      t.replay_s, static_cast<double>(counters.bytes_read + counters.bytes_written) / 1e6);
  const uint64_t user_bytes = catalog_bytes + counters.bytes_written;
  report.EndToEnd("setup_s", t.setup_s.Median(), "s", "host",
                  TimingJson(t.setup_s));
  report.EndToEnd("peak_rss_mb", t.peak_rss_mib, "MiB", "host");
  report.EndToEnd("ops_per_s", ops_per_s.Median(), "ops/cpu_s", "host",
                  TimingJson(ops_per_s));
  report.EndToEnd("mb_per_s", mb_per_s.Median(), "MB/cpu_s", "host",
                  TimingJson(mb_per_s));
  report.EndToEnd("stored_per_user_byte",
                  static_cast<double>(stored_bytes) /
                      static_cast<double>(std::max<uint64_t>(1, user_bytes)),
                  "ratio", "sim");
  const std::string detail = Json().Int("samples", first.latency.count()).Done();
  report.EndToEnd("p50_completion_s", first.latency.Percentile(0.5), "sim_s", "sim",
                  detail);
  report.EndToEnd("p95_completion_s",
                  first.latency.Percentile(kArchiveTailQuantile), "sim_s", "sim",
                  detail);
  report.Note("replay_s", TimingJson(t.replay_s));
  report.Note("completion_hash", JsonString(Hex(first.hash)));
  report.Note("scrub", Json()
                           .Int("repaired_sectors", first.scrub_repaired)
                           .Int("platters_lost", first.scrub_lost)
                           .Done());

  EmitTwinLayers(report, nullptr);
  EmitFederationLayers(report, nullptr);
  ArchiveLayerInputs layers;
  layers.counters = &counters;
  layers.metrics = options.trace ? &traced_telemetry->metrics : &reference_telemetry.metrics;
  layers.not_found = first.not_found;
  layers.submit_host_us_p50 = submit_s.Median() * 1e6;
  layers.pump_host_s = pump_s.Sum() / std::max<size_t>(1, t.traced_replay_s.count());
  layers.scrub_host_ms_p50 = scrub_s.Median() * 1e3;
  layers.read_us_per_sector = stages.read_us;
  layers.soft_decode_us_per_sector = stages.soft_us;
  layers.ldpc_us_per_sector = stages.ldpc_us;
  layers.nc_us_per_sector = stages.nc_us;
  EmitArchiveLayers(report, &layers);
  EmitSharedLayers(report, t, failed, first.frames);
  if (options.trace) {
    report.Gate("correctness", "spans_written", spans.WriteJson(options.spans_path),
                options.spans_path);
  }
}

}  // namespace perfbench
