#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/state_io.h"
#include "core/library_sim.h"
#include "federation/federation.h"
#include "telemetry/metrics.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds(CpuClock clock) {
  timespec ts{};
  clock_gettime(clock == CpuClock::kThread ? CLOCK_THREAD_CPUTIME_ID
                                           : CLOCK_PROCESS_CPUTIME_ID,
                &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

HostInstant HostNow(CpuClock clock) {
  return HostInstant{NowSeconds(), CpuSeconds(clock)};
}

RepTiming Between(const HostInstant& start, const HostInstant& built,
                  const HostInstant& done) {
  return RepTiming{built.cpu_s - start.cpu_s, done.cpu_s - built.cpu_s,
                   done.wall_s - built.wall_s};
}

double Samples::Quantile(double q) const {
  if (values_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

double Samples::Sum() const {
  double total = 0.0;
  for (double v : values_) {
    total += v;
  }
  return total;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Json::Key(const std::string& key) {
  if (!body_.empty()) {
    body_ += ", ";
  }
  body_ += JsonString(key) + ": ";
}

Json& Json::Num(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

Json& Json::Int(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& rendered) {
  Key(key);
  body_ += rendered;
  return *this;
}

SpanRecorder::SpanRecorder(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), origin_(NowSeconds()) {}

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = name;
  span.start_s = NowSeconds() - origin_;
  span.end_s = span.start_s;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double SpanRecorder::End(uint64_t id) {
  if (!enabled_ || id == 0 || id > spans_.size()) {
    return 0.0;
  }
  Span& span = spans_[id - 1];
  span.end_s = NowSeconds() - origin_;
  return span.end_s - span.start_s;
}

Samples SpanRecorder::Durations(const std::string& name) const {
  Samples out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.Add(span.end_s - span.start_s);
    }
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"run_id\": " << JsonString(run_id_) << ", \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n")
        << Json()
               .Int("id", span.id)
               .Int("parent", span.parent)
               .Str("name", span.name)
               .Str("run_id", run_id_)
               .Num("start_s", span.start_s)
               .Num("end_s", span.end_s)
               .Done();
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace

uint64_t ResultHash(const silica::LibrarySimResult& result) {
  silica::StateWriter w;
  silica::SaveLibrarySimResult(w, result);
  return Fnv1a(w.bytes());
}

uint64_t ResultHash(const silica::FederationResult& result) {
  silica::StateWriter w;
  silica::SaveFederationResult(w, result);
  return Fnv1a(w.bytes());
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void Report::Gate(const std::string& kind, const std::string& name, bool ok,
                  const std::string& detail) {
  gates_.push_back({kind, name, ok, detail});
}

bool Report::GatesOk() const {
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const GateResult& g) { return g.ok; });
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, const std::string& domain,
                      const std::string& extra) {
  end_to_end_.push_back({name, value, unit, domain, extra});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, const std::string& domain) {
  layers_.push_back({name, value, unit, domain, "{}"});
}

void Report::Note(const std::string& key, const std::string& rendered_json) {
  notes_.emplace_back(key, rendered_json);
}

std::string Report::ToJson(const std::string& host_json) const {
  auto metrics = [](const std::vector<Metric>& list) {
    Json out;
    for (const Metric& m : list) {
      out.Raw(m.name, Json()
                          .Num("value", m.value)
                          .Str("unit", m.unit)
                          .Str("domain", m.domain)
                          .Raw("detail", m.extra)
                          .Done());
    }
    return out.Done();
  };
  std::string gates = "[";
  for (size_t i = 0; i < gates_.size(); ++i) {
    const GateResult& g = gates_[i];
    gates += (i == 0 ? "" : ", ") + Json()
                                        .Str("kind", g.kind)
                                        .Str("name", g.name)
                                        .Bool("ok", g.ok)
                                        .Str("detail", g.detail)
                                        .Done();
  }
  gates += "]";
  Json notes;
  for (const auto& [key, rendered] : notes_) {
    notes.Raw(key, rendered);
  }
  // A failed gate means an output was wrong: it counts as a failed operation.
  const uint64_t failed_gates = static_cast<uint64_t>(std::count_if(
      gates_.begin(), gates_.end(), [](const GateResult& g) { return !g.ok; }));
  return Json()
      .Str("workload", options_.workload)
      .Int("seed", options_.seed)
      .Bool("trace", options_.trace)
      .Raw("host", host_json)
      .Bool("correct", GatesOk())
      .Int("attempted", attempted_)
      .Int("failed", failed_ + failed_gates)
      .Raw("gates", gates)
      .Raw("end_to_end", metrics(end_to_end_))
      .Raw("per_layer", metrics(layers_))
      .Raw("notes", notes.Done())
      .Done();
}

double SumCounter(const silica::MetricsRegistry& metrics, const std::string& name) {
  // The registry exposes labelled counters only through its exporters; sum
  // the exposition lines "name{labels} value" and "name value".
  std::istringstream text(metrics.ToPrometheusText());
  std::string line;
  double total = 0.0;
  while (std::getline(text, line)) {
    if (line.rfind(name, 0) != 0 || line.size() <= name.size() ||
        (line[name.size()] != '{' && line[name.size()] != ' ')) {
      continue;
    }
    total += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return total;
}

std::string TimingJson(const Samples& samples) {
  Json out;
  out.Num("median", samples.Median())
      .Num("min", samples.Quantile(0.0))
      .Num("max", samples.Max())
      .Int("samples", samples.count());
  // The highest quantile with ten samples beyond it, rank n - 10 of n, when
  // that lies above the median (the half-rank offset keeps the nearest-rank
  // rounding off the boundary).
  const double n = static_cast<double>(samples.count());
  if (n > 20.0) {
    out.Num("tail_quantile", (n - 10.0) / n)
        .Num("tail", samples.Quantile((n - 10.5) / n));
  }
  return out.Done();
}

}  // namespace perfbench
