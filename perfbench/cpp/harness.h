// Measurement plumbing shared by the four benchmark workloads: host clocks,
// order statistics, an in-memory span recorder, result hashing, and the report
// the runner prints as one JSON object for run.py.
//
// Everything here lives outside src/: spans wrap calls into the library's
// public API, and counters are read from the result structs and Telemetry
// registry the library already exposes.
#ifndef PERFBENCH_CPP_HARNESS_H_
#define PERFBENCH_CPP_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace silica {
class MetricsRegistry;
struct FederationResult;
struct LibrarySimResult;
}  // namespace silica

namespace perfbench {

// Host wall clock (steady), in seconds.
double NowSeconds();

// Host throughput and set-up are timed on a CPU clock, user plus system
// seconds: time the machine's other tenants take from this process's cores
// (descheduling, hypervisor steal) does not count, so the clock measures the
// work the program does rather than the host's load. A workload whose replay
// runs on the calling thread reads that thread's clock; one that runs worker
// threads reads the whole process's.
enum class CpuClock { kThread, kProcess };
double CpuSeconds(CpuClock clock);

// A reading of the wall clock and a CPU clock.
struct HostInstant {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
HostInstant HostNow(CpuClock clock);

// Exact order statistics over retained samples (nearest rank, like
// silica::PercentileTracker).
class Samples {
 public:
  void Add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  size_t count() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Max() const { return Quantile(1.0); }
  double Sum() const;
  const std::vector<double>& values() const { return values_; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// Minimal JSON object writer. Numbers keep every significant digit.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, uint64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Raw(const std::string& key, const std::string& rendered);
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};
std::string JsonString(const std::string& s);
std::string JsonNumber(double value);

// Spans around calls into the library's public functions. Each span has a
// name, start and end (host seconds since the recorder was created) and a
// parent; all spans of one workload run share the recorder's run id. Spans are
// kept in memory and written once, at the end of the run. A disabled recorder
// (the untraced run) records nothing.
class SpanRecorder {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  SpanRecorder(bool enabled, std::string run_id);
  uint64_t Begin(const std::string& name, uint64_t parent);
  // Returns the span's duration in seconds (0 when disabled).
  double End(uint64_t id);
  // Durations of every finished span called `name`.
  Samples Durations(const std::string& name) const;
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::string run_id_;
  double origin_;
  std::vector<Span> spans_;
};

// FNV-1a over the library's own result serializers (SaveLibrarySimResult /
// SaveFederationResult): equal hashes mean byte-identical simulated results.
uint64_t ResultHash(const silica::LibrarySimResult& result);
uint64_t ResultHash(const silica::FederationResult& result);
std::string Hex(uint64_t value);

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMib();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;  // min(4, nproc): federation and data-plane workers
  std::string git_describe = "unknown";
  std::string spans_path;  // traced runs write their spans here
};

// What one run produced. Gates are the correctness, determinism, mechanism
// and sample-size checks; any failed gate fails the run.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  void Gate(const std::string& kind, const std::string& name, bool ok,
            const std::string& detail = "");
  bool GatesOk() const;
  // A counted failure of one attempted operation (failed_fraction numerator).
  void CountAttempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  // `domain` is "host" (measured on this machine) or "sim" (simulated time or
  // a deterministic count of the twin/service). `extra` is a rendered JSON
  // object of supporting figures (sample counts, percentiles).
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                const std::string& domain, const std::string& extra = "{}");
  void Layer(const std::string& name, double value, const std::string& unit,
             const std::string& domain);
  void Note(const std::string& key, const std::string& rendered_json);

  std::string ToJson(const std::string& host_json) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string domain;
    std::string extra;
  };
  struct GateResult {
    std::string kind;
    std::string name;
    bool ok;
    std::string detail;
  };
  const Options& options_;
  std::vector<GateResult> gates_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, std::string>> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Timing summary for a set of per-repetition samples: median, min, max, the
// highest quantile with ten samples beyond it (when there are more than
// twenty), and the sample count.
std::string TimingJson(const Samples& samples);

// The fixed tail quantile a workload reports, and the number of samples it
// needs so that at least ten samples lie beyond it.
inline uint64_t SamplesForTail(double q) {
  return static_cast<uint64_t>(10.0 / (1.0 - q) + 0.5);
}

// Host timings of one repetition of a workload: set-up and replay in CPU
// seconds, and the replay's wall time for reference.
struct RepTiming {
  double setup_s = 0.0;
  double replay_s = 0.0;
  double replay_wall_s = 0.0;
};

// The timings of a repetition whose set-up ran from `start` to `built` and
// whose replay ran from `built` to `done`.
RepTiming Between(const HostInstant& start, const HostInstant& built,
                  const HostInstant& done);

struct Timings {
  Samples setup_s;          // untraced repetitions, plus set-up-only top-ups
  Samples replay_s;         // untraced repetitions
  Samples replay_wall_s;    // untraced repetitions, wall clock
  Samples traced_replay_s;  // traced repetitions (traced runs only)
  double peak_rss_mib = 0.0;  // after the warm-up: the peak of one replay

  void AddUntraced(const RepTiming& r) {
    setup_s.Add(r.setup_s);
    replay_s.Add(r.replay_s);
    replay_wall_s.Add(r.replay_wall_s);
  }
};

inline constexpr size_t kMinTimedReps = 3;
inline constexpr size_t kMinSetupSamples = 15;

// Runs a workload's repetitions for `options.seconds` of wall time:
//   * repetition 0 is a warm-up; the workload keeps its result as the
//     reference for every gate and simulated metric, and its timing is
//     dropped; peak RSS is read right after it;
//   * in an untraced run of a workload timed on the thread clock, the timed
//     repetitions run on options.threads threads at once, each repetition on
//     one thread. A core of a shared host drifts between fast and slow
//     phases of tens of seconds as the machine's other tenants load it,
//     largely independently of the other cores; the median over repetitions
//     spread across every core averages those phases out, where repetitions
//     on one core would follow that core's phase;
//   * in a traced run, untraced and traced repetitions alternate on one
//     thread, so the tracing overhead compares neighbouring repetitions;
//   * each kind, and each thread, gets at least kMinTimedReps timed
//     repetitions.
// Cheap set-ups are then repeated on their own, within a second, until there
// are kMinSetupSamples set-up samples; `setup` returns what it built, so
// tearing it down is not timed.
template <class Untraced, class Traced, class Setup>
Timings MeasureReps(const Options& options, CpuClock clock, Untraced&& untraced,
                    Traced&& traced, Setup&& setup) {
  Timings t;
  untraced(0);
  t.peak_rss_mib = PeakRssMib();
  const double start = NowSeconds();
  if (!options.trace && clock == CpuClock::kThread && options.threads > 1) {
    std::atomic<int> next_rep{1};
    std::mutex mu;
    std::exception_ptr error;
    auto worker = [&] {
      try {
        for (size_t done = 0;
             done < kMinTimedReps || NowSeconds() - start < options.seconds;
             ++done) {
          const RepTiming r = untraced(next_rep++);
          const std::lock_guard<std::mutex> lock(mu);
          t.AddUntraced(r);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        error = std::current_exception();
      }
    };
    std::vector<std::thread> workers;
    for (int i = 0; i < options.threads; ++i) {
      workers.emplace_back(worker);
    }
    for (std::thread& w : workers) {
      w.join();
    }
    if (error) {
      std::rethrow_exception(error);
    }
  } else {
    for (int rep = 1;; ++rep) {
      const bool enough =
          t.replay_s.count() >= kMinTimedReps &&
          (!options.trace || t.traced_replay_s.count() >= kMinTimedReps);
      if (enough && NowSeconds() - start >= options.seconds) {
        break;
      }
      if (options.trace && rep % 2 == 0) {
        t.traced_replay_s.Add(traced(rep).replay_s);
      } else {
        t.AddUntraced(untraced(rep));
      }
    }
  }
  const double top_up_start = NowSeconds();
  while (t.setup_s.count() < kMinSetupSamples &&
         NowSeconds() - top_up_start < 1.0) {
    const double t0 = CpuSeconds(clock);
    const auto built = setup();  // destroyed after the clock is read
    t.setup_s.Add(CpuSeconds(clock) - t0);
  }
  return t;
}

// Sum of a counter over all its label sets.
double SumCounter(const silica::MetricsRegistry& metrics, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_HARNESS_H_
