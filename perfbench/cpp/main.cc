// perfbench_runner: runs one benchmark workload and prints its report as one
// JSON line on stdout. run.py builds this binary, passes the seed and time
// budget, and turns the report into the benchmark's result line.
//
//   perfbench_runner --workload=fleet|geo|durability|archive --seed=N
//                    --seconds=S --trace=0|1 [--git-describe=REV]
//                    [--spans=PATH]
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "ecc/simd/gf256_kernels.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *value = arg.substr(prefix.size());
  return true;
}

int HostCores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string HostJson(const Options& options) {
  const bool one_thread = options.workload != "archive";
  return Json()
      .Int("nproc", static_cast<uint64_t>(HostCores()))
      .Str("compiler", "g++ " __VERSION__)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .Str("simd", silica::SimdModeName(silica::ActiveSimdMode()))
      // Twin and federation replays are timed on one thread each, and an
      // untraced run replays options.threads of them at once (see
      // MeasureReps; geo's reference run uses options.threads threads); the
      // data plane runs on options.threads workers, one replay at a time.
      .Int("threads", one_thread ? 1 : static_cast<uint64_t>(options.threads))
      .Int("concurrent_replays", one_thread && !options.trace
                                     ? static_cast<uint64_t>(options.threads)
                                     : 1)
      .Str("git_describe", options.git_describe)
      .Int("seed", options.seed)
      .Num("seconds", options.seconds)
      .Done();
}

int Main(int argc, char** argv) {
  Options options;
  options.threads = std::min(4, HostCores());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "workload", &value)) {
      options.workload = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      options.seed = std::stoull(value);
    } else if (ParseFlag(arg, "seconds", &value)) {
      options.seconds = std::stod(value);
    } else if (ParseFlag(arg, "trace", &value)) {
      options.trace = value == "1";
    } else if (ParseFlag(arg, "git-describe", &value)) {
      options.git_describe = value;
    } else if (ParseFlag(arg, "spans", &value)) {
      options.spans_path = value;
    } else {
      std::fprintf(stderr, "perfbench_runner: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (options.seconds <= 0.0 || (options.trace && options.spans_path.empty())) {
    std::fprintf(stderr, "perfbench_runner: need --seconds > 0, and --spans "
                         "with --trace=1\n");
    return 2;
  }

  Report report(options);
  if (options.workload == "fleet") {
    RunFleet(options, report);
  } else if (options.workload == "geo") {
    RunGeo(options, report);
  } else if (options.workload == "durability") {
    RunDurability(options, report);
  } else if (options.workload == "archive") {
    RunArchive(options, report);
  } else {
    std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.ToJson(HostJson(options)).c_str());
  return report.GatesOk() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}
