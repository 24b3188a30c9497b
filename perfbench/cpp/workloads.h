// The four benchmark workloads. Each builds its inputs from the seed in one
// process, replays them on the library's virtual clock, checks its gates, and
// fills the report with end-to-end and per-layer metrics.
#ifndef PERFBENCH_CPP_WORKLOADS_H_
#define PERFBENCH_CPP_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

// One library twin, 256 shuttles, skewed read-only burst: the control plane.
void RunFleet(const Options& options, Report& report);
// Four federated paper-scale libraries with writes, faults and aging.
void RunGeo(const Options& options, Report& report);
// One paper-scale library with aging, scrub, lazy repair and rack outages.
void RunDurability(const Options& options, Report& report);
// Multi-tenant frames through FrontEnd over SilicaService: the data plane.
void RunArchive(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_WORKLOADS_H_
