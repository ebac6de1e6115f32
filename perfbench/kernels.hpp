// Per-layer host-time kernels for the traced run.
//
// Host time inside TiledSystem::run() cannot be split by layer from outside
// the simulator, so each kernel times one layer's public hot-path function on
// inputs shaped like the benchmark workloads and reports nanoseconds per
// call. They stand in for a measured per-layer share; they are not one.
#pragma once

#include <map>
#include <string>

#include "spans.hpp"

namespace perfbench {

/// RRT fill the two RRT kernels run at: the mean RRT occupancy the
/// closed_bypass workload reports (rrt.mean_occupancy, 18.75 entries at the
/// default seed), rounded.
inline constexpr unsigned kBypassRrtOccupancy = 19;

/// Run every kernel (median of several repetitions each) and return
/// ns-per-call keyed by per-layer metric name: sim.dispatch_ns,
/// runtime.region_map_ns, cache.probe_ns, cache.fill_ns, coherence.mshr_ns,
/// noc.route_ns, tdnuca.rrt_lookup_ns and tdnuca.rrt_register_ns.
std::map<std::string, double> run_kernels(Tracer* tracer);

}  // namespace perfbench
