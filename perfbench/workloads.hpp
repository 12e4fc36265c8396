// The benchmark's four workloads. Each call builds a fresh world from
// the seed, runs one timed phase, checks the outputs and returns the
// sim-time metrics, the per-layer counters and the host timings.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "probe.hpp"

namespace mgfs::perfbench {

struct RepResult {
  /// Host seconds of each episode's timed phase.
  std::vector<double> wall_s;
  std::uint64_t sim_events = 0;  // simulator events in the timed phase
  MetricList sim;      // end-to-end metrics in simulated time
  MetricList layer;    // per-layer counters and ratios (simulated time)
  std::uint64_t attempted = 0;   // application Client calls issued
  std::uint64_t failed = 0;      // of those, calls that returned an error
  std::vector<std::string> failed_checks;
  std::vector<Span> spans;       // traced runs only
};

/// Names of the workloads, in the order the notes describe them.
const std::vector<std::string>& workload_names();

/// Run `workload` once at `seed`. With `trace` the devices are wrapped
/// in TracedDevice and spans are kept; the simulated run is unchanged.
/// `verify` adds the slow output checks (FileSystem::fsck() and per-file
/// block maps); a run that repeats one seed does them once. A rep of
/// several episodes calls `between` after each but the last, once the
/// episode's world is gone.
RepResult run_workload(const std::string& workload, std::uint64_t seed,
                       bool trace, bool verify,
                       const std::function<void()>& between);

/// Build the first episode of `workload` at `seed` up to the end of its
/// set-up and return the host seconds that took.
double setup_seconds(const std::string& workload, std::uint64_t seed);

}  // namespace mgfs::perfbench
