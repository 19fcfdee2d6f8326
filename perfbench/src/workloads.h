// The benchmark's three workloads. Each episode builds a fresh deployment
// from the seed, loads its data, warms up, then runs a fixed number of
// measured requests and checks every answer against the benchmark's own
// reference state. The same seed always yields the same virtual outputs
// (the digest), whatever the host does.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  /// Traced run: plugin decorator, generator timing, input capture.
  std::shared_ptr<Probe> probe;
  /// Self-test: host nanoseconds burnt in the generator per request.
  int64_t busy_ns_per_req = 0;
  /// sharded_rw_durable only: island count (0 = the workload's default).
  size_t islands = 0;
};

/// Program counters read between simulator steps; the episode reports
/// end-minus-start over the measured phase.
using Counters = std::map<std::string, double>;

struct Episode {
  // Host clock.
  double setup_s = 0;  // build + load + warm-up
  double wall_s = 0;   // measured phase
  double cpu_s = 0;    // process CPU over the measured phase
  // Every request (warm-up included) is checked; `measured` of them fall
  // in the timed phase.
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t measured = 0;
  // Virtual clock.
  double virt_s = 0;  // first measured issue -> last measured answer
  double virt_p50_ms = 0;
  double virt_p99_ms = 0;
  uint64_t digest = 0;
  // Program counters (measured phase deltas) and configuration facts.
  Counters delta;
  Counters facts;
  // Traced runs: generated SQL scripts and (sessions, RSS KiB) samples.
  std::vector<std::string> sql;
  std::vector<std::pair<double, double>> rss;

  /// Flattens the scalars: "setup_s", ..., "d.<counter>", "f.<fact>".
  Counters flat() const;

  double virt_tps() const {
    return virt_s > 0 ? static_cast<double>(measured) / virt_s : 0;
  }
};

const std::vector<std::string>& workload_names();

/// Runs one episode of `workload`; throws std::runtime_error on a setup
/// failure.
Episode run_episode(const std::string& workload, const RunConfig& cfg);

}  // namespace perfbench
