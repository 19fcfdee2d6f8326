// Layer probes of the host-cost benchmark: a timing decorator around the
// ProtocolPlugin handed to NVersionDeployment::Builder, busy-wait injection for
// the sensitivity self-test, and bounded capture of the inputs that
// replay.cc pushes back through each layer's public entry point.
//
// Every probe sits in the benchmark's own code, around calls into the
// program's public API; nothing inside src/ is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rddr/plugin.h"

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double wall_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Spins for `ns` nanoseconds of host time (the self-test's fixed cost).
void busy_wait_ns(int64_t ns);

/// Process CPU time (user + system, all threads), seconds.
double process_cpu_s();

/// Resident set size from /proc/self/statm, KiB (0 when unavailable).
double rss_kb();

/// Host cost of one probe timestamp pair, ns (taken out of probed time).
double probe_overhead_ns();

/// Accumulated host time and call count of one probed call site. Plugin
/// calls arrive from every island thread, hence relaxed atomics.
struct Clock {
  std::atomic<uint64_t> ns{0};
  std::atomic<uint64_t> calls{0};
  void add(uint64_t dt) {
    ns.fetch_add(dt, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Everything the traced run records in the loop, plus the bounded input
/// samples for replay. `capture` is switched on for the timed phase only.
struct Probe {
  // rddr.plugin — in-loop timing of every decorated call.
  Clock framer_feed, framer_take, canonicalize, rewrite, other;
  // Units cut by the proxy framers, per direction (count and wire bytes).
  std::atomic<uint64_t> units_c2s{0}, units_s2c{0};
  std::atomic<uint64_t> bytes_c2s{0}, bytes_s2c{0};

  std::atomic<bool> capture{false};

  // Replay samples. One mutex: captures are rare next to the timed calls.
  std::mutex mu;
  size_t capture_bytes = 0;
  std::vector<rddr::core::Unit> c2s_units;  // client->server units
  std::vector<rddr::core::Unit> s2c_units;  // one instance's responses
  std::vector<std::vector<rddr::core::Unit>> batches;  // k-th unit of all N

  static constexpr size_t kMaxCaptureBytes = 24u << 20;
  static constexpr size_t kMaxUnits = 4096;
  static constexpr size_t kMaxBatches = 4096;

  /// Total in-loop plugin time (ns).
  uint64_t plugin_ns() const;
  uint64_t plugin_calls() const;
};

/// Forwards every ProtocolPlugin virtual — the defaulted ones included —
/// to `inner`, timing each call into `probe`. Framers it makes are wrapped
/// too: their feed/take are timed, their units counted and sampled, and
/// the k-th response unit of all N instance framers of one session is
/// captured as one DiffEngine batch.
class TimedPlugin : public rddr::core::ProtocolPlugin {
 public:
  TimedPlugin(std::shared_ptr<rddr::core::ProtocolPlugin> inner,
              std::shared_ptr<Probe> probe);

  std::string name() const override;
  std::unique_ptr<rddr::core::StreamFramer> make_framer(
      rddr::core::Direction dir) const override;
  rddr::core::DiffOutcome compare(
      const std::vector<rddr::core::Unit>& units,
      const rddr::core::CompareContext& ctx) const override;
  void canonicalize(const rddr::core::Unit& unit,
                    const rddr::core::CompareContext& ctx,
                    rddr::core::Arena& arena,
                    rddr::core::CanonicalUnit& out) const override;
  std::string class_mismatch_reason(const std::vector<rddr::core::Unit>& units,
                                    size_t i) const override;
  bool harvest_tokens() const override;
  rddr::Bytes on_forward_downstream(
      const std::vector<rddr::core::Unit>& units,
      const rddr::core::CompareContext& ctx) const override;
  rddr::Bytes rewrite_for_instance(
      const rddr::core::Unit& unit, size_t instance,
      const rddr::core::CompareContext& ctx) const override;
  bool rewrites_identity() const override;
  bool replayable(const rddr::core::Unit& unit) const override;
  rddr::Bytes intervention_response() const override;
  rddr::Bytes overload_response() const override;
  rddr::Bytes resync_preamble() const override;

 private:
  std::shared_ptr<rddr::core::ProtocolPlugin> inner_;
  std::shared_ptr<Probe> probe_;
};

}  // namespace perfbench
