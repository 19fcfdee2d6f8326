// RDDR Outgoing Request Proxy (paper §IV-B).
//
// The dual of the incoming proxy: the N instances of the protected
// microservice each open what they believe is a connection to a backend
// microservice; this proxy groups those N connections (by flow label),
// diffs each request unit across the group, forwards ONE copy to the real
// backend, and fans the backend's response bytes back to every instance.
// Divergence (including an instance that never dials in before the group
// window expires) is reported on the DivergenceBus so the incoming proxy
// can abort the client session.
//
// Under a non-strict DegradationPolicy an absent or crashed instance is a
// fault, not an attack: groups complete with the instances that did show
// up (down to `min_group_size`, or a single uncompared member under
// kFailOpen), mid-stream losses drop the member instead of the flow, and
// a kQuorum majority outvotes a single divergent minority.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/divergence.h"
#include "rddr/health.h"
#include "rddr/options.h"
#include "rddr/plugin.h"

namespace rddr::core {

class OutgoingProxy {
 public:
  struct Config : ProxyOptions {
    Config() {
      name = "rddr-out";
      base_memory_bytes = 16LL << 20;
    }

    /// Address the instances dial (their configured "backend").
    std::string listen_address;
    /// The real backend microservice.
    std::string backend_address;
    /// Number of instances expected per flow group (N).
    size_t group_size = 3;
    /// If the group is still incomplete this long after its first member
    /// connected, that is divergence-by-absence (e.g. one proxy variant
    /// refused the request the others forwarded).
    sim::Time group_window = 100 * sim::kMillisecond;
    /// Smallest group a non-strict policy will still verify (kFailOpen
    /// additionally passes a single surviving member through uncompared).
    /// `health` reconnect fields are unused here: instances dial in, so a
    /// quarantined source is re-admitted the moment it shows up in a new
    /// group; health is indexed like `instance_sources` (which must be set
    /// for per-instance tracking to engage).
    size_t min_group_size = 2;
    /// Optional: pin instance order by ConnectMeta::source so the filter
    /// pair occupies slots 0 and 1 regardless of arrival order.
    std::vector<std::string> instance_sources;
  };

  OutgoingProxy(sim::Network& net, sim::Host& host, Config config,
                DivergenceBus* bus = nullptr);
  ~OutgoingProxy();
  OutgoingProxy(const OutgoingProxy&) = delete;
  OutgoingProxy& operator=(const OutgoingProxy&) = delete;

  /// Counter snapshot out of the metrics registry (compatibility view).
  ProxyStats stats() const { return counters_.snapshot(); }
  const Config& config() const { return config_; }

  /// Registry the proxy publishes into (the configured one, else the
  /// proxy-private fallback).
  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// Per-instance health view (meaningful when `instance_sources` is set).
  const HealthTracker& health() const { return health_; }

  /// Aborts every active flow group (invoked via the DivergenceBus when a
  /// sibling proxy detects divergence).
  void abort_all_sessions(const std::string& reason);

  /// Swaps instance slot `i` to a replacement replica dialling in from
  /// `source_node` (requires `instance_sources`). The slot starts
  /// quarantined with clean health state and is re-admitted the moment the
  /// new replica shows up in a group — the dial-in IS the liveness probe.
  void replace_instance(size_t i, const std::string& source_node);

 private:
  struct Group;
  void on_accept(sim::ConnPtr conn);
  void register_handlers(const std::shared_ptr<Group>& g, size_t i);
  void on_window_expired(const std::shared_ptr<Group>& g);
  void complete_group(const std::shared_ptr<Group>& g);
  void pump(const std::shared_ptr<Group>& g);
  /// On divergence: count, report the attributed record to the bus, tear
  /// down. `verdict`/`units` enrich the record when available.
  void intervene(const std::shared_ptr<Group>& g, const std::string& reason,
                 const BatchVerdict* verdict = nullptr,
                 const std::vector<Unit>* units = nullptr);
  /// Builds the enriched DivergenceRecord — diff region, instance-0 unit,
  /// inherited trace id and the group's execution index — and reports it
  /// into the AttributionSink (the shared bus, or the proxy-private one).
  void record_divergence(const char* verdict_class, const std::string& reason,
                         const BatchVerdict* verdict,
                         const std::vector<Unit>* units, const Group* g);
  void teardown(const std::shared_ptr<Group>& g);
  /// Removes member i from the group (non-strict policies); returns false
  /// when the group could not continue and was ended.
  bool drop_member(const std::shared_ptr<Group>& g, size_t i,
                   const std::string& why);
  void enter_failopen(const std::shared_ptr<Group>& g);
  size_t source_index(const std::string& source) const;
  /// How many members a new group should wait for: N, minus instances
  /// currently quarantined/dead (non-strict with health tracking only).
  size_t expected_members() const;
  void end_group_spans(const std::shared_ptr<Group>& g);

  sim::Network& net_;
  sim::Host& host_;
  Config config_;
  DivergenceBus* bus_;
  /// Fallback sink when constructed without a shared bus: every record
  /// still flows through one AttributionSink.
  std::unique_ptr<DivergenceBus> own_bus_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // fallback registry
  obs::MetricsRegistry* metrics_;
  ProxyCounters counters_;
  HealthTracker health_;
  /// Batched N-way diff-and-denoise data plane (configured from
  /// Config::diff): one engine, one arena, reused across every compare.
  DiffEngine engine_;
  uint64_t next_group_id_ = 1;
  std::map<uint64_t, std::shared_ptr<Group>> groups_;
};

}  // namespace rddr::core
