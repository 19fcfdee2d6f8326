// Shared proxy configuration and the registry-backed stats surface.
//
// `ProxyOptions` holds the fields both proxies share (plugin, variance,
// degradation policy, health knobs, CPU model, observability sinks);
// each proxy's `Config` extends it with the fields of its direction.
// The counters live in the metrics registry (ProxyCounters); ProxyStats
// is a snapshot of them. Both are generated from one counter list,
// RDDR_PROXY_COUNTERS.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rddr/diff_engine.h"
#include "rddr/divergence.h"
#include "rddr/health.h"
#include "rddr/plugin.h"

namespace rddr::core {

/// Admission-control knobs for a front tier (Frontier) shard. One
/// canonical spelling each; all zeros mean "admit everything" (the
/// pre-scale-out behaviour).
struct AdmissionOptions {
  /// Token-bucket admission rate in sessions/second (0 = unlimited).
  double rate_per_s = 0;
  /// Bucket depth: how many sessions may be admitted in a burst.
  double burst = 32;
  /// Bounded per-shard queue of connections waiting for admission; a
  /// connection arriving at a full queue is shed immediately.
  size_t queue_limit = 64;
  /// A queued connection not admitted within this deadline is shed with
  /// the plugin's overload response (fast, protocol-correct rejection).
  sim::Time shed_deadline = 5 * sim::kMillisecond;
  /// netsim listener accept-queue depth for the public address (0 =
  /// unbounded); overflow is refused at the (simulated) kernel, before
  /// the proxy ever sees the connection.
  size_t accept_queue = 0;
  /// Backpressure: stop admitting to a shard holding this many concurrent
  /// sessions (0 = unbounded).
  size_t max_sessions = 0;
  /// Backpressure: stop admitting to a shard whose proxies have this many
  /// response units queued but not yet compared (0 = off). A saturated
  /// pool therefore slows admission instead of growing unbounded queues.
  size_t queued_units_watermark = 0;
};

/// Configuration shared by both RDDR proxies. Defaults are the paper's
/// strict deployment with the seed repo's CPU model.
struct ProxyOptions {
  std::string name = "rddr";
  std::shared_ptr<ProtocolPlugin> plugin;
  /// Manually configured benign divergence (paper §IV-B4).
  KnownVariance variance;
  /// Instances 0 and 1 are an identical-image filter pair (§IV-B2).
  bool filter_pair = false;
  /// What happens when instances fail or disagree (§IV-D). Default: the
  /// paper's unanimity-or-intervene.
  DegradationPolicy degradation = DegradationPolicy::kStrict;
  /// Quarantine threshold and reconnect backoff (ignored under kStrict).
  /// `health.n_instances` is filled by the proxy from its instance list.
  HealthTracker::Options health;
  /// Per-unit wait for lagging instances; 0 (default) disables the
  /// timeout, reproducing the paper's §IV-D DoS limitation.
  sim::Time unit_timeout = 0;
  /// Idle-session read timeout (incoming proxy): a session that makes no
  /// protocol progress — no completed client unit framed and no response
  /// forwarded — for this long is shed with the plugin's protocol-correct
  /// overload_response() instead of pinning a session slot forever.
  /// Progress-based on purpose: a slowloris sender trickling one byte per
  /// tick never completes a unit, so byte-level activity must not reset
  /// the clock. 0 (default) disables the timeout.
  sim::Time idle_timeout = 0;
  /// Targeted path quarantine (incoming proxy): after this many
  /// interventions attributed to one call site (the leaf frame of the
  /// session's execution index), further sessions arriving *from that
  /// call site* are refused with the plugin's intervention response —
  /// quarantining one call path through the graph instead of a whole
  /// instance. Only indexed (nested) flows are ever path-blocked: root
  /// edge sessions share the proxy's own listen site, which is exempt.
  /// 0 (default) disables.
  uint32_t path_quarantine_threshold = 0;
  /// Batched diff-and-denoise engine knobs (SIMD kernel selection, arena
  /// sizing). Every proxy — and every frontier shard, which copies its
  /// shard options wholesale — owns one DiffEngine configured from this.
  DiffEngineOptions diff;
  /// CPU model for the de-noise+diff work, charged to the proxy host.
  double cpu_per_unit = 15e-6;
  double cpu_per_byte = 2e-9;
  int64_t base_memory_bytes = 24LL << 20;
  /// Observability sinks (optional, not owned). With `metrics` unset the
  /// proxy keeps a private registry; with `tracer` unset no spans are
  /// recorded.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Scale-out: number of independent proxy shards a Frontier deploys in
  /// front of the pool(s). 1 (default) is the paper's single proxy pair;
  /// the plain proxies ignore this field.
  size_t shards = 1;
  /// Admission control / load shedding for the front tier (Frontier).
  /// The plain proxies ignore this field.
  AdmissionOptions admission;
};

/// The one list of proxy counters, in registry order. Each counter is a
/// `ProxyStats` field and a `ProxyCounters` handle named
/// "<proxy name>.<counter>".
#define RDDR_PROXY_COUNTERS(X)                                              \
  X(sessions)                                                               \
  X(units_replicated)          /* client->instances units */                \
  X(units_compared)            /* instance->client comparisons */           \
  X(divergences)                                                            \
  X(timeouts)                                                               \
  X(idle_sheds)                /* sessions shed by the idle read timeout */ \
  X(passthrough_sessions)                                                   \
  X(signature_blocks)          /* requests refused by known signature */    \
  X(path_blocks)               /* sessions refused by path quarantine */    \
  /* Availability-path counters (fault tolerance, §IV-D limitations): */    \
  X(instance_unreachable)      /* refused connects / lost instances */      \
  X(quarantines)               /* instances moved to quarantine */          \
  X(reconnects)                /* quarantined instances re-admitted */      \
  X(degraded_sessions)         /* sessions served by < N instances */       \
  X(quorum_outvotes)           /* divergent minorities outvoted */          \
  /* Recovery-path counters (instance replacement + resync): */             \
  X(resyncs)                   /* state transfers started */                \
  X(replacements)              /* instances swapped for fresh replicas */   \
  X(journal_replayed_requests) /* units replayed after transfer */          \
  X(pages_shipped)             /* dirty pages in incremental resyncs */     \
  X(wal_bytes_replayed)        /* WAL tail bytes in incremental resyncs */  \
  /* Front-tier counters (zero unless a Frontier fronts the proxies): */    \
  X(admitted)                  /* connections passed admission control */   \
  X(shed)                      /* connections rejected by the front tier */

/// Element-wise counter snapshot of one proxy (or, via
/// NVersionDeployment::aggregate_stats, a whole deployment), read out of
/// the metrics registry.
struct ProxyStats {
#define RDDR_STATS_FIELD(name) uint64_t name = 0;
  RDDR_PROXY_COUNTERS(RDDR_STATS_FIELD)
#undef RDDR_STATS_FIELD

  ProxyStats& operator+=(const ProxyStats& o) {
#define RDDR_STATS_ADD(name) name += o.name;
    RDDR_PROXY_COUNTERS(RDDR_STATS_ADD)
#undef RDDR_STATS_ADD
    return *this;
  }
};

/// The registry handles behind one proxy's ProxyStats, resolved once at
/// proxy construction under "<name>." so a shared registry keeps the
/// per-proxy series apart. Incrementing is one 64-bit add.
struct ProxyCounters {
#define RDDR_COUNTER_HANDLE(name) obs::Counter* name = nullptr;
  RDDR_PROXY_COUNTERS(RDDR_COUNTER_HANDLE)
#undef RDDR_COUNTER_HANDLE
  /// Virtual-time cost of each de-noise+diff batch, in milliseconds.
  obs::Histogram* compare_ms = nullptr;
  /// Admission-queue wait of each admitted connection, in milliseconds
  /// (only a Frontier observes into this).
  obs::Histogram* queued_ms = nullptr;

  void bind(obs::MetricsRegistry& reg, const std::string& prefix);
  ProxyStats snapshot() const;
};

}  // namespace rddr::core
