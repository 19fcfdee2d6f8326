// The merge step both RDDR proxies share (paper §IV).
//
// Each proxy runs the same step per flow: wait for one unit from every
// live instance slot, de-noise and diff the units, vote, then forward or
// intervene. MergeFlow is the per-flow slot state; ProxyCore holds the
// shared plumbing (divergence bus, metrics registry and counters, memory
// charge, DiffEngine) and runs the compare step. What a verdict leads to
// — where the bytes go, what an outvote does to instance health — is the
// proxy's own reaction.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/exec_index.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rddr/diff_engine.h"
#include "rddr/divergence.h"
#include "rddr/options.h"
#include "rddr/plugin.h"

namespace rddr::core {

/// Per-flow slot state of one merge: slot i holds one instance's
/// connection, framer, framed units and span. A dropped slot stays in the
/// vectors with `participating[i] == false`.
struct MergeFlow {
  std::vector<sim::ConnPtr> conns;
  std::vector<std::unique_ptr<StreamFramer>> framers;
  std::vector<std::deque<Unit>> queues;
  std::vector<bool> closed;
  std::vector<bool> participating;
  std::vector<obs::SpanId> spans;  // per-slot "upstream" span

  bool busy = false;      // a compare task is on the host
  bool ended = false;
  bool degraded = false;  // counted into degraded_sessions once
  bool failopen = false;  // the sole survivor passes through uncompared
  bool pair_ok = true;    // slots 0/1 hold the filter pair
  uint64_t unit_timeout_event = 0;  // pending unit-timeout event (0 = none)

  // Trace context (zero when no tracer is configured).
  obs::TraceId trace = 0;
  obs::SpanId root_span = 0;
  // Execution index of the logical call this flow carries.
  ExecutionIndex index;

  size_t live() const;
  /// Every live slot has a unit queued.
  bool all_ready() const;
  /// Some live slot has a unit queued.
  bool any_ready() const;
  /// Every live slot's instance has closed.
  bool all_closed() const;
  /// First live slot whose instance closed with nothing queued (SIZE_MAX
  /// when none).
  size_t closed_slot() const;
  /// Live slots with nothing queued.
  std::vector<size_t> silent() const;
};

/// One compared batch and its verdict, handed to the proxy's reaction.
struct MergeOutcome {
  enum class Kind {
    kAgree,      // forward
    kDivergent,  // intervene; the diff span is already ended
    kOutvoted,   // quorum outvoted slot `outvoted`; already reported
  };
  Kind kind = Kind::kAgree;
  std::vector<Unit> units;    // one per live slot, in slot order
  std::vector<size_t> slots;  // unit position -> slot
  size_t outvoted = SIZE_MAX;
  BatchVerdict verdict;
  CompareContext ctx;
  /// Open "diff" span for kAgree/kOutvoted: the proxy ends it with
  /// end_diff() once its reaction is done, before forwarding.
  obs::SpanId diff_span = 0;
  sim::Time start = 0;
  uint64_t trace_id = 0;  // attribution trace for the outvote record
};

class ProxyCore {
 public:
  /// `opts` is the owning proxy's config and must outlive the core.
  /// `on_sibling_abort` runs when another proxy on the bus intervenes.
  ProxyCore(sim::Network& net, sim::Host& host, const ProxyOptions& opts,
            DivergenceBus* bus,
            std::function<void(const std::string& reason)> on_sibling_abort);
  ~ProxyCore();
  ProxyCore(const ProxyCore&) = delete;
  ProxyCore& operator=(const ProxyCore&) = delete;

  /// Registry the proxy publishes into (the configured one, else a
  /// proxy-private fallback).
  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// The compare step: takes one unit per live slot of `f`, charges the
  /// host, and once the host task finishes runs one DiffEngine compare
  /// (strict or quorum vote, from the degradation policy), emits the
  /// denoise/verdict spans and reports an outvote. Then calls
  /// `react(f, outcome)` unless the flow ended meanwhile. `session` is
  /// the token table for this batch; `trace_id` attributes an outvote.
  template <class Flow, class React>
  void compare(const std::shared_ptr<Flow>& f, SessionState* session,
               uint64_t trace_id, React react) {
    MergeOutcome m = take_units(*f, session, trace_id);
    const double cost = host_cost(m);
    host_.run_task(cost, [this, f, m = std::move(m), react]() mutable {
      if (vote(*f, m)) react(f, m);
    });
  }

  /// Ends the outcome's diff span.
  void end_diff(const MergeOutcome& m);

  /// Takes slot `i` out of the merge: closes its connection, discards its
  /// queued units, ends its span tagged with `why`, and counts the flow as
  /// degraded once.
  void drop_slot(MergeFlow& f, size_t i, const std::string& why);

  /// Ends every slot span and then the flow's root span.
  void end_spans(const MergeFlow& f);

  /// Arms the unit timeout (ProxyOptions::unit_timeout) while some live
  /// slots of `f` have a unit and others stay silent. When it fires with
  /// the flow still stalled, counts a timeout and calls
  /// `expire(f, silent_slots)`.
  template <class Flow, class Expire>
  void arm_unit_timeout(const std::shared_ptr<Flow>& f, Expire expire) {
    if (opts_.unit_timeout <= 0 || f->ended || f->failopen ||
        f->unit_timeout_event || !f->any_ready() || f->all_ready())
      return;
    f->unit_timeout_event =
        net_.simulator().schedule(opts_.unit_timeout, [this, f, expire] {
          f->unit_timeout_event = 0;
          if (f->ended || f->failopen || !f->any_ready()) return;
          std::vector<size_t> silent = f->silent();
          if (silent.empty()) return;
          counters.timeouts->inc();
          expire(f, silent);
        });
  }

  /// Builds the DivergenceRecord — diff region, instance-0 unit, the
  /// given trace id and the flow's execution index — and reports it into
  /// the AttributionSink (the shared bus, or the proxy-private one).
  void record_divergence(const char* verdict_class, const std::string& reason,
                         const BatchVerdict* verdict,
                         const std::vector<Unit>* units, const MergeFlow& f,
                         uint64_t trace_id);

  ProxyCounters counters;
  /// Batched N-way diff-and-denoise data plane (configured from
  /// ProxyOptions::diff): one engine, one arena, reused across every
  /// compare this proxy runs.
  DiffEngine engine;

 private:
  MergeOutcome take_units(MergeFlow& f, SessionState* session,
                          uint64_t trace_id);
  /// CPU seconds the de-noise+diff of this batch charges to the host.
  double host_cost(const MergeOutcome& m) const;
  /// The host task's body; false when the flow ended meanwhile.
  bool vote(MergeFlow& f, MergeOutcome& m);

  sim::Network& net_;
  sim::Host& host_;
  const ProxyOptions& opts_;
  DivergenceBus* bus_;
  /// Fallback sink when constructed without a shared bus: every record
  /// still flows through one AttributionSink.
  std::unique_ptr<DivergenceBus> own_bus_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // fallback registry
  obs::MetricsRegistry* metrics_;
};

}  // namespace rddr::core
