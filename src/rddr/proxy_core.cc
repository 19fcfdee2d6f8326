#include "rddr/proxy_core.h"

#include "common/strutil.h"

namespace rddr::core {

size_t MergeFlow::live() const {
  size_t n = 0;
  for (bool p : participating)
    if (p) ++n;
  return n;
}

bool MergeFlow::all_ready() const {
  for (size_t i = 0; i < queues.size(); ++i)
    if (participating[i] && queues[i].empty()) return false;
  return true;
}

bool MergeFlow::any_ready() const {
  for (size_t i = 0; i < queues.size(); ++i)
    if (participating[i] && !queues[i].empty()) return true;
  return false;
}

bool MergeFlow::all_closed() const {
  for (size_t i = 0; i < closed.size(); ++i)
    if (participating[i] && !closed[i]) return false;
  return true;
}

size_t MergeFlow::closed_slot() const {
  for (size_t i = 0; i < queues.size(); ++i)
    if (participating[i] && queues[i].empty() && closed[i]) return i;
  return SIZE_MAX;
}

std::vector<size_t> MergeFlow::silent() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < queues.size(); ++i)
    if (participating[i] && queues[i].empty()) out.push_back(i);
  return out;
}

ProxyCore::ProxyCore(
    sim::Network& net, sim::Host& host, const ProxyOptions& opts,
    DivergenceBus* bus,
    std::function<void(const std::string& reason)> on_sibling_abort)
    : engine(opts.diff), net_(net), host_(host), opts_(opts), bus_(bus) {
  if (!bus_) {
    // Bus-less construction keeps the one-sink invariant: the proxy owns a
    // private bus, so every divergence still flows through AttributionSink.
    own_bus_ = std::make_unique<DivergenceBus>();
    bus_ = own_bus_.get();
  }
  if (opts_.metrics) {
    metrics_ = opts_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  counters.bind(*metrics_, opts_.name);
  host_.charge_memory(opts_.base_memory_bytes);
  bus_->subscribe([this, abort = std::move(on_sibling_abort)](
                      const DivergenceEvent& ev) {
    // A sibling proxy saw divergence: whatever the instances produce next
    // must not go through this one.
    if (ev.proxy != opts_.name) abort("sibling proxy reported: " + ev.reason);
  });
}

ProxyCore::~ProxyCore() { host_.release_memory(opts_.base_memory_bytes); }

MergeOutcome ProxyCore::take_units(MergeFlow& f, SessionState* session,
                                   uint64_t trace_id) {
  if (f.unit_timeout_event) {
    net_.simulator().cancel(f.unit_timeout_event);
    f.unit_timeout_event = 0;
  }
  MergeOutcome m;
  const size_t n = f.live();
  m.units.reserve(n);
  m.slots.reserve(n);
  for (size_t i = 0; i < f.queues.size(); ++i) {
    if (!f.participating[i]) continue;
    m.units.push_back(std::move(f.queues[i].front()));
    f.queues[i].pop_front();
    m.slots.push_back(i);
  }
  // The de-noise mask needs the filter pair in slots 0/1; a degraded
  // flow may have lost one of them.
  m.ctx.filter_pair = opts_.filter_pair && f.pair_ok && m.slots.size() >= 2 &&
                      m.slots[0] == 0 && m.slots[1] == 1;
  m.ctx.variance = &opts_.variance;
  m.ctx.session = session;
  m.trace_id = trace_id;
  f.busy = true;
  m.start = net_.simulator().now();
  if (opts_.tracer) {
    m.diff_span =
        opts_.tracer->begin(f.trace, f.root_span, "diff", opts_.name);
    opts_.tracer->tag(m.diff_span, "instances",
                      strformat("%zu", m.slots.size()));
  }
  return m;
}

double ProxyCore::host_cost(const MergeOutcome& m) const {
  size_t bytes = 0;
  for (const Unit& u : m.units) bytes += u.data.size();
  return opts_.cpu_per_unit + static_cast<double>(bytes) * opts_.cpu_per_byte;
}

bool ProxyCore::vote(MergeFlow& f, MergeOutcome& m) {
  f.busy = false;
  counters.compare_ms->observe(
      static_cast<double>(net_.simulator().now() - m.start) / 1e6);
  obs::Tracer* tracer = opts_.tracer;
  if (tracer) {
    // The de-noise pass runs inside the plugin's compare; a marker span
    // keeps it visible in the taxonomy.
    obs::SpanId dn = tracer->event(f.trace, m.diff_span, "denoise", opts_.name);
    tracer->tag(dn, "filter_pair", opts_.filter_pair ? "true" : "false");
  }
  if (f.ended) {
    end_diff(m);
    return false;
  }
  counters.units_compared->inc();
  const VoteMode mode = opts_.degradation == DegradationPolicy::kStrict
                            ? VoteMode::kStrict
                            : VoteMode::kQuorum;
  m.verdict = engine.compare(*opts_.plugin, m.units, m.ctx, mode);
  auto verdict_span = [&](const char* v) -> obs::SpanId {
    if (!tracer) return 0;
    obs::SpanId sp = tracer->event(f.trace, m.diff_span, "verdict", opts_.name);
    tracer->tag(sp, "verdict", v);
    return sp;
  };
  if (!m.verdict.agreed) {
    m.kind = MergeOutcome::Kind::kDivergent;
    obs::SpanId sp = verdict_span("divergent");
    if (tracer) tracer->tag(sp, "reason", m.verdict.reason);
    end_diff(m);
    return true;
  }
  if (m.verdict.outlier == SIZE_MAX) {
    verdict_span("agree");
    return true;
  }
  // Quorum: a single divergent minority is outvoted. Report it; the
  // proxy decides what happens to the instance.
  m.kind = MergeOutcome::Kind::kOutvoted;
  m.outvoted = m.slots[m.verdict.outlier];
  counters.quorum_outvotes->inc();
  record_divergence("outvote", m.verdict.reason, &m.verdict, &m.units, f,
                    m.trace_id);
  obs::SpanId sp = verdict_span("outvoted");
  if (tracer) tracer->tag(sp, "outvoted_instance", strformat("%zu", m.outvoted));
  return true;
}

void ProxyCore::end_diff(const MergeOutcome& m) {
  if (opts_.tracer) opts_.tracer->end(m.diff_span);
}

void ProxyCore::drop_slot(MergeFlow& f, size_t i, const std::string& why) {
  f.participating[i] = false;
  if (f.conns[i] && f.conns[i]->is_open()) f.conns[i]->close();
  f.queues[i].clear();
  if (opts_.tracer && f.spans[i]) {
    opts_.tracer->tag(f.spans[i], "dropped", why);
    opts_.tracer->end(f.spans[i]);
  }
  if (!f.degraded) {
    f.degraded = true;
    counters.degraded_sessions->inc();
  }
}

void ProxyCore::end_spans(const MergeFlow& f) {
  if (!opts_.tracer) return;
  for (obs::SpanId sp : f.spans) opts_.tracer->end(sp);
  opts_.tracer->end(f.root_span);
}

void ProxyCore::record_divergence(const char* verdict_class,
                                  const std::string& reason,
                                  const BatchVerdict* verdict,
                                  const std::vector<Unit>* units,
                                  const MergeFlow& f, uint64_t trace_id) {
  DivergenceRecord rec;
  rec.time = net_.simulator().now();
  rec.proxy = opts_.name;
  rec.protocol = opts_.plugin->name();
  rec.verdict = verdict_class;
  rec.reason = reason;
  if (units && !units->empty()) {
    rec.unit_kind = (*units)[0].kind;
    rec.unit_data = (*units)[0].data;
  }
  if (verdict) {
    rec.region_line = verdict->region.line;
    rec.region_offset = verdict->region.offset;
    rec.region_instance = verdict->region.instance;
  }
  rec.trace_id = trace_id;
  rec.index = f.index;
  // The one reporting path: the bus logs the record, dedups per callsite,
  // notifies record subscribers and — for interventions — emits the
  // cross-proxy abort event.
  bus_->report(rec);
}

}  // namespace rddr::core
