#include "rddr/outgoing_proxy.h"

#include <algorithm>
#include <deque>

#include "common/log.h"
#include "common/strutil.h"

namespace rddr::core {

struct OutgoingProxy::Group {
  uint64_t id = 0;
  std::string flow_label;
  std::vector<sim::ConnPtr> members;                       // instance conns
  std::vector<std::unique_ptr<StreamFramer>> framers;      // per member
  std::vector<std::deque<Unit>> queues;
  std::vector<bool> member_closed;
  std::vector<bool> participating;  // dropped members stay in the vectors
  sim::ConnPtr backend;
  bool complete = false;
  bool busy = false;
  bool ended = false;
  bool degraded = false;   // counted into degraded_sessions once
  bool failopen = false;   // sole member forwarded uncompared
  bool pair_ok = false;    // slots 0/1 hold the filter pair
  uint64_t window_event = 0;
  uint64_t unit_timeout_event = 0;
  SessionState state;  // unused by current plugins upstream, kept uniform

  // Trace context (zero when no tracer is configured). The tracer keeps
  // rooting one trace per flow group (span trees stay stable); the
  // *attribution* context instead rides the members' FlowContext — see
  // `index` below.
  obs::TraceId trace = 0;
  obs::SpanId root_span = 0;
  std::vector<obs::SpanId> member_spans;

  // Execution index of the logical call this group carries: the canonical
  // member's call path (member 0 once instance order is pinned, else the
  // first joiner). Leaf frame = the instances' dial toward this edge.
  ExecutionIndex index;

  size_t live() const {
    size_t n = 0;
    for (bool p : participating)
      if (p) ++n;
    return n;
  }
};

OutgoingProxy::OutgoingProxy(sim::Network& net, sim::Host& host,
                             Config config, DivergenceBus* bus)
    : net_(net),
      host_(host),
      config_(std::move(config)),
      bus_(bus),
      health_([this] {
        HealthTracker::Options h = config_.health;
        h.n_instances = config_.instance_sources.size();
        return h;
      }()),
      engine_(config_.diff) {
  if (!bus_) {
    // Bus-less construction keeps the one-sink invariant: the proxy owns a
    // private bus, so every divergence still flows through AttributionSink.
    own_bus_ = std::make_unique<DivergenceBus>();
    bus_ = own_bus_.get();
  }
  if (config_.metrics) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  counters_.bind(*metrics_, config_.name);
  host_.charge_memory(config_.base_memory_bytes);
  net_.listen(config_.listen_address,
              [this](sim::ConnPtr c) { on_accept(std::move(c)); });
  if (bus_) {
    bus_->subscribe([this](const DivergenceEvent& ev) {
      // A sibling proxy (the incoming one) saw divergence: whatever the
      // instances are sending the backend must not go through.
      if (ev.proxy != config_.name)
        abort_all_sessions("sibling proxy reported: " + ev.reason);
    });
  }
}

OutgoingProxy::~OutgoingProxy() {
  net_.unlisten(config_.listen_address);
  host_.release_memory(config_.base_memory_bytes);
  for (auto& [id, g] : groups_) {
    if (g->window_event) net_.simulator().cancel(g->window_event);
    if (g->unit_timeout_event) net_.simulator().cancel(g->unit_timeout_event);
  }
}

size_t OutgoingProxy::source_index(const std::string& source) const {
  for (size_t i = 0; i < config_.instance_sources.size(); ++i)
    if (config_.instance_sources[i] == source) return i;
  return SIZE_MAX;
}

size_t OutgoingProxy::expected_members() const {
  if (config_.degradation == DegradationPolicy::kStrict ||
      health_.n_instances() == 0)
    return config_.group_size;
  return std::min(health_.healthy_count(), config_.group_size);
}

void OutgoingProxy::on_accept(sim::ConnPtr conn) {
  // A quarantined instance dialing in again is back on its feet; instances
  // connect outward, so this is the outgoing side's "reconnect".
  if (config_.degradation != DegradationPolicy::kStrict &&
      health_.n_instances() > 0) {
    size_t si = source_index(conn->meta().source);
    // kDead (outvoted, or written off) stays out; only instances that went
    // quiet from unreachability earn their slot back by dialing in.
    if (si != SIZE_MAX &&
        health_.state(si) == HealthTracker::State::kQuarantined) {
      health_.readmit(si);
      counters_.reconnects->inc();
      RDDR_LOG_INFO("%s: instance source '%s' re-admitted (dialed in)",
                    config_.name.c_str(), conn->meta().source.c_str());
    }
  }

  const std::string& label = conn->flow().label;
  // Join the first incomplete group with this label, else start one.
  std::shared_ptr<Group> g;
  for (auto& [id, grp] : groups_) {
    if (grp->flow_label == label && !grp->complete && !grp->ended) {
      g = grp;
      break;
    }
  }
  if (!g) {
    g = std::make_shared<Group>();
    g->id = next_group_id_++;
    g->flow_label = label;
    g->index = conn->flow().index;  // refined to member 0's at completion
    groups_[g->id] = g;
    counters_.sessions->inc();
    if (config_.tracer) {
      g->trace = config_.tracer->id_stream(config_.name)->next_trace();
      g->root_span =
          config_.tracer->begin(g->trace, 0, "flow", config_.name);
      config_.tracer->tag(g->root_span, "flow_label", label);
    }
    g->window_event = net_.simulator().schedule(
        config_.group_window, [this, g] {
          g->window_event = 0;
          on_window_expired(g);
        });
  }

  size_t idx = g->members.size();
  g->members.push_back(conn);
  g->framers.push_back(config_.plugin->make_framer(Direction::kClientToServer));
  g->queues.emplace_back();
  g->member_closed.push_back(false);
  g->participating.push_back(true);
  if (config_.tracer) {
    obs::SpanId sp =
        config_.tracer->begin(g->trace, g->root_span, "upstream", config_.name);
    config_.tracer->tag(sp, "source", conn->meta().source);
    g->member_spans.push_back(sp);
  } else {
    g->member_spans.push_back(0);
  }
  register_handlers(g, idx);

  if (g->members.size() >= config_.group_size) {
    complete_group(g);
    return;
  }
  // With health tracking a group does not wait the full window for
  // instances known to be down: all currently-healthy instances present is
  // as complete as this group will get.
  size_t expected = expected_members();
  if (config_.degradation != DegradationPolicy::kStrict &&
      expected < config_.group_size && g->members.size() >= expected) {
    size_t min_needed = config_.degradation == DegradationPolicy::kFailOpen
                            ? size_t{1}
                            : config_.min_group_size;
    if (g->members.size() >= min_needed) {
      g->degraded = true;
      counters_.degraded_sessions->inc();
      if (g->members.size() == 1) {
        g->failopen = true;
        counters_.passthrough_sessions->inc();
      }
      complete_group(g);
    }
  }
}

void OutgoingProxy::register_handlers(const std::shared_ptr<Group>& g,
                                      size_t i) {
  auto conn = g->members[i];
  conn->set_on_data([this, g, i](ByteView data) {
    if (g->ended || !g->participating[i]) return;
    if (g->failopen) {
      if (g->backend && g->backend->is_open()) g->backend->send(data);
      return;
    }
    auto& framer = *g->framers[i];
    framer.feed(data);
    if (framer.failed()) {
      if (config_.degradation == DegradationPolicy::kStrict) {
        intervene(g, strformat("instance %zu request framing error", i));
      } else if (drop_member(g, i, "request framing error")) {
        pump(g);
      }
      return;
    }
    for (auto& u : framer.take()) g->queues[i].push_back(std::move(u));
    pump(g);
  });
  conn->set_on_close([this, g, i] {
    if (g->ended || !g->participating[i]) return;
    g->member_closed[i] = true;
    if (g->failopen) {
      // The sole surviving member hung up: the flow is over.
      teardown(g);
      return;
    }
    pump(g);
  });
}

void OutgoingProxy::on_window_expired(const std::shared_ptr<Group>& g) {
  if (g->complete || g->ended) return;
  counters_.timeouts->inc();
  if (config_.degradation == DegradationPolicy::kStrict) {
    intervene(g, strformat("flow '%s': only %zu of %zu instances contacted "
                           "the backend",
                           g->flow_label.c_str(), g->members.size(),
                           config_.group_size));
    return;
  }
  size_t joined = g->members.size();
  size_t min_needed = config_.degradation == DegradationPolicy::kFailOpen
                          ? size_t{1}
                          : config_.min_group_size;
  if (joined < min_needed) {
    intervene(g, strformat("flow '%s': %zu of %zu instances is below the "
                           "degradation floor",
                           g->flow_label.c_str(), joined, config_.group_size));
    return;
  }
  // Absence is unavailability, not divergence: quarantine the no-shows and
  // serve the flow with whoever came.
  RDDR_LOG_WARN("%s: flow '%s': completing degraded group with %zu of %zu "
                "instances",
                config_.name.c_str(), g->flow_label.c_str(), joined,
                config_.group_size);
  if (health_.n_instances() > 0) {
    for (size_t si = 0; si < health_.n_instances(); ++si) {
      if (!health_.is_healthy(si)) continue;
      bool present = false;
      for (const auto& m : g->members)
        if (m->meta().source == config_.instance_sources[si]) present = true;
      if (!present) {
        counters_.instance_unreachable->inc();
        if (health_.record_failure(si)) {
          counters_.quarantines->inc();
          RDDR_LOG_WARN("%s: instance source '%s' quarantined (absent)",
                        config_.name.c_str(),
                        config_.instance_sources[si].c_str());
        }
      }
    }
  } else {
    counters_.instance_unreachable->inc(config_.group_size - joined);
  }
  g->degraded = true;
  counters_.degraded_sessions->inc();
  if (joined == 1) {
    g->failopen = true;
    counters_.passthrough_sessions->inc();
  }
  complete_group(g);
}

void OutgoingProxy::complete_group(const std::shared_ptr<Group>& g) {
  g->complete = true;
  if (g->window_event) {
    net_.simulator().cancel(g->window_event);
    g->window_event = 0;
  }
  // Pin instance order when sources are configured (filter pair slots).
  // Works for reduced groups too: present members keep their source order.
  if (!config_.instance_sources.empty()) {
    std::vector<size_t> order;
    for (const auto& want : config_.instance_sources) {
      for (size_t i = 0; i < g->members.size(); ++i) {
        if (g->members[i]->meta().source == want) {
          order.push_back(i);
          break;
        }
      }
    }
    if (order.size() == g->members.size()) {
      std::vector<sim::ConnPtr> members;
      std::vector<std::unique_ptr<StreamFramer>> framers;
      std::vector<std::deque<Unit>> queues;
      std::vector<bool> closed;
      std::vector<bool> participating;
      std::vector<obs::SpanId> spans;
      for (size_t i : order) {
        members.push_back(g->members[i]);
        framers.push_back(std::move(g->framers[i]));
        queues.push_back(std::move(g->queues[i]));
        closed.push_back(g->member_closed[i]);
        participating.push_back(g->participating[i]);
        spans.push_back(g->member_spans[i]);
      }
      // Re-register handlers with the new slot indices.
      g->members = std::move(members);
      g->framers = std::move(framers);
      g->queues = std::move(queues);
      g->member_closed = std::move(closed);
      g->participating = std::move(participating);
      g->member_spans = std::move(spans);
      for (size_t i = 0; i < g->members.size(); ++i) register_handlers(g, i);
    }
    g->pair_ok = g->members.size() >= 2 &&
                 g->members[0]->meta().source == config_.instance_sources[0] &&
                 g->members[1]->meta().source == config_.instance_sources[1];
  } else {
    g->pair_ok = g->members.size() == config_.group_size;
  }
  // Canonical call path: member 0's (the N replicated dials share the hop
  // chain; only the leaf's dialing node differs, and member 0 is the
  // config-order canonical choice).
  if (!g->members.empty() && g->members[0])
    g->index = g->members[0]->flow().index;

  sim::ConnectMeta backend_meta;
  backend_meta.source = config_.name;
  backend_meta.flow.label = g->flow_label;
  backend_meta.flow.trace_id = g->trace;
  backend_meta.flow.parent_span = g->root_span;
  // The merged forward is the same logical call: the backend sees the
  // group's index unchanged.
  backend_meta.flow.index = g->index;
  g->backend = net_.connect(config_.backend_address, backend_meta);
  if (!g->backend) {
    intervene(g, "backend unreachable: " + config_.backend_address);
    return;
  }
  // Backend responses are replicated verbatim to every instance: wrap the
  // chunk once and let all N member connections share the buffer.
  g->backend->set_on_data([g](ByteView data) {
    SharedBytes shared{data};
    for (size_t i = 0; i < g->members.size(); ++i)
      if (g->participating[i] && g->members[i]->is_open())
        g->members[i]->send(shared);
  });
  g->backend->set_on_close([this, g] {
    if (!g->ended) teardown(g);
  });
  if (g->failopen) {
    enter_failopen(g);
    return;
  }
  pump(g);
}

void OutgoingProxy::enter_failopen(const std::shared_ptr<Group>& g) {
  g->failopen = true;
  size_t sole = SIZE_MAX;
  for (size_t i = 0; i < g->members.size(); ++i)
    if (g->participating[i]) sole = i;
  if (config_.tracer)
    config_.tracer->tag(g->root_span, "failopen", strformat("slot %zu", sole));
  RDDR_LOG_WARN("%s: flow '%s' FAIL-OPEN: forwarding sole instance "
                "uncompared",
                config_.name.c_str(), g->flow_label.c_str());
  if (sole == SIZE_MAX) {
    teardown(g);
    return;
  }
  if (g->unit_timeout_event) {
    net_.simulator().cancel(g->unit_timeout_event);
    g->unit_timeout_event = 0;
  }
  // Everything already framed or buffered for the survivor goes to the
  // backend raw from here on.
  for (auto& u : g->queues[sole])
    if (g->backend && g->backend->is_open()) g->backend->send(u.data);
  g->queues[sole].clear();
  if (g->framers[sole]) {
    Bytes rest = g->framers[sole]->unconsumed();
    if (!rest.empty() && g->backend && g->backend->is_open())
      g->backend->send(rest);
  }
  if (g->member_closed[sole]) teardown(g);
}

bool OutgoingProxy::drop_member(const std::shared_ptr<Group>& g, size_t i,
                                const std::string& why) {
  if (g->ended) return false;
  if (!g->participating[i]) return true;
  RDDR_LOG_WARN("%s: flow '%s': dropping instance %zu (%s)",
                config_.name.c_str(), g->flow_label.c_str(), i, why.c_str());
  g->participating[i] = false;
  if (g->members[i] && g->members[i]->is_open()) g->members[i]->close();
  g->queues[i].clear();
  if (config_.tracer && g->member_spans[i]) {
    config_.tracer->tag(g->member_spans[i], "dropped", why);
    config_.tracer->end(g->member_spans[i]);
  }
  if (!g->degraded) {
    g->degraded = true;
    counters_.degraded_sessions->inc();
  }
  size_t si = source_index(g->members[i]->meta().source);
  if (si != SIZE_MAX && health_.record_failure(si)) {
    counters_.quarantines->inc();
    RDDR_LOG_WARN("%s: instance source '%s' quarantined", config_.name.c_str(),
                  config_.instance_sources[si].c_str());
  }
  const size_t live = g->live();
  if (live >= 2) return true;
  if (live == 1 && config_.degradation == DegradationPolicy::kFailOpen) {
    counters_.passthrough_sessions->inc();
    enter_failopen(g);
    return false;  // pump must not compare a fail-open group
  }
  if (live == 0) {
    teardown(g);
    return false;
  }
  // kQuorum with a single member left: nothing to verify against — fail
  // closed (this also tells the incoming proxy via the bus).
  intervene(g, strformat("flow '%s': quorum lost, one instance left",
                         g->flow_label.c_str()));
  return false;
}

void OutgoingProxy::pump(const std::shared_ptr<Group>& g) {
  if (!g->complete || g->busy || g->ended || g->failopen) return;
  const bool strict = config_.degradation == DegradationPolicy::kStrict;

  bool rescan = true;
  while (rescan) {
    rescan = false;
    for (size_t i = 0; i < g->queues.size(); ++i) {
      if (!g->participating[i] || !g->queues[i].empty()) continue;
      if (!g->member_closed[i]) continue;
      bool peer_has_output = false;
      for (size_t j = 0; j < g->queues.size(); ++j)
        if (g->participating[j] && !g->queues[j].empty())
          peer_has_output = true;
      if (peer_has_output) {
        if (strict) {
          intervene(g, strformat("instance %zu closed while peers kept "
                                 "sending to the backend",
                                 i));
          return;
        }
        counters_.instance_unreachable->inc();
        if (!drop_member(g, i, "closed while peers kept sending")) return;
        rescan = true;
        break;
      }
      bool all_closed = true;
      for (size_t j = 0; j < g->member_closed.size(); ++j)
        if (g->participating[j] && !g->member_closed[j]) all_closed = false;
      if (all_closed) teardown(g);
      return;
    }
  }

  bool all_ready = true;
  bool any_ready = false;
  for (size_t i = 0; i < g->queues.size(); ++i) {
    if (!g->participating[i]) continue;
    if (g->queues[i].empty()) all_ready = false;
    else any_ready = true;
  }
  if (!all_ready) {
    // Divergence-by-silence guard (§IV-D): some instance has a request
    // pending while a sibling stays quiet.
    if (any_ready && config_.unit_timeout > 0 && !g->unit_timeout_event) {
      g->unit_timeout_event =
          net_.simulator().schedule(config_.unit_timeout, [this, g] {
            g->unit_timeout_event = 0;
            if (g->ended || g->failopen) return;
            std::vector<size_t> silent;
            bool still_have = false;
            for (size_t i = 0; i < g->queues.size(); ++i) {
              if (!g->participating[i]) continue;
              if (g->queues[i].empty()) silent.push_back(i);
              else still_have = true;
            }
            if (silent.empty() || !still_have) return;
            counters_.timeouts->inc();
            if (config_.degradation == DegradationPolicy::kStrict) {
              intervene(g, "instance request timeout at the backend merge");
              return;
            }
            for (size_t i : silent) {
              counters_.instance_unreachable->inc();
              if (!drop_member(g, i, "request timeout")) return;
            }
            pump(g);
          });
    }
    return;
  }
  if (g->unit_timeout_event) {
    net_.simulator().cancel(g->unit_timeout_event);
    g->unit_timeout_event = 0;
  }
  auto units = std::make_shared<std::vector<Unit>>();
  std::vector<size_t> idxmap;  // unit position -> member slot
  size_t bytes = 0;
  for (size_t i = 0; i < g->queues.size(); ++i) {
    if (!g->participating[i]) continue;
    bytes += g->queues[i].front().data.size();
    units->push_back(std::move(g->queues[i].front()));
    g->queues[i].pop_front();
    idxmap.push_back(i);
  }
  g->busy = true;
  obs::SpanId diff_span = 0;
  const sim::Time diff_start = net_.simulator().now();
  if (config_.tracer) {
    diff_span =
        config_.tracer->begin(g->trace, g->root_span, "diff", config_.name);
    config_.tracer->tag(diff_span, "instances",
                        strformat("%zu", idxmap.size()));
  }
  double cost = config_.cpu_per_unit +
                static_cast<double>(bytes) * config_.cpu_per_byte;
  host_.run_task(cost, [this, g, units, idxmap = std::move(idxmap), diff_span,
                        diff_start] {
    g->busy = false;
    counters_.compare_ms->observe(
        static_cast<double>(net_.simulator().now() - diff_start) / 1e6);
    obs::Tracer* tracer = config_.tracer;
    if (tracer) {
      obs::SpanId dn =
          tracer->event(g->trace, diff_span, "denoise", config_.name);
      tracer->tag(dn, "filter_pair", config_.filter_pair ? "true" : "false");
    }
    if (g->ended) {
      if (tracer) tracer->end(diff_span);
      return;
    }
    counters_.units_compared->inc();
    CompareContext ctx;
    ctx.filter_pair = config_.filter_pair && g->pair_ok &&
                      idxmap.size() >= 2 && idxmap[0] == 0 && idxmap[1] == 1;
    ctx.variance = &config_.variance;
    ctx.session = &g->state;
    auto verdict = [&](const char* v) -> obs::SpanId {
      if (!tracer) return 0;
      obs::SpanId sp =
          tracer->event(g->trace, diff_span, "verdict", config_.name);
      tracer->tag(sp, "verdict", v);
      return sp;
    };
    size_t fwd = 0;  // unit position whose bytes reach the backend
    if (config_.degradation == DegradationPolicy::kStrict) {
      BatchVerdict outcome =
          engine_.compare(*config_.plugin, *units, ctx, VoteMode::kStrict);
      if (!outcome.agreed) {
        obs::SpanId sp = verdict("divergent");
        if (tracer) {
          tracer->tag(sp, "reason", outcome.reason);
          tracer->end(diff_span);
        }
        intervene(g, outcome.reason, &outcome, units.get());
        return;
      }
      verdict("agree");
    } else {
      BatchVerdict vote =
          engine_.compare(*config_.plugin, *units, ctx, VoteMode::kQuorum);
      if (!vote.agreed) {
        obs::SpanId sp = verdict("divergent");
        if (tracer) {
          tracer->tag(sp, "reason", vote.reason);
          tracer->end(diff_span);
        }
        intervene(g, vote.reason, &vote, units.get());
        return;
      }
      if (vote.outlier != SIZE_MAX) {
        size_t slot = idxmap[vote.outlier];
        counters_.quorum_outvotes->inc();
        record_divergence("outvote", vote.reason, &vote, units.get(), g.get());
        obs::SpanId sp = verdict("outvoted");
        if (tracer)
          tracer->tag(sp, "outvoted_instance", strformat("%zu", slot));
        RDDR_LOG_WARN("%s: flow '%s': instance %zu outvoted by quorum "
                      "(%zu-of-%zu agree); dropping it",
                      config_.name.c_str(), g->flow_label.c_str(), slot,
                      units->size() - 1, units->size());
        units->erase(units->begin() +
                     static_cast<std::ptrdiff_t>(vote.outlier));
        size_t si = source_index(g->members[slot]->meta().source);
        bool ok = drop_member(g, slot, "outvoted by quorum");
        // Divergence is evidence, not unavailability: no re-admission.
        if (si != SIZE_MAX) health_.mark_dead(si);
        if (!ok) {
          if (tracer) tracer->end(diff_span);
          return;
        }
      } else {
        if (health_.n_instances() > 0) {
          for (size_t i : idxmap) {
            size_t si = source_index(g->members[i]->meta().source);
            if (si != SIZE_MAX) health_.record_success(si);
          }
        }
        verdict("agree");
      }
    }
    if (tracer) tracer->end(diff_span);
    counters_.units_replicated->inc();
    if (g->backend && g->backend->is_open())
      g->backend->send((*units)[fwd].data);
    pump(g);
  });
}

void OutgoingProxy::record_divergence(const char* verdict_class,
                                      const std::string& reason,
                                      const BatchVerdict* verdict,
                                      const std::vector<Unit>* units,
                                      const Group* g) {
  DivergenceRecord rec;
  rec.time = net_.simulator().now();
  rec.proxy = config_.name;
  rec.protocol = config_.plugin->name();
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
  if (g) {
    rec.index = g->index;
    // Attribution wants the originating edge request's trace when the
    // members inherited one; the group's locally-rooted trace is the
    // fallback for unindexed flows.
    for (const auto& m : g->members)
      if (m && m->flow().trace_id) {
        rec.trace_id = m->flow().trace_id;
        break;
      }
    if (!rec.trace_id) rec.trace_id = g->trace;
  }
  // The one reporting path: the bus logs the record, dedups per callsite,
  // notifies record subscribers and — for interventions — emits the
  // cross-proxy abort event.
  bus_->report(rec);
}

void OutgoingProxy::intervene(const std::shared_ptr<Group>& g,
                              const std::string& reason,
                              const BatchVerdict* verdict,
                              const std::vector<Unit>* units) {
  if (g->ended) return;
  counters_.divergences->inc();
  RDDR_LOG_INFO("%s: intervention on flow '%s': %s", config_.name.c_str(),
                g->flow_label.c_str(), reason.c_str());
  if (config_.tracer) config_.tracer->tag(g->root_span, "intervention", reason);
  record_divergence("intervention", reason, verdict, units, g.get());
  teardown(g);
}

void OutgoingProxy::end_group_spans(const std::shared_ptr<Group>& g) {
  if (!config_.tracer) return;
  for (obs::SpanId sp : g->member_spans) config_.tracer->end(sp);
  config_.tracer->end(g->root_span);
}

void OutgoingProxy::teardown(const std::shared_ptr<Group>& g) {
  if (g->ended) return;
  g->ended = true;
  if (g->window_event) {
    net_.simulator().cancel(g->window_event);
    g->window_event = 0;
  }
  if (g->unit_timeout_event) {
    net_.simulator().cancel(g->unit_timeout_event);
    g->unit_timeout_event = 0;
  }
  for (auto& m : g->members)
    if (m && m->is_open()) m->close();
  if (g->backend && g->backend->is_open()) g->backend->close();
  end_group_spans(g);
  groups_.erase(g->id);
}

void OutgoingProxy::abort_all_sessions(const std::string& reason) {
  // Copy out: teardown mutates the map.
  std::vector<std::shared_ptr<Group>> active;
  for (auto& [id, g] : groups_) active.push_back(g);
  for (auto& g : active) {
    counters_.divergences->inc();
    RDDR_LOG_INFO("%s: aborting flow '%s': %s", config_.name.c_str(),
                  g->flow_label.c_str(), reason.c_str());
    if (config_.tracer)
      config_.tracer->tag(g->root_span, "intervention", reason);
    teardown(g);
  }
}

void OutgoingProxy::replace_instance(size_t i, const std::string& source_node) {
  if (i < config_.instance_sources.size())
    config_.instance_sources[i] = source_node;
  health_.reset_replaced(i);
  counters_.replacements->inc();
  RDDR_LOG_INFO("%s: instance %zu replaced; now dialling in from %s",
                config_.name.c_str(), i, source_node.c_str());
}

}  // namespace rddr::core
