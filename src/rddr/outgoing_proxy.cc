#include "rddr/outgoing_proxy.h"

#include <algorithm>
#include <deque>

#include "common/log.h"
#include "common/strutil.h"

namespace rddr::core {

// Slots are members in join order, re-pinned to instance_sources order
// once the group completes. The tracer roots one trace per flow group
// (span trees stay stable); the *attribution* context instead rides the
// members' FlowContext (inherited_trace). MergeFlow::index is the
// canonical member's call path (member 0 once instance order is pinned,
// else the first joiner); its leaf frame is the instances' dial toward
// this edge.
struct OutgoingProxy::Group : MergeFlow {
  uint64_t id = 0;
  std::string flow_label;
  sim::ConnPtr backend;
  bool complete = false;
  uint64_t window_event = 0;
  SessionState state;  // unused by current plugins upstream, kept uniform
};

OutgoingProxy::OutgoingProxy(sim::Network& net, sim::Host& host,
                             Config config, DivergenceBus* bus)
    : net_(net),
      host_(host),
      config_(std::move(config)),
      // A sibling proxy (the incoming one) saw divergence: whatever the
      // instances are sending the backend must not go through.
      core_(net, host, config_, bus,
            [this](const std::string& reason) { abort_all_sessions(reason); }),
      health_([this] {
        HealthTracker::Options h = config_.health;
        h.n_instances = config_.instance_sources.size();
        return h;
      }()) {
  net_.listen(config_.listen_address,
              [this](sim::ConnPtr c) { on_accept(std::move(c)); });
}

OutgoingProxy::~OutgoingProxy() {
  net_.unlisten(config_.listen_address);
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
      core_.counters.reconnects->inc();
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
    core_.counters.sessions->inc();
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

  size_t idx = g->conns.size();
  g->conns.push_back(conn);
  g->framers.push_back(config_.plugin->make_framer(Direction::kClientToServer));
  g->queues.emplace_back();
  g->closed.push_back(false);
  g->participating.push_back(true);
  if (config_.tracer) {
    obs::SpanId sp =
        config_.tracer->begin(g->trace, g->root_span, "upstream", config_.name);
    config_.tracer->tag(sp, "source", conn->meta().source);
    g->spans.push_back(sp);
  } else {
    g->spans.push_back(0);
  }
  register_handlers(g, idx);

  if (g->conns.size() >= config_.group_size) {
    complete_group(g);
    return;
  }
  // With health tracking a group does not wait the full window for
  // instances known to be down: all currently-healthy instances present is
  // as complete as this group will get.
  size_t expected = expected_members();
  if (config_.degradation != DegradationPolicy::kStrict &&
      expected < config_.group_size && g->conns.size() >= expected) {
    size_t min_needed = config_.degradation == DegradationPolicy::kFailOpen
                            ? size_t{1}
                            : config_.min_group_size;
    if (g->conns.size() >= min_needed) {
      g->degraded = true;
      core_.counters.degraded_sessions->inc();
      if (g->conns.size() == 1) {
        g->failopen = true;
        core_.counters.passthrough_sessions->inc();
      }
      complete_group(g);
    }
  }
}

void OutgoingProxy::register_handlers(const std::shared_ptr<Group>& g,
                                      size_t i) {
  auto conn = g->conns[i];
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
    g->closed[i] = true;
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
  core_.counters.timeouts->inc();
  if (config_.degradation == DegradationPolicy::kStrict) {
    intervene(g, strformat("flow '%s': only %zu of %zu instances contacted "
                           "the backend",
                           g->flow_label.c_str(), g->conns.size(),
                           config_.group_size));
    return;
  }
  size_t joined = g->conns.size();
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
      for (const auto& m : g->conns)
        if (m->meta().source == config_.instance_sources[si]) present = true;
      if (!present) {
        core_.counters.instance_unreachable->inc();
        if (health_.record_failure(si)) {
          core_.counters.quarantines->inc();
          RDDR_LOG_WARN("%s: instance source '%s' quarantined (absent)",
                        config_.name.c_str(),
                        config_.instance_sources[si].c_str());
        }
      }
    }
  } else {
    core_.counters.instance_unreachable->inc(config_.group_size - joined);
  }
  g->degraded = true;
  core_.counters.degraded_sessions->inc();
  if (joined == 1) {
    g->failopen = true;
    core_.counters.passthrough_sessions->inc();
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
      for (size_t i = 0; i < g->conns.size(); ++i) {
        if (g->conns[i]->meta().source == want) {
          order.push_back(i);
          break;
        }
      }
    }
    if (order.size() == g->conns.size()) {
      std::vector<sim::ConnPtr> members;
      std::vector<std::unique_ptr<StreamFramer>> framers;
      std::vector<std::deque<Unit>> queues;
      std::vector<bool> closed;
      std::vector<bool> participating;
      std::vector<obs::SpanId> spans;
      for (size_t i : order) {
        members.push_back(g->conns[i]);
        framers.push_back(std::move(g->framers[i]));
        queues.push_back(std::move(g->queues[i]));
        closed.push_back(g->closed[i]);
        participating.push_back(g->participating[i]);
        spans.push_back(g->spans[i]);
      }
      // Re-register handlers with the new slot indices.
      g->conns = std::move(members);
      g->framers = std::move(framers);
      g->queues = std::move(queues);
      g->closed = std::move(closed);
      g->participating = std::move(participating);
      g->spans = std::move(spans);
      for (size_t i = 0; i < g->conns.size(); ++i) register_handlers(g, i);
    }
    g->pair_ok = g->conns.size() >= 2 &&
                 g->conns[0]->meta().source == config_.instance_sources[0] &&
                 g->conns[1]->meta().source == config_.instance_sources[1];
  } else {
    g->pair_ok = g->conns.size() == config_.group_size;
  }
  // Canonical call path: member 0's (the N replicated dials share the hop
  // chain; only the leaf's dialing node differs, and member 0 is the
  // config-order canonical choice).
  if (!g->conns.empty() && g->conns[0])
    g->index = g->conns[0]->flow().index;

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
    for (size_t i = 0; i < g->conns.size(); ++i)
      if (g->participating[i] && g->conns[i]->is_open())
        g->conns[i]->send(shared);
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
  for (size_t i = 0; i < g->conns.size(); ++i)
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
  if (g->closed[sole]) teardown(g);
}

bool OutgoingProxy::drop_member(const std::shared_ptr<Group>& g, size_t i,
                                const std::string& why) {
  if (g->ended) return false;
  if (!g->participating[i]) return true;
  RDDR_LOG_WARN("%s: flow '%s': dropping instance %zu (%s)",
                config_.name.c_str(), g->flow_label.c_str(), i, why.c_str());
  core_.drop_slot(*g, i, why);
  size_t si = source_index(g->conns[i]->meta().source);
  if (si != SIZE_MAX && health_.record_failure(si)) {
    core_.counters.quarantines->inc();
    RDDR_LOG_WARN("%s: instance source '%s' quarantined", config_.name.c_str(),
                  config_.instance_sources[si].c_str());
  }
  const size_t live = g->live();
  if (live >= 2) return true;
  if (live == 1 && config_.degradation == DegradationPolicy::kFailOpen) {
    core_.counters.passthrough_sessions->inc();
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
  for (size_t i; (i = g->closed_slot()) != SIZE_MAX;) {
    if (!g->any_ready()) {
      if (g->all_closed()) teardown(g);
      return;
    }
    if (config_.degradation == DegradationPolicy::kStrict) {
      intervene(g, strformat("instance %zu closed while peers kept "
                             "sending to the backend",
                             i));
      return;
    }
    core_.counters.instance_unreachable->inc();
    if (!drop_member(g, i, "closed while peers kept sending")) return;
  }
  if (!g->all_ready()) {
    // Divergence-by-silence guard (§IV-D): some instance has a request
    // pending while a sibling stays quiet.
    core_.arm_unit_timeout(g, [this](const std::shared_ptr<Group>& flow,
                                     const std::vector<size_t>& silent) {
      if (config_.degradation == DegradationPolicy::kStrict) {
        intervene(flow, "instance request timeout at the backend merge");
        return;
      }
      for (size_t i : silent) {
        core_.counters.instance_unreachable->inc();
        if (!drop_member(flow, i, "request timeout")) return;
      }
      pump(flow);
    });
    return;
  }
  core_.compare(g, &g->state, inherited_trace(*g),
                [this](const std::shared_ptr<Group>& flow, MergeOutcome& m) {
                  on_merged(flow, m);
                });
}

void OutgoingProxy::on_merged(const std::shared_ptr<Group>& g,
                              MergeOutcome& m) {
  if (m.kind == MergeOutcome::Kind::kDivergent) {
    intervene(g, m.verdict.reason, &m.verdict, &m.units);
    return;
  }
  if (m.kind == MergeOutcome::Kind::kOutvoted) {
    const size_t slot = m.outvoted;
    RDDR_LOG_WARN("%s: flow '%s': instance %zu outvoted by quorum "
                  "(%zu-of-%zu agree); dropping it",
                  config_.name.c_str(), g->flow_label.c_str(), slot,
                  m.units.size() - 1, m.units.size());
    m.units.erase(m.units.begin() +
                  static_cast<std::ptrdiff_t>(m.verdict.outlier));
    size_t si = source_index(g->conns[slot]->meta().source);
    bool ok = drop_member(g, slot, "outvoted by quorum");
    // Divergence is evidence, not unavailability: no re-admission.
    if (si != SIZE_MAX) health_.mark_dead(si);
    if (!ok) {
      core_.end_diff(m);
      return;
    }
  } else if (health_.n_instances() > 0) {
    for (size_t i : m.slots) {
      size_t si = source_index(g->conns[i]->meta().source);
      if (si != SIZE_MAX) health_.record_success(si);
    }
  }
  core_.end_diff(m);
  core_.counters.units_replicated->inc();
  if (g->backend && g->backend->is_open()) g->backend->send(m.units[0].data);
  pump(g);
}

uint64_t OutgoingProxy::inherited_trace(const Group& g) const {
  for (const auto& m : g.conns)
    if (m && m->flow().trace_id) return m->flow().trace_id;
  return g.trace;
}

void OutgoingProxy::intervene(const std::shared_ptr<Group>& g,
                              const std::string& reason,
                              const BatchVerdict* verdict,
                              const std::vector<Unit>* units) {
  if (g->ended) return;
  core_.counters.divergences->inc();
  RDDR_LOG_INFO("%s: intervention on flow '%s': %s", config_.name.c_str(),
                g->flow_label.c_str(), reason.c_str());
  if (config_.tracer) config_.tracer->tag(g->root_span, "intervention", reason);
  core_.record_divergence("intervention", reason, verdict, units, *g,
                          inherited_trace(*g));
  teardown(g);
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
  for (auto& m : g->conns)
    if (m && m->is_open()) m->close();
  if (g->backend && g->backend->is_open()) g->backend->close();
  core_.end_spans(*g);
  groups_.erase(g->id);
}

void OutgoingProxy::abort_all_sessions(const std::string& reason) {
  // Copy out: teardown mutates the map.
  std::vector<std::shared_ptr<Group>> active;
  for (auto& [id, g] : groups_) active.push_back(g);
  for (auto& g : active) {
    core_.counters.divergences->inc();
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
  core_.counters.replacements->inc();
  RDDR_LOG_INFO("%s: instance %zu replaced; now dialling in from %s",
                config_.name.c_str(), i, source_node.c_str());
}

}  // namespace rddr::core
