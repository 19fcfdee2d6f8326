#include "rddr/incoming_proxy.h"

#include <algorithm>
#include <deque>

#include "common/log.h"
#include "common/strutil.h"

namespace rddr::core {

struct IncomingProxy::Session {
  uint64_t id = 0;
  sim::ConnPtr client;
  std::unique_ptr<StreamFramer> client_framer;
  bool client_passthrough = false;

  // All vectors are indexed by instance id [0, N); a slot of a dropped or
  // skipped instance holds a null upstream and participating=false.
  std::vector<sim::ConnPtr> upstreams;
  std::vector<std::unique_ptr<StreamFramer>> upstream_framers;
  std::vector<std::deque<Unit>> queues;
  std::vector<bool> upstream_closed;
  std::vector<bool> participating;
  // Catch-up connections to readmitted instances that are not part of this
  // session (lazily dialled; responses are discarded, never compared).
  std::vector<sim::ConnPtr> shadows;

  bool busy = false;          // a compare task is on the host
  bool ended = false;
  bool degraded = false;      // counted into degraded_sessions once
  bool failopen = false;      // uncompared passthrough on the sole survivor
  size_t failopen_idx = 0;
  uint64_t timeout_event = 0; // pending instance-timeout event id
  uint64_t idle_event = 0;    // pending idle-shed event id
  // Last protocol progress: a completed client unit or a forwarded
  // response. Deliberately NOT raw byte activity — a slowloris sender
  // trickling bytes never completes a unit and must still be shed.
  sim::Time last_progress = 0;
  // Fingerprint of the most recent client unit (divergence attribution
  // for the signature store). Pipelined requests make this approximate,
  // which mirrors real signature generators.
  uint64_t last_unit_fingerprint = 0;
  bool has_fingerprint = false;

  // Trace context (zero when no tracer is configured).
  obs::TraceId trace = 0;
  obs::SpanId root_span = 0;
  std::vector<obs::SpanId> upstream_spans;

  // Execution index of this session's flow: the inbound connection's index
  // verbatim for nested hops (the caller's dial frame is the call site), or
  // a fresh root frame (listen site, session id) for originating edge
  // requests. Replicated upstream dials carry it unchanged.
  ExecutionIndex index;

  size_t live() const {
    size_t n = 0;
    for (bool p : participating)
      if (p) ++n;
    return n;
  }
};

IncomingProxy::IncomingProxy(sim::Network& net, sim::Host& host,
                             Config config, DivergenceBus* bus)
    : net_(net),
      host_(host),
      config_(std::move(config)),
      bus_(bus),
      health_([this] {
        HealthTracker::Options h = config_.health;
        h.n_instances = config_.instance_addresses.size();
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
  token_state_.n_instances = config_.instance_addresses.size();
  token_state_.delete_tokens_after_use = config_.delete_tokens_after_use;
  probe_events_.assign(config_.instance_addresses.size(), 0);
  dead_events_.assign(config_.instance_addresses.size(), 0);
  resync_.resize(config_.instance_addresses.size());
  host_.charge_memory(config_.base_memory_bytes);
  if (!config_.listen_address.empty())
    net_.listen(config_.listen_address,
                [this](sim::ConnPtr c) { on_accept(std::move(c)); });
  if (bus_) {
    bus_->subscribe([this](const DivergenceEvent& ev) {
      // A sibling proxy (the outgoing one) saw divergence: the client
      // session must not receive whatever the instances produce next.
      if (ev.proxy != config_.name)
        abort_all_sessions("sibling proxy reported: " + ev.reason);
    });
  }
}

IncomingProxy::~IncomingProxy() {
  if (!config_.listen_address.empty()) net_.unlisten(config_.listen_address);
  host_.release_memory(config_.base_memory_bytes);
  for (auto& [id, s] : sessions_) {
    if (s->timeout_event) net_.simulator().cancel(s->timeout_event);
    if (s->idle_event) net_.simulator().cancel(s->idle_event);
  }
  for (uint64_t ev : probe_events_)
    if (ev) net_.simulator().cancel(ev);
  for (uint64_t ev : dead_events_)
    if (ev) net_.simulator().cancel(ev);
  for (auto& rs : resync_)
    if (rs.complete_event) net_.simulator().cancel(rs.complete_event);
}

void IncomingProxy::note_units_consumed(uint64_t n) {
  if (n == 0) return;
  queued_units_ = queued_units_ >= n ? queued_units_ - n : 0;
  if (config_.on_load_change) config_.on_load_change();
}

void IncomingProxy::end_session_spans(const std::shared_ptr<Session>& s) {
  if (!config_.tracer) return;
  for (obs::SpanId sp : s->upstream_spans) config_.tracer->end(sp);
  config_.tracer->end(s->root_span);
}

void IncomingProxy::note_instance_failure(size_t i) {
  if (config_.degradation == DegradationPolicy::kStrict) return;
  if (health_.record_failure(i)) {
    counters_.quarantines->inc();
    RDDR_LOG_WARN("%s: instance %zu (%s) quarantined", config_.name.c_str(),
                  i, config_.instance_addresses[i].c_str());
    // A quarantined instance no longer receives client units, so a live
    // session still comparing it would read ever-staler state and outvote
    // it over what is really transient unavailability. Withdraw it from
    // every session (deferred — the caller may be mid-pump on one of
    // them); the resync snapshot covers everything it misses.
    net_.simulator().schedule(0, [this, i] {
      if (health_.state(i) != HealthTracker::State::kQuarantined) return;
      std::vector<std::shared_ptr<Session>> live;
      for (auto& [id, s] : sessions_) live.push_back(s);
      for (auto& s : live) {
        if (s->ended || !s->participating[i]) continue;
        if (drop_instance(s, i, "quarantined")) pump(s);
      }
    });
    schedule_reconnect(i);
  }
}

void IncomingProxy::schedule_reconnect(size_t i) {
  if (probe_events_[i]) return;
  if (health_.state(i) != HealthTracker::State::kQuarantined) return;
  if (health_.attempts_exhausted(i)) {
    RDDR_LOG_WARN("%s: instance %zu (%s) declared dead after %u failed "
                  "reconnect attempts",
                  config_.name.c_str(), i,
                  config_.instance_addresses[i].c_str(), health_.attempts(i));
    notify_dead(i, "reconnect attempts exhausted");
    return;
  }
  sim::Time delay = health_.next_backoff(i);
  probe_events_[i] = net_.simulator().schedule(delay, [this, i] {
    probe_events_[i] = 0;
    if (health_.state(i) != HealthTracker::State::kQuarantined) return;
    auto probe = net_.connect(
        config_.instance_addresses[i],
        {.source = config_.name, .flow = {.label = "health-probe"}});
    if (!probe) {
      schedule_reconnect(i);
      return;
    }
    probe->close();
    if (config_.resync.enabled && config_.resync.warm) {
      begin_resync(i);
      return;
    }
    health_.readmit(i);
    counters_.reconnects->inc();
    RDDR_LOG_INFO("%s: instance %zu (%s) re-admitted after reconnect",
                  config_.name.c_str(), i,
                  config_.instance_addresses[i].c_str());
  });
}

void IncomingProxy::notify_dead(size_t i, const std::string& reason) {
  health_.mark_dead(i);
  if (!config_.on_instance_dead || dead_events_[i]) return;
  // Deferred to a fresh event: the hook typically replaces the instance,
  // which rewrites proxy state — never reenter mid-pump.
  dead_events_[i] = net_.simulator().schedule(0, [this, i, reason] {
    dead_events_[i] = 0;
    if (health_.state(i) == HealthTracker::State::kDead)
      config_.on_instance_dead(i, reason);
  });
}

void IncomingProxy::begin_resync(size_t i) {
  if (!health_.begin_resync(i)) return;
  counters_.resyncs->inc();
  ResyncState& rs = resync_[i];
  rs = ResyncState{};
  if (config_.tracer) {
    rs.trace = config_.tracer->id_stream(config_.name)->next_trace();
    rs.span = config_.tracer->begin(rs.trace, 0, "resync", config_.name);
    config_.tracer->tag(rs.span, "instance", strformat("%zu", i));
    config_.tracer->tag(rs.span, "address", config_.instance_addresses[i]);
  }
  ResyncOptions::WarmResult warmed = config_.resync.warm(i);
  int64_t bytes = warmed.bytes;
  if (bytes < 0) {
    fail_resync(i, "state transfer failed");
    return;
  }
  counters_.pages_shipped->inc(warmed.pages_shipped);
  counters_.wal_bytes_replayed->inc(warmed.wal_bytes);
  rs.active = true;
  rs.bytes = bytes;
  if (config_.tracer) {
    config_.tracer->tag(rs.span, "bytes",
                        strformat("%lld", static_cast<long long>(bytes)));
    config_.tracer->tag(rs.span, "mode", warmed.mode);
    if (warmed.pages_shipped)
      config_.tracer->tag(rs.span, "pages_shipped",
                          strformat("%llu", static_cast<unsigned long long>(
                                                warmed.pages_shipped)));
    if (warmed.wal_records)
      config_.tracer->tag(rs.span, "wal_records",
                          strformat("%llu", static_cast<unsigned long long>(
                                                warmed.wal_records)));
  }
  sim::Time window = std::max(
      config_.resync.min_transfer_time,
      static_cast<sim::Time>(static_cast<double>(bytes) *
                             config_.resync.transfer_seconds_per_byte *
                             static_cast<double>(sim::kSecond)));
  RDDR_LOG_INFO("%s: instance %zu (%s) resyncing: %lld bytes warmed, "
                "journaling writes for %lld ns",
                config_.name.c_str(), i, config_.instance_addresses[i].c_str(),
                static_cast<long long>(bytes),
                static_cast<long long>(window));
  rs.complete_event = net_.simulator().schedule(window, [this, i] {
    resync_[i].complete_event = 0;
    finish_resync(i);
  });
}

void IncomingProxy::fail_resync(size_t i, const std::string& why) {
  ResyncState& rs = resync_[i];
  if (rs.complete_event) {
    net_.simulator().cancel(rs.complete_event);
    rs.complete_event = 0;
  }
  rs.active = false;
  rs.journal.clear();
  if (config_.tracer && rs.span) {
    config_.tracer->tag(rs.span, "failed", why);
    config_.tracer->end(rs.span);
    rs.span = 0;
  }
  RDDR_LOG_WARN("%s: instance %zu (%s) resync failed (%s); back to "
                "quarantine",
                config_.name.c_str(), i, config_.instance_addresses[i].c_str(),
                why.c_str());
  health_.resync_failed(i);
  schedule_reconnect(i);
}

void IncomingProxy::finish_resync(size_t i) {
  ResyncState& rs = resync_[i];
  if (!rs.active) return;
  if (rs.overflow) {
    fail_resync(i, strformat("journal overflow (> %zu units)",
                             config_.resync.journal_max_units));
    return;
  }
  size_t replayed = 0;
  if (!rs.journal.empty()) {
    sim::ConnectMeta meta;
    meta.source = config_.name;
    meta.flow.label = "resync-replay";
    meta.flow.trace_id = rs.trace;
    meta.flow.parent_span = rs.span;
    // Infrastructure traffic gets its own root frame — it belongs to no
    // client request's call path.
    meta.flow.index.push(ExecutionIndex::site_id(config_.name, "resync-replay"),
                         static_cast<uint32_t>(i));
    auto conn = net_.connect(config_.instance_addresses[i], meta);
    if (!conn) {
      fail_resync(i, "instance unreachable at journal replay");
      return;
    }
    Bytes preamble = config_.plugin->resync_preamble();
    if (!preamble.empty()) conn->send(preamble);
    CompareContext ctx;
    ctx.filter_pair = config_.filter_pair;
    ctx.variance = &config_.variance;
    ctx.session = &token_state_;
    for (const Unit& u : rs.journal) {
      conn->send(SharedBytes(config_.plugin->rewrite_for_instance(u, i, ctx)));
      counters_.journal_replayed_requests->inc();
      ++replayed;
    }
    conn->close();  // graceful: queued bytes are delivered first
  }
  rs.journal.clear();
  rs.active = false;
  if (config_.tracer && rs.span) {
    config_.tracer->tag(rs.span, "journal_replayed", strformat("%zu", replayed));
    config_.tracer->end(rs.span);
    rs.span = 0;
  }
  health_.readmit(i);
  counters_.reconnects->inc();
  RDDR_LOG_INFO("%s: instance %zu (%s) resynced and re-admitted (%zu "
                "journaled units replayed)",
                config_.name.c_str(), i, config_.instance_addresses[i].c_str(),
                replayed);
}

void IncomingProxy::journal_unit(size_t i, const Unit& u) {
  ResyncState& rs = resync_[i];
  if (rs.overflow) return;
  if (rs.journal.size() >= config_.resync.journal_max_units) {
    rs.overflow = true;  // finish_resync aborts; a later probe starts over
    return;
  }
  rs.journal.push_back(u);
}

void IncomingProxy::shadow_unit(const std::shared_ptr<Session>& s, size_t i,
                                const Unit& u, const CompareContext& ctx) {
  auto& sh = s->shadows[i];
  if (sh && !sh->is_open()) sh = nullptr;  // stale (crash or replacement)
  if (!sh) {
    sim::ConnectMeta meta;
    meta.source = config_.name;
    meta.flow.label =
        strformat("catchup-%llu", static_cast<unsigned long long>(s->id));
    meta.flow.trace_id = s->trace;
    meta.flow.parent_span = s->root_span;
    // Shadow replay nests under the session's path: one child frame per
    // shadowed instance, so corpus records during catch-up still attribute
    // to the originating request.
    meta.flow.index = s->index.child(
        ExecutionIndex::site_id(config_.name, "catchup-shadow"),
        static_cast<uint32_t>(i));
    sh = net_.connect(config_.instance_addresses[i], meta);
    if (!sh) return;  // flapped again; the health machinery will notice
    Bytes preamble = config_.plugin->resync_preamble();
    if (!preamble.empty()) sh->send(preamble);
  }
  sh->send(SharedBytes(config_.plugin->rewrite_for_instance(u, i, ctx)));
  counters_.journal_replayed_requests->inc();
}

void IncomingProxy::replace_instance(size_t i,
                                     const std::string& new_address) {
  if (probe_events_[i]) {
    net_.simulator().cancel(probe_events_[i]);
    probe_events_[i] = 0;
  }
  if (dead_events_[i]) {
    net_.simulator().cancel(dead_events_[i]);
    dead_events_[i] = 0;
  }
  ResyncState& rs = resync_[i];
  if (rs.complete_event) {
    net_.simulator().cancel(rs.complete_event);
    rs.complete_event = 0;
  }
  if (config_.tracer && rs.span) {
    config_.tracer->tag(rs.span, "aborted", "instance replaced");
    config_.tracer->end(rs.span);
  }
  rs = ResyncState{};
  // Catch-up connections of live sessions still point at the old replica;
  // drop them so the next shadowed unit dials the new address.
  for (auto& [id, s] : sessions_) {
    if (i < s->shadows.size() && s->shadows[i]) {
      if (s->shadows[i]->is_open()) s->shadows[i]->close();
      s->shadows[i] = nullptr;
    }
  }
  config_.instance_addresses[i] = new_address;
  health_.reset_replaced(i);
  counters_.replacements->inc();
  RDDR_LOG_INFO("%s: instance %zu replaced; now %s (quarantined until "
                "probe + resync)",
                config_.name.c_str(), i, new_address.c_str());
  schedule_reconnect(i);
}

void IncomingProxy::on_accept(sim::ConnPtr conn) {
  // Targeted path quarantine: a call site whose interventions crossed the
  // threshold is refused outright — one poisoned path through the graph is
  // blocked while every other caller of this edge keeps being served. Only
  // indexed (nested) flows qualify; root edge sessions all share the
  // proxy's own listen site and are never path-blocked.
  if (config_.path_quarantine_threshold > 0 && !conn->flow().index.empty()) {
    auto it = path_strikes_.find(conn->flow().index.leaf_site());
    if (it != path_strikes_.end() &&
        it->second >= config_.path_quarantine_threshold) {
      counters_.path_blocks->inc();
      RDDR_LOG_INFO("%s: refusing session from quarantined call path %s",
                    config_.name.c_str(),
                    conn->flow().index.describe().c_str());
      Bytes page = config_.plugin->intervention_response();
      if (!page.empty() && conn->is_open()) conn->send(page);
      if (conn->is_open()) conn->close();
      return;
    }
  }
  auto s = std::make_shared<Session>();
  s->id = next_session_id_++;
  s->client = std::move(conn);
  s->client_framer = config_.plugin->make_framer(Direction::kClientToServer);
  counters_.sessions->inc();

  // Execution index: nested hops keep the caller's index (its leaf frame
  // is the call site that dialed this edge); an originating edge request
  // mints the root frame (listen site, session id).
  if (s->client->flow().index.empty()) {
    s->index.push(
        ExecutionIndex::site_id(config_.name, config_.listen_address),
        static_cast<uint32_t>(s->id));
  } else {
    s->index = s->client->flow().index;
  }

  // Reuse the caller's trace when the connection carries one (the workload
  // driver and nested hops tag their connects) — divergence records carry
  // it even when no tracer is configured.
  s->trace = s->client->flow().trace_id;
  obs::Tracer* tracer = config_.tracer;
  if (tracer) {
    // Untraced edge request: this session starts a fresh trace.
    if (!s->trace) s->trace = tracer->id_stream(config_.name)->next_trace();
    s->root_span = tracer->begin(s->trace, s->client->flow().parent_span,
                                 "session", config_.name);
    if (!s->client->meta().source.empty())
      tracer->tag(s->root_span, "client", s->client->meta().source);
  }

  const size_t n = config_.instance_addresses.size();
  const bool strict = config_.degradation == DegradationPolicy::kStrict;
  s->queues.resize(n);
  s->upstream_closed.resize(n, false);
  s->participating.assign(n, false);
  s->upstreams.resize(n);
  s->upstream_framers.resize(n);
  s->upstream_spans.assign(n, 0);
  s->shadows.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!strict && !health_.is_healthy(i)) continue;  // quarantined: skip
    sim::ConnectMeta meta;
    meta.source = config_.name;
    meta.flow.label =
        strformat("in-%llu", static_cast<unsigned long long>(s->id));
    meta.flow.trace_id = s->trace;
    meta.flow.parent_span = s->root_span;
    // Replication is transparent to the call path: all N upstream dials
    // carry the session's index unchanged, so the instances' own onward
    // dials nest under the same logical hop.
    meta.flow.index = s->index;
    auto up = net_.connect(config_.instance_addresses[i], meta);
    if (!up) {
      RDDR_LOG_WARN("%s: instance %zu (%s) refused connection",
                    config_.name.c_str(), i,
                    config_.instance_addresses[i].c_str());
      counters_.instance_unreachable->inc();
      if (strict) {
        // Unavailability is not an attack: refuse the client without a
        // divergence count or bus report, and tear down the upstream
        // connections already opened for lower indices (these leaked
        // before).
        for (size_t j = 0; j < i; ++j)
          if (s->upstreams[j] && s->upstreams[j]->is_open())
            s->upstreams[j]->close();
        Bytes page = config_.plugin->intervention_response();
        if (!page.empty() && s->client->is_open()) s->client->send(page);
        if (s->client->is_open()) s->client->close();
        if (tracer) tracer->tag(s->root_span, "refused", "instance unreachable");
        end_session_spans(s);
        return;
      }
      note_instance_failure(i);
      continue;
    }
    s->upstreams[i] = up;
    s->upstream_framers[i] =
        config_.plugin->make_framer(Direction::kServerToClient);
    s->participating[i] = true;
    if (tracer) {
      s->upstream_spans[i] =
          tracer->begin(s->trace, s->root_span, "upstream", config_.name);
      tracer->tag(s->upstream_spans[i], "instance", strformat("%zu", i));
      tracer->tag(s->upstream_spans[i], "address",
                  config_.instance_addresses[i]);
    }
  }

  const size_t live = s->live();
  if (live < n) {
    s->degraded = true;
    counters_.degraded_sessions->inc();
  }
  const bool failopen_ok = config_.degradation == DegradationPolicy::kFailOpen;
  if (live == 0 || (live == 1 && !failopen_ok)) {
    // Nothing to serve (or a single instance we are not allowed to trust
    // unverified): refuse the client. Not a divergence.
    for (auto& up : s->upstreams)
      if (up && up->is_open()) up->close();
    Bytes page = config_.plugin->intervention_response();
    if (!page.empty() && s->client->is_open()) s->client->send(page);
    if (s->client->is_open()) s->client->close();
    if (tracer) tracer->tag(s->root_span, "refused", "too few healthy instances");
    end_session_spans(s);
    return;
  }

  sessions_[s->id] = s;
  for (size_t i = 0; i < n; ++i)
    if (s->participating[i]) attach_upstream(s, i);
  s->last_progress = net_.simulator().now();
  arm_idle(s);

  if (live == 1) {
    size_t sole = 0;
    for (size_t i = 0; i < n; ++i)
      if (s->participating[i]) sole = i;
    enter_failopen(s, sole);
  }

  s->client->set_on_data([this, s](ByteView data) {
    if (s->ended) return;
    if (s->client_passthrough) {
      // Wrap once; all N upstreams share the buffer.
      SharedBytes shared{data};
      for (auto& up : s->upstreams)
        if (up && up->is_open()) up->send(shared);
      return;
    }
    s->client_framer->feed(data);
    if (s->client_framer->failed()) {
      // The client speaks something our framer does not understand; fall
      // back to raw replication so the instances decide (their responses
      // are still diffed).
      s->client_passthrough = true;
      counters_.passthrough_sessions->inc();
      SharedBytes rest{Bytes(s->client_framer->unconsumed())};
      for (auto& up : s->upstreams)
        if (up && up->is_open()) up->send(rest);
      return;
    }
    CompareContext ctx;
    ctx.filter_pair = config_.filter_pair;
    ctx.variance = &config_.variance;
    ctx.session = &token_state_;
    for (auto& u : s->client_framer->take()) {
      s->last_progress = net_.simulator().now();
      if (config_.signature_blocking) {
        uint64_t fp = std::hash<std::string>()(u.data);
        auto hit = signatures_.find(fp);
        if (hit != signatures_.end() &&
            hit->second >= config_.signature_threshold) {
          // Known-bad input: refuse at the proxy; the instances never see
          // the request (the §IV-D repeated-divergence DoS mitigation).
          counters_.signature_blocks->inc();
          RDDR_LOG_INFO("%s: refused request matching divergence signature",
                        config_.name.c_str());
          if (config_.tracer) {
            obs::SpanId ev = config_.tracer->event(s->trace, s->root_span,
                                                   "replicate", config_.name);
            config_.tracer->tag(ev, "blocked", "divergence signature");
          }
          Bytes page = config_.plugin->intervention_response();
          if (!page.empty() && s->client->is_open()) s->client->send(page);
          teardown(s);
          return;
        }
        s->last_unit_fingerprint = fp;
        s->has_fingerprint = true;
      }
      counters_.units_replicated->inc();
      if (config_.tracer) {
        obs::SpanId ev = config_.tracer->event(s->trace, s->root_span,
                                               "replicate", config_.name);
        config_.tracer->tag(ev, "fanout", strformat("%zu", s->live()));
        config_.tracer->tag(ev, "bytes", strformat("%zu", u.data.size()));
      }
      // Identity-rewrite fast path: materialise the unit once and fan the
      // same refcounted buffer out to every participating instance. Plugins
      // that restore per-instance tokens (HTTP) take the rewrite path.
      const bool identity = config_.plugin->rewrites_identity();
      SharedBytes shared;
      if (identity) shared = SharedBytes(Bytes(u.data));
      for (size_t i = 0; i < s->upstreams.size(); ++i) {
        if (s->participating[i] && s->upstreams[i]) {
          if (identity) {
            s->upstreams[i]->send(shared);
          } else {
            s->upstreams[i]->send(
                SharedBytes(config_.plugin->rewrite_for_instance(u, i, ctx)));
          }
          continue;
        }
        // Instance absent from this session. Mid-resync its copy of this
        // unit is journaled; once readmitted, catch-up shadowing keeps it
        // from drifting while this (pre-readmission) session lives on.
        // Quarantined instances get neither: the resync snapshot covers
        // everything they miss. Session-lifecycle units never replay.
        if (!config_.plugin->replayable(u)) continue;
        if (resync_[i].active) {
          journal_unit(i, u);
        } else if (config_.resync.enabled && config_.resync.catch_up_sessions &&
                   health_.is_healthy(i)) {
          shadow_unit(s, i, u, ctx);
        }
      }
    }
  });
  s->client->set_on_close([this, s] {
    if (s->ended) return;
    teardown(s);
  });
}

void IncomingProxy::attach_upstream(const std::shared_ptr<Session>& s,
                                    size_t i) {
  auto up = s->upstreams[i];
  up->set_on_data([this, s, i](ByteView data) {
    if (s->ended || !s->participating[i]) return;
    if (s->failopen) {
      s->last_progress = net_.simulator().now();
      if (s->client->is_open()) s->client->send(data);
      return;
    }
    auto& framer = *s->upstream_framers[i];
    framer.feed(data);
    if (framer.failed()) {
      if (config_.degradation == DegradationPolicy::kStrict) {
        intervene(s, strformat("instance %zu response framing error", i));
      } else if (drop_instance(s, i, "response framing error")) {
        pump(s);
      }
      return;
    }
    for (auto& u : framer.take()) {
      s->queues[i].push_back(std::move(u));
      ++queued_units_;
    }
    arm_timeout(s);
    pump(s);
  });
  up->set_on_close([this, s, i] {
    if (s->ended || !s->participating[i]) return;
    s->upstream_closed[i] = true;
    if (s->failopen) {
      // The sole surviving instance is gone: nothing left to serve.
      teardown(s);
      return;
    }
    // Divergence-by-silence or a crash: pump decides with queue context.
    pump(s);
  });
}

void IncomingProxy::enter_failopen(const std::shared_ptr<Session>& s,
                                   size_t sole) {
  s->failopen = true;
  s->failopen_idx = sole;
  s->client_passthrough = true;
  counters_.passthrough_sessions->inc();
  if (config_.tracer) config_.tracer->tag(s->root_span, "failopen",
                                          strformat("instance %zu", sole));
  RDDR_LOG_WARN("%s: session %llu FAIL-OPEN: forwarding instance %zu "
                "uncompared (fewer than 2 healthy instances)",
                config_.name.c_str(),
                static_cast<unsigned long long>(s->id), sole);
  // Everything already framed or buffered for the survivor flows straight
  // to the client from here on.
  for (auto& u : s->queues[sole])
    if (s->client->is_open()) s->client->send(u.data);
  note_units_consumed(s->queues[sole].size());
  s->queues[sole].clear();
  if (s->upstream_framers[sole]) {
    Bytes rest = s->upstream_framers[sole]->unconsumed();
    if (!rest.empty() && s->client->is_open()) s->client->send(rest);
  }
  if (s->timeout_event) {
    net_.simulator().cancel(s->timeout_event);
    s->timeout_event = 0;
  }
}

bool IncomingProxy::drop_instance(const std::shared_ptr<Session>& s, size_t i,
                                  const std::string& why) {
  if (s->ended) return false;
  if (!s->participating[i]) return true;
  RDDR_LOG_WARN("%s: session %llu: dropping instance %zu (%s)",
                config_.name.c_str(),
                static_cast<unsigned long long>(s->id), i, why.c_str());
  s->participating[i] = false;
  if (s->upstreams[i] && s->upstreams[i]->is_open()) s->upstreams[i]->close();
  s->upstreams[i] = nullptr;
  note_units_consumed(s->queues[i].size());
  s->queues[i].clear();
  if (config_.tracer && s->upstream_spans[i]) {
    config_.tracer->tag(s->upstream_spans[i], "dropped", why);
    config_.tracer->end(s->upstream_spans[i]);
  }
  if (!s->degraded) {
    s->degraded = true;
    counters_.degraded_sessions->inc();
  }
  const size_t live = s->live();
  if (live >= 2) return true;
  if (live == 1 && config_.degradation == DegradationPolicy::kFailOpen) {
    size_t sole = 0;
    for (size_t j = 0; j < s->participating.size(); ++j)
      if (s->participating[j]) sole = j;
    enter_failopen(s, sole);
    return false;  // pump must not compare a fail-open session
  }
  // kQuorum with < 2 healthy: nothing left to verify against — refuse the
  // rest of the session (fail closed, but not a divergence).
  Bytes page = config_.plugin->intervention_response();
  if (!page.empty() && s->client && s->client->is_open())
    s->client->send(page);
  teardown(s);
  return false;
}

void IncomingProxy::arm_timeout(const std::shared_ptr<Session>& s) {
  if (config_.unit_timeout <= 0 || s->ended || s->failopen) return;
  bool some = false, all = true;
  for (size_t i = 0; i < s->queues.size(); ++i) {
    if (!s->participating[i]) continue;
    if (s->queues[i].empty()) all = false;
    else some = true;
  }
  if (some && !all && !s->timeout_event) {
    s->timeout_event = net_.simulator().schedule(
        config_.unit_timeout, [this, s] {
          s->timeout_event = 0;
          if (s->ended || s->failopen) return;
          std::vector<size_t> silent;
          bool have_output = false;
          for (size_t i = 0; i < s->queues.size(); ++i) {
            if (!s->participating[i]) continue;
            if (s->queues[i].empty()) silent.push_back(i);
            else have_output = true;
          }
          if (silent.empty() || !have_output) return;
          counters_.timeouts->inc();
          if (config_.degradation == DegradationPolicy::kStrict) {
            intervene(s, "instance response timeout");
            return;
          }
          // Non-strict: the silent instances are lost, not the session.
          for (size_t i : silent) {
            counters_.instance_unreachable->inc();
            note_instance_failure(i);
            if (!drop_instance(s, i, "response timeout")) return;
          }
          pump(s);
        });
  }
}

void IncomingProxy::pump(const std::shared_ptr<Session>& s) {
  if (s->busy || s->ended || s->failopen) return;
  const bool strict = config_.degradation == DegradationPolicy::kStrict;

  bool rescan = true;
  while (rescan) {
    rescan = false;
    for (size_t i = 0; i < s->queues.size(); ++i) {
      if (!s->participating[i] || !s->queues[i].empty()) continue;
      if (!s->upstream_closed[i]) continue;
      // This instance is gone. If a peer has produced output, the
      // deployment has diverged (strict) or the instance crashed mid-unit
      // (degraded); if nobody has anything pending, the close is a normal
      // end-of-session — propagate it once everyone closed.
      bool peer_has_output = false;
      for (size_t j = 0; j < s->queues.size(); ++j)
        if (s->participating[j] && !s->queues[j].empty())
          peer_has_output = true;
      if (peer_has_output) {
        if (strict) {
          intervene(s,
                    strformat("instance %zu closed while peers responded", i));
          return;
        }
        counters_.instance_unreachable->inc();
        note_instance_failure(i);
        if (!drop_instance(s, i, "closed while peers responded")) return;
        rescan = true;
        break;
      }
      bool all_closed = true;
      for (size_t j = 0; j < s->queues.size(); ++j)
        if (s->participating[j] && !s->upstream_closed[j]) all_closed = false;
      if (all_closed) teardown(s);
      return;
    }
  }

  bool all_ready = true;
  for (size_t i = 0; i < s->queues.size(); ++i)
    if (s->participating[i] && s->queues[i].empty()) all_ready = false;
  if (!all_ready) return;

  if (s->timeout_event) {
    net_.simulator().cancel(s->timeout_event);
    s->timeout_event = 0;
  }

  auto units = std::make_shared<std::vector<Unit>>();
  std::vector<size_t> idxmap;  // unit position -> instance id
  size_t bytes = 0;
  for (size_t i = 0; i < s->queues.size(); ++i) {
    if (!s->participating[i]) continue;
    bytes += s->queues[i].front().data.size();
    units->push_back(std::move(s->queues[i].front()));
    s->queues[i].pop_front();
    idxmap.push_back(i);
  }
  note_units_consumed(idxmap.size());
  s->busy = true;
  obs::SpanId diff_span = 0;
  const sim::Time diff_start = net_.simulator().now();
  if (config_.tracer) {
    diff_span =
        config_.tracer->begin(s->trace, s->root_span, "diff", config_.name);
    config_.tracer->tag(diff_span, "instances",
                        strformat("%zu", idxmap.size()));
  }
  double cost = config_.cpu_per_unit +
                static_cast<double>(bytes) * config_.cpu_per_byte;
  host_.run_task(cost, [this, s, units, idxmap = std::move(idxmap), diff_span,
                        diff_start] {
    s->busy = false;
    counters_.compare_ms->observe(
        static_cast<double>(net_.simulator().now() - diff_start) / 1e6);
    obs::Tracer* tracer = config_.tracer;
    if (tracer) {
      // The de-noise pass runs inside the plugin's compare; a marker span
      // keeps it visible in the taxonomy.
      obs::SpanId dn = tracer->event(s->trace, diff_span, "denoise",
                                     config_.name);
      tracer->tag(dn, "filter_pair", config_.filter_pair ? "true" : "false");
    }
    if (s->ended) {
      if (tracer) tracer->end(diff_span);
      return;
    }
    counters_.units_compared->inc();
    const size_t n = config_.instance_addresses.size();
    CompareContext ctx;
    // The de-noise mask needs the filter pair in slots 0/1; a degraded
    // group may have lost one of them.
    ctx.filter_pair = config_.filter_pair && idxmap.size() >= 2 &&
                      idxmap[0] == 0 && idxmap[1] == 1;
    ctx.variance = &config_.variance;
    // Token harvesting assumes per-instance vectors of length N; skip it
    // for degraded groups (pre-harvested tokens still rewrite fine).
    ctx.session = idxmap.size() == n ? &token_state_ : nullptr;

    auto verdict = [&](const char* v) -> obs::SpanId {
      if (!tracer) return 0;
      obs::SpanId sp = tracer->event(s->trace, diff_span, "verdict",
                                     config_.name);
      tracer->tag(sp, "verdict", v);
      return sp;
    };

    Bytes fwd;
    if (config_.degradation == DegradationPolicy::kStrict) {
      BatchVerdict outcome =
          engine_.compare(*config_.plugin, *units, ctx, VoteMode::kStrict);
      if (!outcome.agreed) {
        obs::SpanId sp = verdict("divergent");
        if (tracer) {
          tracer->tag(sp, "reason", outcome.reason);
          tracer->end(diff_span);
        }
        intervene(s, outcome.reason, &outcome, units.get());
        return;
      }
      verdict("agree");
      fwd = engine_.forward_downstream(*config_.plugin, *units, ctx);
    } else {
      BatchVerdict vote =
          engine_.compare(*config_.plugin, *units, ctx, VoteMode::kQuorum);
      if (!vote.agreed) {
        obs::SpanId sp = verdict("divergent");
        if (tracer) {
          tracer->tag(sp, "reason", vote.reason);
          tracer->end(diff_span);
        }
        intervene(s, vote.reason, &vote, units.get());
        return;
      }
      if (vote.outlier != SIZE_MAX) {
        size_t inst = idxmap[vote.outlier];
        counters_.quorum_outvotes->inc();
        record_divergence("outvote", vote.reason, &vote, units.get(), s.get());
        obs::SpanId sp = verdict("outvoted");
        if (tracer)
          tracer->tag(sp, "outvoted_instance", strformat("%zu", inst));
        RDDR_LOG_WARN("%s: session %llu: instance %zu outvoted by quorum "
                      "(%zu-of-%zu agree); quarantining it",
                      config_.name.c_str(),
                      static_cast<unsigned long long>(s->id), inst,
                      units->size() - 1, units->size());
        if (health_.quarantine(inst)) counters_.quarantines->inc();
        // A divergent answer is evidence of compromise, not transient
        // unavailability: no automatic re-admission (probes only test
        // reachability, which an outvoted instance still has). With an
        // orchestrator attached, on_instance_dead replaces the replica.
        notify_dead(inst, "outvoted by quorum");
        units->erase(units->begin() +
                     static_cast<std::ptrdiff_t>(vote.outlier));
        ctx.filter_pair = ctx.filter_pair && vote.outlier > 1;
        ctx.session = nullptr;  // degraded group: see above
        if (!drop_instance(s, inst, "outvoted by quorum")) {
          if (tracer) tracer->end(diff_span);
          return;
        }
      } else {
        for (size_t i : idxmap) health_.record_success(i);
        verdict("agree");
      }
      fwd = engine_.forward_downstream(*config_.plugin, *units, ctx);
    }
    if (tracer) tracer->end(diff_span);
    s->last_progress = net_.simulator().now();
    if (s->client->is_open()) s->client->send(SharedBytes(std::move(fwd)));
    pump(s);
    arm_timeout(s);
  });
}

void IncomingProxy::arm_idle(const std::shared_ptr<Session>& s) {
  if (config_.idle_timeout <= 0 || s->ended) return;
  const sim::Time now = net_.simulator().now();
  const sim::Time due = s->last_progress + config_.idle_timeout;
  s->idle_event = net_.simulator().schedule(due > now ? due - now : 1,
                                            [this, s] {
    s->idle_event = 0;
    if (s->ended) return;
    if (net_.simulator().now() - s->last_progress < config_.idle_timeout) {
      arm_idle(s);  // progress since the last arm; re-check at the new due
      return;
    }
    counters_.idle_sheds->inc();
    RDDR_LOG_INFO("%s: session %llu shed: no protocol progress for %lld ns",
                  config_.name.c_str(),
                  static_cast<unsigned long long>(s->id),
                  static_cast<long long>(config_.idle_timeout));
    if (config_.tracer)
      config_.tracer->tag(s->root_span, "shed", "idle timeout");
    Bytes page = config_.plugin->overload_response();
    if (!page.empty() && s->client && s->client->is_open())
      s->client->send(page);
    teardown(s);
  });
}

void IncomingProxy::record_divergence(const char* verdict_class,
                                      const std::string& reason,
                                      const BatchVerdict* verdict,
                                      const std::vector<Unit>* units,
                                      const Session* s) {
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
  if (s) {
    rec.trace_id = s->trace;
    rec.index = s->index;
  }
  // The one reporting path: the bus logs the record, dedups per callsite,
  // notifies record subscribers and — for interventions — emits the
  // cross-proxy abort event.
  bus_->report(rec);
}

void IncomingProxy::intervene(const std::shared_ptr<Session>& s,
                              const std::string& reason,
                              const BatchVerdict* verdict,
                              const std::vector<Unit>* units) {
  if (s->ended) return;
  counters_.divergences->inc();
  RDDR_LOG_INFO("%s: intervention on session %llu: %s", config_.name.c_str(),
                static_cast<unsigned long long>(s->id), reason.c_str());
  if (config_.tracer) config_.tracer->tag(s->root_span, "intervention", reason);
  if (config_.signature_blocking && s->has_fingerprint)
    ++signatures_[s->last_unit_fingerprint];
  // Path quarantine strikes accrue against the call site that dialed this
  // edge (nested flows only; root sessions carry the proxy's own site).
  if (config_.path_quarantine_threshold > 0 && s->client &&
      !s->client->flow().index.empty())
    ++path_strikes_[s->index.leaf_site()];
  record_divergence("intervention", reason, verdict, units, s.get());
  Bytes page = config_.plugin->intervention_response();
  if (!page.empty() && s->client && s->client->is_open())
    s->client->send(page);
  teardown(s);
}

void IncomingProxy::teardown(const std::shared_ptr<Session>& s) {
  if (s->ended) return;
  s->ended = true;
  if (s->timeout_event) {
    net_.simulator().cancel(s->timeout_event);
    s->timeout_event = 0;
  }
  if (s->idle_event) {
    net_.simulator().cancel(s->idle_event);
    s->idle_event = 0;
  }
  if (s->client && s->client->is_open()) s->client->close();
  for (auto& up : s->upstreams)
    if (up && up->is_open()) up->close();
  for (auto& sh : s->shadows)
    if (sh && sh->is_open()) sh->close();
  end_session_spans(s);
  sessions_.erase(s->id);
  uint64_t still_queued = 0;
  for (const auto& q : s->queues) still_queued += q.size();
  note_units_consumed(still_queued);
  // Session count dropped: wake a backpressured front tier even when no
  // units were pending.
  if (still_queued == 0 && config_.on_load_change) config_.on_load_change();
}

void IncomingProxy::abort_all_sessions(const std::string& reason) {
  // Copy ids: teardown mutates the map.
  std::vector<std::shared_ptr<Session>> active;
  for (auto& [id, s] : sessions_) active.push_back(s);
  for (auto& s : active) {
    counters_.divergences->inc();
    Bytes page = config_.plugin->intervention_response();
    if (!page.empty() && s->client && s->client->is_open())
      s->client->send(page);
    RDDR_LOG_INFO("%s: aborting session %llu: %s", config_.name.c_str(),
                  static_cast<unsigned long long>(s->id), reason.c_str());
    if (config_.tracer)
      config_.tracer->tag(s->root_span, "intervention", reason);
    teardown(s);
  }
}

}  // namespace rddr::core
