#include "workloads.h"

#include <algorithm>
#include <climits>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "common/stats.h"
#include "common/strutil.h"
#include "netsim/block_device.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/parallel.h"
#include "rddr/rddr.h"
#include "services/http_service.h"
#include "sqldb/client.h"
#include "sqldb/server.h"
#include "sqldb/storage/storage_engine.h"
#include "workloads/pgbench.h"

namespace perfbench {

using namespace rddr;

namespace {

// ---- shapes (fixed; only --seed varies the inputs) -----------------------

// pgbench_select: the Fig 5 deployment (bench/fig5_throughput_latency.cc).
constexpr int kPgAccounts = 20000;
constexpr int kPgClients = 16;
constexpr uint64_t kPgWarmup = 2000;
constexpr uint64_t kPgMeasured = 20000;

// http_csrf: 3 plain HttpServers behind the HTTP plugin.
constexpr int kHttpClients = 16;
constexpr int kHttpPages = 64;
constexpr double kHttpLargeShare = 0.25;  // ~16 KB pages; the rest ~200 B
constexpr uint64_t kHttpWarmup = 500;
constexpr uint64_t kHttpMeasured = 5000;

// sharded_rw_durable: 4-shard Frontier, 3 durable minipg per shard.
constexpr size_t kShards = 4;
constexpr size_t kShardIslands = 4;
constexpr int kShardAccounts = 2000;
constexpr double kArrivalRate = 8000;  // per virtual second, all shards
// Share of arrivals that UPDATE then read back (the rest SELECT). Writes
// pay WAL syncs, so latency is bimodal; at exactly one half the median
// would sit in the gap between the modes and jump between seeds.
constexpr double kWriteShare = 0.4;
constexpr uint64_t kShardWarmup = 300;
constexpr uint64_t kShardMeasured = 1500;

constexpr double kCpuPerQuery = 2e-3;  // fig5's minipg model

/// Worker threads of the island executor: two, or fewer on smaller hosts.
/// Its workers spin at window barriers, so a thread on every core makes
/// the run hostage to any other process on the box.
size_t shard_threads() {
  const size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(2, hw));
}

void mix(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
}

/// Request bookkeeping shared by the load generators: indices, the
/// warm-up split, correctness, virtual latency of measured requests and
/// the digest of every virtual outcome.
struct Recorder {
  Recorder(sim::Simulator& s, uint64_t w, uint64_t m)
      : sim(s), warmup(w), measured(m) {}

  bool can_issue() const { return issued < warmup + measured; }
  uint64_t issue() {
    uint64_t idx = issued++;
    if (idx == warmup) virt_t0 = sim.now();
    return idx;
  }
  /// `value` is the checked answer (or a marker of the failure).
  void resolve(uint64_t idx, sim::Time t_issue, bool good, int64_t value) {
    ++resolved;
    if (good) ++ok;
    const sim::Time t = sim.now();
    mix(digest, idx);
    mix(digest, good ? 1 : 0);
    mix(digest, static_cast<uint64_t>(value));
    mix(digest, static_cast<uint64_t>(t - t_issue));
    if (idx < warmup) return;
    latency_ms.add(static_cast<double>(t - t_issue) / 1e6);
    if (t > virt_end) virt_end = t;
  }
  bool done() const { return resolved >= warmup + measured; }
  bool measuring() const { return issued > warmup; }

  sim::Simulator& sim;
  uint64_t warmup;
  uint64_t measured;
  uint64_t issued = 0;
  uint64_t resolved = 0;
  uint64_t ok = 0;
  sim::Time virt_t0 = 0;
  sim::Time virt_end = 0;
  SampleStats latency_ms;
  uint64_t digest = 1469598103934665603ull;
};

/// The `next_query` generator callback: timed in traced runs, and where
/// the self-test burns its fixed host cost per request.
struct Generator {
  const RunConfig& cfg;
  Recorder& rec;
  std::vector<std::string>* sql_sample = nullptr;
  uint64_t ns = 0;
  uint64_t calls = 0;

  template <typename F>
  auto operator()(F&& f) {
    busy_wait_ns(cfg.busy_ns_per_req);
    if (!cfg.probe) return f();
    uint64_t t0 = now_ns();
    auto out = f();
    ns += now_ns() - t0;
    ++calls;
    return out;
  }
  void sample(const std::string& sql) {
    if (sql_sample && rec.measuring() && sql_sample->size() < Probe::kMaxUnits)
      sql_sample->push_back(sql);
  }
};

void add_probe(Counters& c, const Probe* p) {
  if (!p) return;
  c["plugin_ns"] = static_cast<double>(p->plugin_ns());
  c["plugin_calls"] = static_cast<double>(p->plugin_calls());
  c["framer_ns"] = static_cast<double>(p->framer_feed.ns + p->framer_take.ns);
  c["framer_calls"] =
      static_cast<double>(p->framer_feed.calls + p->framer_take.calls);
  c["canon_ns"] = static_cast<double>(p->canonicalize.ns);
  c["canon_calls"] = static_cast<double>(p->canonicalize.calls);
  c["rewrite_calls"] = static_cast<double>(p->rewrite.calls);
  c["units_c2s"] = static_cast<double>(p->units_c2s);
  c["units_s2c"] = static_cast<double>(p->units_s2c);
  c["bytes_c2s"] = static_cast<double>(p->bytes_c2s);
  c["bytes_s2c"] = static_cast<double>(p->bytes_s2c);
}

void add_proxy(Counters& c, const core::ProxyStats& st,
               uint64_t interventions) {
  c["sessions"] = static_cast<double>(st.sessions);
  c["units_compared"] = static_cast<double>(st.units_compared);
  c["divergences"] = static_cast<double>(st.divergences);
  c["interventions"] = static_cast<double>(interventions);
  c["admitted"] = static_cast<double>(st.admitted);
  c["shed"] = static_cast<double>(st.shed);
}

/// Steps the simulation until every request resolved. The measured phase
/// starts at the first step boundary after the first measured request was
/// issued: between steps no island is running, so the counters read there
/// are quiescent.
void drive(sim::Simulator& simulator, Recorder& rec, const RunConfig& cfg,
           double t_start, Episode& ep,
           const std::function<Counters()>& snapshot,
           const std::function<double()>& sessions) {
  bool timed = false;
  double wall0 = 0, cpu0 = 0;
  Counters start;
  uint64_t next_rss = 0;
  while (!rec.done()) {
    if (!simulator.step()) break;  // ran dry: unresolved requests fail
    if (!timed && rec.measuring()) {
      timed = true;
      wall0 = wall_s();
      cpu0 = process_cpu_s();
      ep.setup_s = wall0 - t_start;
      start = snapshot();
      if (cfg.probe) cfg.probe->capture = true;
    }
    if (timed && cfg.probe && rec.resolved >= next_rss) {
      ep.rss.emplace_back(sessions(), rss_kb());
      next_rss = rec.resolved + 512;
    }
  }
  if (!timed) throw std::runtime_error("no measured request was issued");
  ep.wall_s = wall_s() - wall0;
  ep.cpu_s = process_cpu_s() - cpu0;
  if (cfg.probe) cfg.probe->capture = false;
  Counters end = snapshot();
  for (const auto& [k, v] : end) ep.delta[k] = v - start[k];
  ep.attempted = rec.warmup + rec.measured;
  ep.ok = rec.ok;
  ep.measured = rec.measured;
  ep.virt_s = static_cast<double>(rec.virt_end - rec.virt_t0) / 1e9;
  ep.virt_p50_ms = rec.latency_ms.percentile(50);
  ep.virt_p99_ms = rec.latency_ms.percentile(99);
  ep.digest = rec.digest;
}

std::shared_ptr<core::ProtocolPlugin> maybe_timed(
    std::shared_ptr<core::ProtocolPlugin> p, const RunConfig& cfg) {
  if (!cfg.probe) return p;
  return std::make_shared<TimedPlugin>(std::move(p), cfg.probe);
}

/// abalance by aid of a pgbench dataset loaded with `data_seed`: the
/// benchmark's reference copy.
std::vector<int64_t> reference_balances(int accounts, uint64_t data_seed) {
  sqldb::Database ref(sqldb::minipg_info("13.0"));
  workloads::load_pgbench(ref, accounts, data_seed);
  const sqldb::TableData* t = ref.find_table("pgbench_accounts");
  if (!t) throw std::runtime_error("reference load failed");
  std::vector<int64_t> bal(static_cast<size_t>(accounts) + 1, 0);
  for (const auto& row : t->rows) {
    int64_t aid = row[0].as_int();
    if (aid < 1 || aid > accounts)
      throw std::runtime_error("reference aid out of range");
    bal[static_cast<size_t>(aid)] = row[2].as_int();
  }
  return bal;
}

/// The single integer a checked query returns, or nullopt.
std::optional<int64_t> single_int(const sqldb::QueryOutcome& out) {
  if (out.failed() || out.rows.size() != 1 || out.rows[0].size() != 1 ||
      !out.rows[0][0])
    return std::nullopt;
  char* end = nullptr;
  const std::string& s = *out.rows[0][0];
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') return std::nullopt;
  return v;
}

constexpr int64_t kFailed = INT64_MIN;

// ---- pgbench_select -------------------------------------------------------

Episode run_pgbench_select(const RunConfig& cfg) {
  const double t_start = wall_s();
  Episode ep;
  const uint64_t data_seed = 9 + cfg.seed;
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  sim::Host host(simulator, "server", 32, 128LL << 30);

  std::vector<std::unique_ptr<sqldb::SqlServer>> servers;
  std::vector<std::string> versions;
  for (int i = 0; i < 3; ++i) {
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
    workloads::load_pgbench(*db, kPgAccounts, data_seed);
    sqldb::SqlServer::Options so;
    so.address = "pg-" + std::to_string(i) + ":5432";
    so.cpu_per_query = kCpuPerQuery;
    so.cpu_per_row = 0;
    so.rng_seed = cfg.seed * 100 + 20 + static_cast<uint64_t>(i);
    versions.push_back(so.address);
    servers.push_back(
        std::make_unique<sqldb::SqlServer>(net, host, std::move(db), so));
  }
  const std::vector<int64_t> balance =
      reference_balances(kPgAccounts, data_seed);

  auto rddr = core::NVersionDeployment::Builder()
                  .listen("front:5432")
                  .versions(versions)
                  .plugin(maybe_timed(std::make_shared<core::PgPlugin>(), cfg))
                  .filter_pair(true)
                  .cpu_model(50e-6, 5e-9)
                  .build(net, host);

  Recorder rec(simulator, kPgWarmup, kPgMeasured);
  Generator gen{cfg, rec, cfg.probe ? &ep.sql : nullptr};

  struct Client {
    std::unique_ptr<sqldb::PgClient> pg;
    Rng rng;
  };
  std::vector<std::unique_ptr<Client>> clients;
  Rng seeder(cfg.seed * 7919 + 5);
  std::function<void(Client&)> issue = [&](Client& c) {
    if (!rec.can_issue()) return;
    const uint64_t idx = rec.issue();
    std::string sql = gen([&] {
      return workloads::pgbench_select_tx(c.rng, kPgAccounts);
    });
    gen.sample(sql);
    const size_t at = sql.rfind("= ");
    const int64_t aid = at == std::string::npos
                            ? 0
                            : std::strtoll(sql.c_str() + at + 2, nullptr, 10);
    const sim::Time t0 = simulator.now();
    c.pg->query(sql, [&, idx, aid, t0, cp = &c](sqldb::QueryOutcome out) {
      auto v = single_int(out);
      const bool good = aid >= 1 && aid <= kPgAccounts && v &&
                        *v == balance[static_cast<size_t>(aid)];
      rec.resolve(idx, t0, good, good ? *v : kFailed);
      if (out.connection_lost) return;
      issue(*cp);
    });
  };
  for (int i = 0; i < kPgClients; ++i) {
    auto c = std::make_unique<Client>();
    c->rng = seeder.fork(static_cast<uint64_t>(i) + 1);
    sim::ConnectMeta meta;
    meta.source = strformat("bench-client-%d", i);
    c->pg = std::make_unique<sqldb::PgClient>(net, "front:5432", "postgres",
                                              meta);
    clients.push_back(std::move(c));
  }
  for (auto& c : clients) issue(*c);

  auto snapshot = [&] {
    Counters c;
    c["events"] = static_cast<double>(simulator.events_executed());
    add_proxy(c, rddr->aggregate_stats(), rddr->divergences());
    double q = 0;
    for (const auto& s : servers) q += static_cast<double>(s->queries_served());
    c["queries"] = q;
    c["host_busy_core_s"] = host.busy_core_seconds();
    c["gen_ns"] = static_cast<double>(gen.ns);
    c["gen_calls"] = static_cast<double>(gen.calls);
    add_probe(c, cfg.probe.get());
    return c;
  };
  auto sessions = [&] {
    return static_cast<double>(rddr->incoming().stats().sessions);
  };
  drive(simulator, rec, cfg, t_start, ep, snapshot, sessions);
  for (auto& c : clients) c->pg->close();
  ep.facts["host_cores"] = host.cores();
  ep.facts["versions"] = 3;
  ep.facts["stmts_per_query"] = 1;
  ep.facts["pgwire"] = 1;
  ep.facts["accounts"] = kPgAccounts;
  ep.facts["data_seed"] = static_cast<double>(data_seed);
  ep.facts["durable"] = 0;
  return ep;
}

// ---- http_csrf ------------------------------------------------------------

/// `stable` is the same on every instance; `token` is the instance's own.
std::string page_body(int id, const std::string& token,
                      const std::string& stable) {
  return strformat(
             "<html><head><title>page %d</title></head><body>\n"
             "<form method=\"post\" action=\"/submit\">\n"
             "<input type=\"hidden\" name=\"csrf\" value=\"%s\">\n"
             "</form>\n",
             id, token.c_str()) +
         stable + "</body></html>\n";
}

std::string token_of(const Bytes& body) {
  static const std::string kMarker = "name=\"csrf\" value=\"";
  size_t at = body.find(kMarker);
  if (at == Bytes::npos) return {};
  at += kMarker.size();
  size_t end = body.find('"', at);
  if (end == Bytes::npos) return {};
  return body.substr(at, end - at);
}

Episode run_http_csrf(const RunConfig& cfg) {
  const double t_start = wall_s();
  Episode ep;
  sim::Simulator simulator;
  sim::Network net(simulator, 20 * sim::kMicrosecond);
  sim::Host host(simulator, "node", 16, 16LL << 30);

  // Stable page content: a quarter of the pages carry ~16 KB, the rest a
  // single ~120 B paragraph (~200 B bodies with the form).
  std::vector<std::string> pages(kHttpPages);
  Rng content(cfg.seed * 31 + 3);
  for (int p = 0; p < kHttpPages; ++p) {
    const bool large = content.uniform01() < kHttpLargeShare;
    const int lines = large ? 200 : 1;
    std::string s;
    for (int l = 0; l < lines; ++l)
      s += strformat("<p class=\"c%d\">item %d of page %d: %s</p>\n", l % 7, l,
                     p, content.hex_token(32).c_str());
    pages[static_cast<size_t>(p)] = std::move(s);
  }

  struct Instance {
    std::unique_ptr<services::HttpServer> server;
    Rng rng;
    std::set<std::string> live_tokens;
    std::set<uint64_t> accepted;
  };
  std::vector<std::unique_ptr<Instance>> instances;
  std::vector<std::string> versions;
  for (int i = 0; i < 3; ++i) {
    auto inst = std::make_unique<Instance>();
    services::HttpServer::Options o;
    o.address = "web-" + std::to_string(i) + ":80";
    versions.push_back(o.address);
    inst->server = std::make_unique<services::HttpServer>(net, host, o);
    inst->rng = Rng(cfg.seed * 1000 + 100 + static_cast<uint64_t>(i));
    Instance* self = inst.get();
    inst->server->set_handler([self, &pages](const http::Request& req,
                                             services::Responder respond) {
      if (req.method == "GET" && req.target.rfind("/page/", 0) == 0) {
        int id = std::atoi(req.target.c_str() + 6);
        if (id < 0 || id >= kHttpPages) {
          respond(http::make_response(404, "<p>no such page</p>"));
          return;
        }
        std::string token = self->rng.alnum_token(32);
        self->live_tokens.insert(token);
        respond(http::make_response(
            200, page_body(id, token, pages[static_cast<size_t>(id)])));
        return;
      }
      if (req.method == "POST" && req.target == "/submit") {
        // body: csrf=<token>&req=<id>
        const std::string& b = req.body;
        size_t amp = b.find("&req=");
        std::string token = b.rfind("csrf=", 0) == 0 && amp != Bytes::npos
                                ? b.substr(5, amp - 5)
                                : std::string();
        if (!token.empty() && self->live_tokens.erase(token)) {
          uint64_t id = std::strtoull(b.c_str() + amp + 5, nullptr, 10);
          self->accepted.insert(id);
          respond(http::make_response(
              200, strformat("<p>accepted request %llu</p>",
                             static_cast<unsigned long long>(id))));
          return;
        }
        respond(http::make_response(403, "<p>bad token</p>"));
        return;
      }
      respond(http::make_response(404, "<p>not found</p>"));
    });
    instances.push_back(std::move(inst));
  }

  core::HttpPlugin::Options popts;
  popts.handle_ephemeral_state = true;
  auto rddr = core::NVersionDeployment::Builder()
                  .listen("web:80")
                  .versions(versions)
                  .plugin(maybe_timed(
                      std::make_shared<core::HttpPlugin>(popts), cfg))
                  .filter_pair(true)
                  .build(net, host);

  Recorder rec(simulator, kHttpWarmup, kHttpMeasured);
  Generator gen{cfg, rec, nullptr};
  std::vector<uint64_t> posts_ok;  // client-side accepted POSTs

  struct Client {
    std::unique_ptr<services::HttpClient> http;
    Rng rng;
    std::string token;  // harvested from the last page, "" = GET next
  };
  std::vector<std::unique_ptr<Client>> clients;
  Rng seeder(cfg.seed * 7919 + 11);
  std::function<void(Client&)> issue = [&](Client& c) {
    if (!rec.can_issue()) return;
    const uint64_t idx = rec.issue();
    const sim::Time t0 = simulator.now();
    if (c.token.empty()) {
      int page = 0;
      http::Request req = gen([&] {
        page = static_cast<int>(c.rng.uniform(0, kHttpPages - 1));
        http::Request r;
        r.method = "GET";
        r.target = strformat("/page/%d", page);
        r.headers.set("Host", "web");
        return r;
      });
      c.http->request("web:80", std::move(req),
                      [&, idx, t0, page, cp = &c](int status,
                                                  const http::Response* r) {
        const std::string& p = pages[static_cast<size_t>(page)];
        std::string token = r ? token_of(r->body) : std::string();
        const bool good = status == 200 && r && token.size() == 32 &&
                          r->body == page_body(page, token, p);
        cp->token = good ? token : std::string();
        rec.resolve(idx, t0, good, good ? page : kFailed);
        issue(*cp);
      });
      return;
    }
    http::Request req = gen([&] {
      http::Request r;
      r.method = "POST";
      r.target = "/submit";
      r.headers.set("Host", "web");
      r.headers.set("Content-Type", "application/x-www-form-urlencoded");
      r.body = strformat("csrf=%s&req=%llu", c.token.c_str(),
                         static_cast<unsigned long long>(idx));
      return r;
    });
    c.token.clear();
    c.http->request(
        "web:80", std::move(req),
        [&, idx, t0, cp = &c](int status, const http::Response* r) {
          const bool good =
              status == 200 && r &&
              r->body == strformat("<p>accepted request %llu</p>",
                                   static_cast<unsigned long long>(idx));
          if (good) posts_ok.push_back(idx);
          rec.resolve(idx, t0, good,
                      good ? static_cast<int64_t>(idx) : kFailed);
          issue(*cp);
        });
  };
  for (int i = 0; i < kHttpClients; ++i) {
    auto c = std::make_unique<Client>();
    c->http = std::make_unique<services::HttpClient>(
        net, strformat("browser-%d", i));
    c->rng = seeder.fork(static_cast<uint64_t>(i) + 1);
    clients.push_back(std::move(c));
  }
  for (auto& c : clients) issue(*c);

  auto snapshot = [&] {
    Counters c;
    c["events"] = static_cast<double>(simulator.events_executed());
    add_proxy(c, rddr->aggregate_stats(), rddr->divergences());
    c["host_busy_core_s"] = host.busy_core_seconds();
    c["gen_ns"] = static_cast<double>(gen.ns);
    c["gen_calls"] = static_cast<double>(gen.calls);
    add_probe(c, cfg.probe.get());
    return c;
  };
  auto sessions = [&] {
    return static_cast<double>(rddr->incoming().stats().sessions);
  };
  drive(simulator, rec, cfg, t_start, ep, snapshot, sessions);

  // A POST the client saw accepted must have been accepted by all three
  // instances (a 0/1 disagreement would be masked as filter-pair noise).
  uint64_t missing = 0;
  for (uint64_t id : posts_ok)
    for (const auto& inst : instances)
      if (!inst->accepted.count(id)) {
        ++missing;
        break;
      }
  ep.ok -= std::min<uint64_t>(ep.ok, missing);
  mix(ep.digest, missing);
  ep.facts["host_cores"] = host.cores();
  ep.facts["versions"] = 3;
  ep.facts["posts_ok"] = static_cast<double>(posts_ok.size());
  ep.facts["pgwire"] = 0;
  ep.facts["stmts_per_query"] = 0;
  return ep;
}

// ---- sharded_rw_durable ---------------------------------------------------

Episode run_sharded_rw_durable(const RunConfig& cfg) {
  const double t_start = wall_s();
  Episode ep;
  const uint64_t data_seed = 9 + cfg.seed;
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);

  struct Replica {
    std::shared_ptr<sim::BlockDevice> data, wal;
    std::unique_ptr<sqldb::SqlServer> server;
  };
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<sim::Host*> host_ptrs;
  std::vector<Replica> replicas;
  std::vector<std::vector<std::string>> pools;
  for (size_t k = 0; k < kShards; ++k) {
    hosts.push_back(std::make_unique<sim::Host>(
        simulator, "node-" + std::to_string(k), 32, 128LL << 30));
    host_ptrs.push_back(hosts.back().get());
    pools.emplace_back();
    for (int i = 0; i < 3; ++i) {
      Replica r;
      sim::BlockDevice::Options dev;
      dev.rng_seed = cfg.seed * 1000 + k * 10 + static_cast<uint64_t>(i);
      r.data = std::make_shared<sim::BlockDevice>(dev);
      dev.rng_seed += 500;
      r.wal = std::make_shared<sim::BlockDevice>(dev);
      sqldb::storage::StorageOptions sto;
      sto.frame_budget = 16;  // of ~32 account pages: the pool must evict
      sto.checkpoint_every_records = 256;
      auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
      workloads::load_pgbench(*db, kShardAccounts, data_seed);
      sqldb::SqlServer::Options so;
      so.address = strformat("pg-s%zu-%d:5432", k, i);
      so.cpu_per_query = kCpuPerQuery;
      so.cpu_per_row = 0;
      so.rng_seed = cfg.seed * 100 + 20 + k * 10 + static_cast<uint64_t>(i);
      so.storage = std::make_shared<sqldb::storage::StorageEngine>(
          simulator, r.data, r.wal, sto);
      so.lineage_seed = cfg.seed;
      r.server = std::make_unique<sqldb::SqlServer>(net, *hosts.back(),
                                                    std::move(db), so);
      pools.back().push_back(so.address);
      replicas.push_back(std::move(r));
    }
  }
  // Bootstrap IO, deferred listens and the initial checkpoints run on the
  // single loop before the islands exist.
  simulator.run_until_idle();

  const std::vector<int64_t> initial =
      reference_balances(kShardAccounts, data_seed);
  std::vector<std::vector<int64_t>> balance(kShards, initial);

  core::AdmissionOptions adm;
  adm.rate_per_s = 4200;
  adm.burst = 32;
  adm.queue_limit = 64;
  adm.shed_deadline = 5 * sim::kMillisecond;
  const size_t islands = cfg.islands ? cfg.islands : kShardIslands;
  if (islands > 1) {
    // Declares the islands before build_frontier does, to cap the worker
    // threads; build_frontier's own (idempotent) call changes nothing.
    sim::ParallelOptions popts;
    popts.threads = shard_threads();
    popts.lookahead_provider = [&net] { return net.min_link_latency(); };
    simulator.configure_islands(islands, popts);
  }
  auto front = core::NVersionDeployment::Builder()
                   .name("front")
                   .listen("front:5432")
                   .plugin(maybe_timed(std::make_shared<core::PgPlugin>(), cfg))
                   .filter_pair(true)
                   .cpu_model(50e-6, 5e-9)
                   .admission(adm)
                   .shard_versions(pools)
                   .islands(islands)
                   .build_frontier(net, host_ptrs);

  Recorder rec(simulator, kShardWarmup, kShardMeasured);
  Generator gen{cfg, rec, cfg.probe ? &ep.sql : nullptr};
  Rng arrivals(cfg.seed * 7919 + 17);
  Rng ops(cfg.seed * 7919 + 19);
  std::set<std::pair<size_t, int64_t>> in_flight;  // (shard, aid)
  std::map<uint64_t, std::unique_ptr<sqldb::PgClient>> conns;
  uint64_t stmts = 0, scripts = 0;

  auto arrive = [&] {
    const uint64_t idx = rec.issue();
    const sim::Time t0 = simulator.now();  // the scheduled arrival time
    sim::ConnectMeta meta;
    meta.source =
        strformat("arrival-%llu", static_cast<unsigned long long>(idx));
    const size_t shard = front->route_of(meta.source);
    bool write = false;
    int64_t aid = 0, delta = 0;
    std::string sql = gen([&] {
      write = ops.uniform01() < kWriteShare;
      // Two transactions never race on one (shard, aid): the benchmark's
      // balance model stays exact under concurrency.
      do {
        aid = ops.uniform(1, kShardAccounts);
      } while (in_flight.count({shard, aid}));
      delta = ops.uniform(-500, 500);
      return write ? strformat(
                         "UPDATE pgbench_accounts SET abalance = abalance + "
                         "%lld WHERE aid = %lld; SELECT abalance FROM "
                         "pgbench_accounts WHERE aid = %lld;",
                         static_cast<long long>(delta),
                         static_cast<long long>(aid),
                         static_cast<long long>(aid))
                   : strformat("SELECT abalance FROM pgbench_accounts "
                               "WHERE aid = %lld;",
                               static_cast<long long>(aid));
    });
    gen.sample(sql);
    stmts += write ? 2 : 1;
    ++scripts;
    in_flight.insert({shard, aid});
    auto client = std::make_unique<sqldb::PgClient>(net, "front:5432",
                                                    "postgres", meta);
    sqldb::PgClient* raw = client.get();
    conns.emplace(idx, std::move(client));
    raw->query(sql, [&, idx, t0, shard, aid, delta, write](
                        sqldb::QueryOutcome out) {
      int64_t& model = balance[shard][static_cast<size_t>(aid)];
      const int64_t expect = write ? model + delta : model;
      auto v = single_int(out);
      const bool good = v && *v == expect;
      if (good) model = expect;
      in_flight.erase({shard, aid});
      rec.resolve(idx, t0, good, good ? expect : kFailed);
      // The outcome runs inside the client's handler: free it later.
      simulator.schedule(0, [&, idx] {
        auto it = conns.find(idx);
        if (it == conns.end()) return;
        it->second->close();
        conns.erase(it);
      });
    });
  };
  // A Poisson process conditioned on its count: arrival times are sorted
  // uniform draws over the span `count / rate`, so every seed offers
  // exactly the configured rate while keeping Poisson burstiness.
  const uint64_t total = kShardWarmup + kShardMeasured;
  std::vector<sim::Time> at(total);
  const double span_s = static_cast<double>(total) / kArrivalRate;
  for (auto& t : at)
    t = static_cast<sim::Time>(arrivals.uniform01() * span_s * 1e9);
  std::sort(at.begin(), at.end());
  size_t next = 0;
  std::function<void()> fire = [&] {
    arrive();
    if (++next >= total) return;
    const sim::Time gap = at[next] - at[next - 1];
    simulator.schedule(gap > 0 ? gap : 1, [&] { fire(); });
  };
  simulator.schedule(at[0] > 0 ? at[0] : 1, [&] { fire(); });

  auto snapshot = [&] {
    Counters c;
    c["events"] = static_cast<double>(simulator.events_executed());
    add_proxy(c, front->aggregate_stats(), front->divergences());
    double q = 0, wal_bytes = 0, hits = 0, misses = 0, ckpts = 0, io_ns = 0;
    for (const auto& r : replicas) {
      q += static_cast<double>(r.server->queries_served());
      const auto* st = r.server->storage();
      wal_bytes += static_cast<double>(st->counters().wal_bytes_appended);
      ckpts += static_cast<double>(st->counters().checkpoints_completed);
      hits += static_cast<double>(st->pool().stats().hits);
      misses += static_cast<double>(st->pool().stats().misses);
      for (const auto* d : {r.data.get(), r.wal.get()}) {
        const auto& dc = d->counters();
        const auto& o = d->options();
        auto ns = [](uint64_t n, sim::Time each) {
          return static_cast<double>(n) * static_cast<double>(each);
        };
        io_ns += ns(dc.reads, o.read_latency) +
                 ns(dc.writes, o.write_latency) +
                 ns(dc.syncs, o.sync_latency);
      }
    }
    c["queries"] = q;
    c["wal_bytes"] = wal_bytes;
    c["pool_hits"] = hits;
    c["pool_misses"] = misses;
    c["checkpoints"] = ckpts;
    c["io_ns"] = io_ns;
    double busy = 0;
    for (const auto& h : hosts) busy += h->busy_core_seconds();
    c["host_busy_core_s"] = busy;
    if (const auto* ex = simulator.executor()) {
      const auto& ps = ex->stats();
      c["windows"] = static_cast<double>(ps.windows);
      c["stalls"] = static_cast<double>(ps.barrier_stalls);
      c["par_events"] = static_cast<double>(ps.total_events);
      c["par_critical"] = static_cast<double>(ps.critical_path_events);
    }
    c["gen_ns"] = static_cast<double>(gen.ns);
    c["gen_calls"] = static_cast<double>(gen.calls);
    c["stmts"] = static_cast<double>(stmts);
    c["scripts"] = static_cast<double>(scripts);
    add_probe(c, cfg.probe.get());
    return c;
  };
  auto sessions = [&] {
    return static_cast<double>(front->aggregate_stats().sessions);
  };
  drive(simulator, rec, cfg, t_start, ep, snapshot, sessions);
  for (auto& [idx, c] : conns) c->close();

  ep.facts["host_cores"] = 32.0 * kShards;
  ep.facts["versions"] = 3;
  ep.facts["pgwire"] = 1;
  ep.facts["accounts"] = kShardAccounts;
  ep.facts["data_seed"] = static_cast<double>(data_seed);
  ep.facts["durable"] = 1;
  ep.facts["islands"] = static_cast<double>(islands);
  const auto* ex = simulator.executor();
  ep.facts["threads"] = ex ? static_cast<double>(ex->thread_count()) : 1.0;
  ep.facts["stmts_per_query"] =
      ep.delta["scripts"] > 0 ? ep.delta["stmts"] / ep.delta["scripts"] : 1;
  const auto* q = front->metrics().find_histogram("front.queued_ms");
  ep.facts["queued_ms_p99"] = q && q->count() ? q->percentile(99) : 0;
  return ep;
}

}  // namespace

Counters Episode::flat() const {
  Counters c = {{"setup_s", setup_s},
                {"wall_s", wall_s},
                {"cpu_s", cpu_s},
                {"attempted", static_cast<double>(attempted)},
                {"ok", static_cast<double>(ok)},
                {"measured", static_cast<double>(measured)},
                {"virt_s", virt_s},
                {"virt_p50_ms", virt_p50_ms},
                {"virt_p99_ms", virt_p99_ms},
                {"virt_tps", virt_tps()}};
  for (const auto& [k, v] : delta) c["d." + k] = v;
  for (const auto& [k, v] : facts) c["f." + k] = v;
  return c;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pgbench_select", "http_csrf", "sharded_rw_durable"};
  return names;
}

Episode run_episode(const std::string& workload, const RunConfig& cfg) {
  if (workload == "pgbench_select") return run_pgbench_select(cfg);
  if (workload == "http_csrf") return run_http_csrf(cfg);
  if (workload == "sharded_rw_durable") return run_sharded_rw_durable(cfg);
  throw std::runtime_error("unknown workload " + workload);
}

}  // namespace perfbench
