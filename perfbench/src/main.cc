// Host-cost benchmark of the RDDR simulator.
//
//   rddr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   rddr_perfbench --workload <name> --seed <n> --selftest
//
// --in-process runs every episode in this process instead of a fresh
// child (for profilers); the default isolates each episode.
//
// --trace 0 repeats whole episodes (build, load, warm up, measure) for
// about --seconds and prints the end-to-end metrics as medians over the
// episodes. --trace 1 runs untraced/traced episode pairs, replays the
// captured inputs through each layer and prints the per-layer ledger.
// --selftest adds a fixed host cost per request from the benchmark's own
// generator and checks that throughput falls as predicted while every
// virtual output stays identical.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. The exit code is nonzero when two same-seed
// episodes disagree on their virtual outputs or a check fails.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.h"
#include "rddr/plugins.h"
#include "replay.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
};

/// --in-process: run episodes without forking (for profilers such as
/// gprof, which only write a profile when the process exits normally).
bool g_in_process = false;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: rddr_perfbench --workload <name> --seed <n> "
               "(--seconds <s> --trace <0|1> | --selftest)\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed")
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(value().c_str());
    else if (k == "--trace") a.trace = std::atoi(value().c_str());
    else if (k == "--selftest") a.selftest = true;
    else if (k == "--in-process") g_in_process = true;
    else usage(("unknown argument " + k).c_str());
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("unknown --workload");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double slope_per_1k(const std::vector<std::pair<double, double>>& pts) {
  if (pts.size() < 3) return 0;
  double mx = 0, my = 0;
  for (const auto& [x, y] : pts) {
    mx += x;
    my += y;
  }
  mx /= static_cast<double>(pts.size());
  my /= static_cast<double>(pts.size());
  double sxy = 0, sxx = 0;
  for (const auto& [x, y] : pts) {
    sxy += (x - mx) * (y - my);
    sxx += (x - mx) * (x - mx);
  }
  return sxx > 0 ? 1000.0 * sxy / sxx : 0;
}

/// What one episode reports to the parent: its flattened scalars and the
/// digest of its virtual outputs.
struct Run {
  Counters v;
  uint64_t digest = 0;

  double operator[](const std::string& k) const {
    auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  }
  bool has(const std::string& k) const { return v.count(k) > 0; }
  double rate() const { return (*this)["measured"] / (*this)["wall_s"]; }
};

Run of(const Episode& e) {
  Run r{e.flat(), e.digest};
  r.v["rss_slope_kb_per_1k"] = slope_per_1k(e.rss);
  return r;
}

/// Runs `body` in a child process and returns its Run, plus the child's
/// peak RSS. Every episode gets a fresh address space, so memory one
/// episode leaves behind cannot slow or inflate the next one.
Run isolated(const std::function<Run()>& body) {
  if (g_in_process) return body();
  std::fflush(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string out;
    try {
      Run r = body();
      char buf[64];
      std::snprintf(buf, sizeof buf, "digest %llu\n",
                    static_cast<unsigned long long>(r.digest));
      out = buf;
      for (const auto& [k, v] : r.v) {
        char line[256];
        std::snprintf(line, sizeof line, "%s %.17g\n", k.c_str(), v);
        out += line;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL: %s\n", e.what());
      code = 4;
    }
    size_t off = 0;
    while (off < out.size()) {
      ssize_t n = write(fds[1], out.data() + off, out.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  while (true) {
    ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) text.append(buf, static_cast<size_t>(n));
    else if (n < 0 && errno == EINTR) continue;
    else break;
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("episode process failed");
  Run r;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    std::string k = line.substr(0, sp);
    if (k == "digest")
      r.digest = std::strtoull(line.c_str() + sp + 1, nullptr, 10);
    else
      r.v[k] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  r.v["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return r;
}

/// One JSON metric entry, full precision.
std::string metric(const std::string& name, double value, const char* unit) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                name.c_str(), std::isfinite(value) ? value : 0.0, unit);
  return buf;
}

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> metrics;

  void add(const Run& r) {
    const auto att = static_cast<uint64_t>(r["attempted"]);
    const auto ok = static_cast<uint64_t>(r["ok"]);
    attempted += att;
    failed += att - std::min(att, ok);
    if (ok != att) correct = false;
  }
  void print() const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i) out += ", ";
      out += metrics[i];
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }
};

/// Virtual outputs of an episode: equal for every same-seed episode.
bool same_virtual(const Run& a, const Run& b) {
  for (const char* k :
       {"attempted", "ok", "virt_s", "virt_p50_ms", "virt_p99_ms"})
    if (a[k] != b[k]) return false;
  return a.digest == b.digest;
}

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  std::exit(3);
}

void log_run(const char* tag, const Run& e) {
  std::fprintf(stderr,
               "[%s] setup %.3fs  measured %.0f in %.3fs wall / %.3fs cpu  "
               "(%.0f req/s)  ok %.0f/%.0f  rss %.1fMB  virt %.1f tps p50 "
               "%.3fms p99 %.3fms  digest %016llx\n",
               tag, e["setup_s"], e["measured"], e["wall_s"], e["cpu_s"],
               e.rate(), e["ok"], e["attempted"], e["peak_rss_mb"],
               e["virt_tps"], e["virt_p50_ms"], e["virt_p99_ms"],
               static_cast<unsigned long long>(e.digest));
}

Run episode(const std::string& workload, const RunConfig& cfg) {
  return isolated([&] { return of(run_episode(workload, cfg)); });
}

// ---- --trace 0: end-to-end metrics -----------------------------------------

int run_end_to_end(const Args& a) {
  RunConfig cfg;
  cfg.seed = a.seed;
  std::vector<Run> eps;
  const double t0 = wall_s();
  // At least three episodes, so set-up time is a median too.
  while (eps.size() < 3 || wall_s() - t0 < a.seconds) {
    eps.push_back(episode(a.workload, cfg));
    log_run("episode", eps.back());
    if (!same_virtual(eps.front(), eps.back()))
      fail("two same-seed episodes gave different virtual outputs");
  }
  Result r;
  std::vector<double> rate, cpu, setup, rss;
  for (const Run& e : eps) {
    r.add(e);
    rate.push_back(e.rate());
    cpu.push_back(e["cpu_s"] * 1e6 / e["measured"]);
    setup.push_back(e["setup_s"]);
    rss.push_back(e["peak_rss_mb"]);
  }
  const Run& e = eps.front();
  r.metrics = {
      metric("sim_req_per_s", median(rate), "1/s"),
      metric("cpu_us_per_req", median(cpu), "us"),
      metric("setup_s", median(setup), "s"),
      metric("peak_rss_mb", median(rss), "MB"),
      metric("ok_frac",
             static_cast<double>(r.attempted - r.failed) /
                 static_cast<double>(r.attempted),
             "frac"),
      metric("virt_tps", e["virt_tps"], "1/s"),
      metric("virt_p50_ms", e["virt_p50_ms"], "ms"),
      metric("virt_p99_ms", e["virt_p99_ms"], "ms"),
  };
  r.print();
  return 0;
}

// ---- --trace 1: per-layer ledger -------------------------------------------

/// The traced episode plus the replays of what it captured ("r.*").
Run traced_episode(const std::string& workload, const RunConfig& plain) {
  RunConfig cfg = plain;
  cfg.probe = std::make_shared<Probe>();
  Episode t = run_episode(workload, cfg);
  Run out = of(t);
  const Probe& probe = *cfg.probe;
  const bool pg = t.facts.at("pgwire") > 0;
  std::shared_ptr<rddr::core::ProtocolPlugin> plugin;
  if (pg) {
    plugin = std::make_shared<rddr::core::PgPlugin>();
    std::vector<rddr::core::Unit> all = probe.c2s_units;
    all.insert(all.end(), probe.s2c_units.begin(), probe.s2c_units.end());
    out.v["r.pgwire_ns"] = replay_pgwire(all);
    out.v["r.parse_ns"] = replay_parse(t.sql);
    out.v["r.execute_ns"] =
        replay_execute(t.sql, static_cast<int>(t.facts.at("accounts")),
                       static_cast<uint64_t>(t.facts.at("data_seed")),
                       t.facts.at("durable") > 0);
  } else {
    plugin = std::make_shared<rddr::core::HttpPlugin>();
    out.v["r.http_req_ns"] = replay_http(probe.c2s_units, true);
    out.v["r.http_resp_ns"] = replay_http(probe.s2c_units, false);
  }
  DiffCost diff = replay_diff(*plugin, probe.batches);
  out.v["r.diff_ns"] = diff.ns_per_compare;
  out.v["r.raw_equal_frac"] = diff.raw_equal_frac;
  out.v["r.bytes_per_compare"] = diff.bytes_per_compare;
  out.v["r.event_ns"] = replay_events();
  out.v["r.probe_ns"] = probe_overhead_ns();
  return out;
}

int run_traced(const Args& a) {
  RunConfig plain;
  plain.seed = a.seed;
  std::vector<Run> untraced, traced;
  std::vector<double> overhead;
  const double t0 = wall_s();
  while (traced.empty() || wall_s() - t0 < a.seconds * 0.6) {
    untraced.push_back(episode(a.workload, plain));
    log_run("untraced", untraced.back());
    traced.push_back(
        isolated([&] { return traced_episode(a.workload, plain); }));
    log_run("traced", traced.back());
    if (!same_virtual(untraced.back(), traced.back()))
      fail("the traced run's virtual outputs differ from the untraced run's");
    if (!same_virtual(untraced.front(), untraced.back()))
      fail("two same-seed episodes gave different virtual outputs");
    overhead.push_back(traced.back()["wall_s"] / untraced.back()["wall_s"] - 1);
  }
  const Run& t = traced.back();
  const Run& u = untraced.back();
  const bool islands = t.has("f.islands");
  Run seq;  // the islands(1) oracle of the sharded workload
  if (islands) {
    RunConfig one = plain;
    one.islands = 1;
    seq = episode(a.workload, one);
    log_run("islands=1", seq);
    std::fprintf(stderr, "island executor: %.0f islands on %.0f threads\n",
                 t["f.islands"], t["f.threads"]);
    if (!same_virtual(seq, u))
      fail("islands=1 and the configured island count disagree");
  }

  // Ledger over the traced episode's measured phase. Probe timestamps cost
  // r.probe_ns per probed call; that cost is taken out of the layers and
  // out of the CPU total it inflated.
  auto d = [&](const std::string& k) { return t["d." + k]; };
  const bool pg = t["f.pgwire"] > 0;
  const double R = t["measured"];
  const double N = t["f.versions"];
  const double ovh = t["r.probe_ns"];
  const double cpu_ns =
      t["cpu_s"] * 1e9 - (d("plugin_calls") + d("gen_calls")) * ovh;
  const double c2s = d("units_c2s"), s2c = d("units_s2c");
  const double plugin_ns = d("plugin_ns") - d("plugin_calls") * ovh;
  const double canon_ns = d("canon_ns") - d("canon_calls") * ovh;
  // Parses of a unit crossing the proxy: a request is framed at the proxy
  // and parsed by all N instances; each of the N responses is framed at
  // the proxy and the forwarded one is parsed by the client.
  const double req_parses = c2s * (1 + N), resp_parses = s2c * (1 + 1 / N);
  const double req_ns = pg ? t["r.pgwire_ns"] : t["r.http_req_ns"];
  const double resp_ns = pg ? t["r.pgwire_ns"] : t["r.http_resp_ns"];
  const double framer_proto_ns = c2s * req_ns + s2c * resp_ns;
  const double proto_ns = req_parses * req_ns + resp_parses * resp_ns;
  // Canonicalisation runs inside DiffEngine::compare: it is counted with
  // the diff replay, not with the plugin.
  const double plugin_self_ns =
      std::max(0.0, plugin_ns - canon_ns - framer_proto_ns);
  const double diff_ns = d("units_compared") * t["r.diff_ns"];
  const double stmts = d("queries") * t["f.stmts_per_query"];
  const double exec_per_stmt =
      std::max(0.0, t["r.execute_ns"] - t["r.parse_ns"]);
  const double parse_ns = stmts * t["r.parse_ns"];
  const double exec_ns = stmts * exec_per_stmt;
  const double gen_ns = d("gen_ns") - d("gen_calls") * ovh;
  const double loop_ns = d("events") * t["r.event_ns"];
  // CPU the island executor burns beyond the sequential oracle (barrier
  // spinning, merges), measured untraced, as a share of CPU.
  const double par_frac =
      islands && u["cpu_s"] > 0 ? std::max(0.0, 1 - seq["cpu_s"] / u["cpu_s"])
                                : 0;
  const double named_ns = plugin_self_ns + diff_ns + proto_ns + parse_ns +
                          exec_ns + gen_ns + par_frac * cpu_ns;
  auto frac = [&](double ns) { return cpu_ns > 0 ? ns / cpu_ns : 0; };
  const double events = d("events");
  const double windows = d("windows");
  const double admitted = d("admitted") + d("shed");
  const double pool = d("pool_hits") + d("pool_misses");

  Result r;
  for (const Run& e : untraced) r.add(e);
  for (const Run& e : traced) r.add(e);
  if (islands) r.add(seq);
  r.metrics = {
      metric("netsim.sim.events_per_req", events / R, "count/req"),
      metric("netsim.sim.ns_per_event",
             events > 0 ? (cpu_ns - named_ns) / events : 0, "ns"),
      metric("netsim.sim.host_frac", frac(loop_ns), "frac"),
      metric("netsim.host.virt_busy_frac",
             d("host_busy_core_s") / (t["f.host_cores"] * t["virt_s"]),
             "frac"),
      metric("netsim.parallel.windows_per_req", windows / R, "count/req"),
      metric("netsim.parallel.stall_frac",
             windows > 0 ? d("stalls") / (windows * t["f.islands"]) : 0,
             "frac"),
      metric("netsim.parallel.model_speedup",
             d("par_critical") > 0 ? d("par_events") / d("par_critical") : 0,
             "x"),
      metric("netsim.parallel.wall_speedup",
             islands ? seq["wall_s"] / u["wall_s"] : 0, "x"),
      metric("netsim.parallel.cpu_per_wall",
             islands ? u["cpu_s"] / u["wall_s"] : 0, "x"),
      metric("netsim.parallel.host_frac", par_frac, "frac"),
      metric("netsim.conn.rss_kb_per_1k_sessions", t["rss_slope_kb_per_1k"],
             "kB"),
      metric("proto.pgwire.ns_per_msg", pg ? req_ns : 0, "ns"),
      metric("proto.pgwire.msgs_per_req", pg ? (c2s + s2c) / R : 0,
             "count/req"),
      metric("proto.pgwire.host_frac", pg ? frac(proto_ns) : 0, "frac"),
      metric("proto.http.ns_per_msg",
             pg ? 0 : framer_proto_ns / std::max(1.0, c2s + s2c), "ns"),
      metric("proto.http.bytes_per_req",
             pg ? 0 : (d("bytes_c2s") + d("bytes_s2c")) / R, "B/req"),
      metric("proto.http.host_frac", pg ? 0 : frac(proto_ns), "frac"),
      metric("rddr.plugin.ns_per_req", plugin_ns / R, "ns/req"),
      metric("rddr.plugin.units_per_req", (c2s + s2c) / R, "count/req"),
      metric("rddr.plugin.host_frac", frac(plugin_self_ns), "frac"),
      metric("rddr.diff.ns_per_compare", t["r.diff_ns"], "ns"),
      metric("rddr.diff.compares_per_req", d("units_compared") / R,
             "count/req"),
      metric("rddr.diff.raw_equal_frac", t["r.raw_equal_frac"], "frac"),
      metric("rddr.diff.bytes_per_compare", t["r.bytes_per_compare"], "B"),
      metric("rddr.diff.host_frac", frac(diff_ns), "frac"),
      metric("rddr.proxy.divergences_per_req", d("divergences") / R,
             "count/req"),
      metric("rddr.proxy.interventions", d("interventions"), "count"),
      metric("rddr.frontier.shed_frac",
             admitted > 0 ? d("shed") / admitted : 0, "frac"),
      metric("rddr.frontier.virt_queued_ms_p99", t["f.queued_ms_p99"], "ms"),
      metric("sqldb.parse.ns_per_stmt", t["r.parse_ns"], "ns"),
      metric("sqldb.parse.host_frac", frac(parse_ns), "frac"),
      metric("sqldb.exec.ns_per_stmt", exec_per_stmt, "ns"),
      metric("sqldb.exec.stmts_per_req", stmts / R, "count/req"),
      metric("sqldb.exec.host_frac", frac(exec_ns), "frac"),
      metric("sqldb.storage.wal_bytes_per_req", d("wal_bytes") / R, "B/req"),
      metric("sqldb.storage.pool_hit_frac",
             pool > 0 ? d("pool_hits") / pool : 0, "frac"),
      metric("sqldb.storage.checkpoints", d("checkpoints"), "count"),
      metric("sqldb.storage.virt_io_ms_per_req", d("io_ns") / 1e6 / R,
             "ms/req"),
      metric("workloads.gen_ns_per_req",
             d("gen_calls") > 0 ? gen_ns / d("gen_calls") : 0, "ns"),
      metric("workloads.host_frac", frac(gen_ns), "frac"),
      metric("obs.trace_overhead_frac", median(overhead), "frac"),
      metric("unattributed_frac", 1 - frac(named_ns + loop_ns), "frac"),
  };
  r.print();
  return 0;
}

// ---- --selftest: the metrics see a known host cost --------------------------

int run_selftest(const Args& a) {
  RunConfig base;
  base.seed = a.seed;
  const Run b0 = episode(a.workload, base);
  log_run("base", b0);
  // The added cost: about one request's own host cost, so throughput
  // should roughly halve.
  const auto busy = static_cast<int64_t>(1e9 / b0.rate());
  RunConfig slowed = base;
  slowed.busy_ns_per_req = busy;
  std::vector<double> base_rate, slow_rate;
  std::vector<Run> runs;
  bool identical = true;
  for (int rep = 0; rep < 3; ++rep) {
    runs.push_back(episode(a.workload, base));
    log_run("base", runs.back());
    base_rate.push_back(runs.back().rate());
    identical = identical && same_virtual(b0, runs.back());
    runs.push_back(episode(a.workload, slowed));
    log_run("slowed", runs.back());
    slow_rate.push_back(runs.back().rate());
    identical = identical && same_virtual(b0, runs.back());
  }
  // One generator call per request: each request costs `busy` ns more.
  const double r0 = median(base_rate), r1 = median(slow_rate);
  const double predicted = 1 / (1 / r0 + static_cast<double>(busy) * 1e-9);
  const double err = r1 / predicted - 1;
  const bool rate_ok = std::fabs(err) <= 0.15;
  std::fprintf(stderr,
               "selftest %s: +%lld ns/req: %.0f -> %.0f req/s (predicted "
               "%.0f, error %+.1f%%); virtual outputs %s\n",
               a.workload.c_str(), static_cast<long long>(busy), r0, r1,
               predicted, 100 * err, identical ? "identical" : "DIFFER");
  Result r;
  r.add(b0);
  for (const Run& e : runs) r.add(e);
  r.correct = r.correct && identical && rate_ok;
  r.metrics = {metric("base_req_per_s", r0, "1/s"),
               metric("slowed_req_per_s", r1, "1/s"),
               metric("predicted_req_per_s", predicted, "1/s"),
               metric("prediction_error_frac", err, "frac"),
               metric("added_ns_per_req", static_cast<double>(busy), "ns")};
  r.print();
  return r.correct ? 0 : 5;
}

}  // namespace

int main(int argc, char** argv) {
  rddr::set_log_level(rddr::LogLevel::kError);
  Args a = parse_args(argc, argv);
  try {
    if (a.selftest) return run_selftest(a);
    return a.trace ? run_traced(a) : run_end_to_end(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 4;
  }
}
