#include "replay.h"

#include <memory>

#include "netsim/block_device.h"
#include "netsim/simulator.h"
#include "probe.h"
#include "proto/http/parser.h"
#include "proto/pgwire/pgwire.h"
#include "rddr/diff_engine.h"
#include "sqldb/engine.h"
#include "sqldb/parser.h"
#include "sqldb/storage/storage_engine.h"
#include "workloads/pgbench.h"

namespace perfbench {

using rddr::core::Unit;

namespace {

/// Repeats `pass` (which returns the calls it made) until `min_ns` of host
/// time has gone by, at least twice; returns the mean ns per call.
template <typename F>
double repeat(F&& pass, uint64_t min_ns = 100'000'000) {
  uint64_t calls = 0, passes = 0;
  const uint64_t t0 = now_ns();
  uint64_t dt = 0;
  do {
    calls += pass();
    ++passes;
    dt = now_ns() - t0;
  } while ((dt < min_ns || passes < 2) && calls > 0);
  return calls ? static_cast<double>(dt) / static_cast<double>(calls) : 0;
}

}  // namespace

double replay_pgwire(const std::vector<Unit>& units) {
  return repeat([&] {
    uint64_t msgs = 0;
    rddr::pg::MessageReader reader(/*expect_startup=*/false);
    for (const Unit& u : units) {
      if (u.kind == "pg:startup") continue;
      reader.feed(u.data);
      msgs += reader.take().size();
    }
    return msgs;
  });
}

double replay_http(const std::vector<Unit>& units, bool requests) {
  return repeat([&] {
    uint64_t msgs = 0;
    rddr::http::RequestParser req;
    rddr::http::ResponseParser resp;
    for (const Unit& u : units) {
      if (requests) {
        req.feed(u.data);
        msgs += req.take().size();
      } else {
        resp.feed(u.data);
        msgs += resp.take().size();
      }
    }
    return msgs;
  });
}

double replay_parse(const std::vector<std::string>& scripts) {
  return repeat([&] {
    uint64_t stmts = 0;
    for (const std::string& s : scripts) {
      auto parsed = rddr::sqldb::parse_sql(s);
      if (parsed.ok()) stmts += parsed.value().size();
    }
    return stmts;
  });
}

double replay_execute(const std::vector<std::string>& scripts, int accounts,
                      uint64_t data_seed, bool durable) {
  namespace sqldb = rddr::sqldb;
  rddr::sim::Simulator sim;
  sqldb::Database db(sqldb::minipg_info("13.0"));
  rddr::workloads::load_pgbench(db, accounts, data_seed);
  std::unique_ptr<sqldb::storage::StorageEngine> engine;
  if (durable) {
    rddr::sim::BlockDevice::Options dev;
    auto data = std::make_shared<rddr::sim::BlockDevice>(dev);
    auto wal = std::make_shared<rddr::sim::BlockDevice>(dev);
    sqldb::storage::StorageOptions sto;
    sto.frame_budget = 16;
    sto.checkpoint_every_records = 256;
    engine = std::make_unique<sqldb::storage::StorageEngine>(sim, data, wal,
                                                             sto);
    engine->bootstrap(db, data_seed);
    sim.run_until_idle();
  }
  sqldb::Session session(db, "postgres");
  return repeat([&] {
    uint64_t stmts = 0;
    for (const std::string& s : scripts) {
      if (engine) engine->begin_statement();
      stmts += session.execute(s).statements.size();
      if (engine) {
        engine->end_statement("postgres", s);
        sim.run_until_idle();  // checkpoint steps the run would also pay
      }
    }
    return stmts;
  });
}

DiffCost replay_diff(const rddr::core::ProtocolPlugin& plugin,
                     const std::vector<std::vector<Unit>>& batches) {
  DiffCost out;
  rddr::core::DiffEngine engine;
  rddr::core::KnownVariance variance;
  rddr::core::SessionState session;
  uint64_t bytes = 0;
  for (const auto& b : batches)
    for (const Unit& u : b) bytes += u.data.size();
  out.ns_per_compare = repeat([&] {
    session.tokens.clear();
    for (const auto& b : batches) {
      session.n_instances = b.size();
      rddr::core::CompareContext ctx;
      ctx.filter_pair = b.size() >= 2;
      ctx.variance = &variance;
      ctx.session = &session;
      auto verdict =
          engine.compare(plugin, b, ctx, rddr::core::VoteMode::kStrict);
      if (verdict.agreed) engine.forward_downstream(plugin, b, ctx);
    }
    return static_cast<uint64_t>(batches.size());
  });
  const auto& st = engine.stats();
  out.raw_equal_frac =
      st.batches ? static_cast<double>(st.raw_equal) /
                       static_cast<double>(st.batches)
                 : 0;
  out.bytes_per_compare =
      batches.empty() ? 0
                      : static_cast<double>(bytes) /
                            static_cast<double>(batches.size());
  return out;
}

double replay_events() {
  rddr::sim::Simulator sim;
  constexpr uint64_t kEvents = 1'000'000;
  constexpr int kChains = 64;  // a heap of realistic depth
  return repeat([&] {
    uint64_t left = kEvents;
    struct Tick {
      rddr::sim::Simulator* sim;
      uint64_t* left;
      void operator()() const {
        if (*left == 0) return;
        --*left;
        sim->schedule(1 + static_cast<rddr::sim::Time>(*left % 97),
                      Tick{sim, left});
      }
    };
    for (int i = 0; i < kChains; ++i) sim.schedule(1, Tick{&sim, &left});
    return static_cast<uint64_t>(sim.run_until_idle());
  });
}

}  // namespace perfbench
