// Tests of the paper's §IV-D limitations — reproduced deliberately — and
// of the mitigations the paper sketches as future work (implemented here):
// the divergence-signature blocker and the instance timeout.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/divergence.h"
#include "rddr/incoming_proxy.h"
#include "rddr/outgoing_proxy.h"
#include "rddr/plugins.h"
#include "services/http_service.h"

namespace rddr::core {
namespace {

using services::HttpClient;
using services::HttpServer;

class LimitsTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  sim::Network net{simulator, 10 * sim::kMicrosecond};
  sim::Host host{simulator, "node", 8, 8LL << 30};

  int get_status(const std::string& target) {
    int status = -2;
    HttpClient client(net, "client");
    client.get("svc:80", target,
               [&status](int s, const http::Response*) { status = s; });
    simulator.run_until_idle();
    return status;
  }
};

// ---------- Divergence-signature blocking (§IV-D mitigation) ----------

class SignatureTest : public LimitsTest {
 protected:
  void SetUp() override {
    // Two instances that diverge on /evil only.
    for (int i = 0; i < 2; ++i) {
      HttpServer::Options o;
      o.address = "svc-" + std::to_string(i) + ":80";
      auto s = std::make_unique<HttpServer>(net, host, o);
      int flavour = i;
      s->set_handler([flavour](const http::Request& req,
                               services::Responder r) {
        if (req.target == "/evil" && flavour == 1) {
          r(http::make_response(200, "LEAKED"));
          return;
        }
        r(http::make_response(200, "normal:" + req.target));
      });
      instances.push_back(std::move(s));
    }
  }

  std::unique_ptr<IncomingProxy> make_proxy(bool signatures) {
    IncomingProxy::Config cfg;
    cfg.listen_address = "svc:80";
    cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
    cfg.plugin = std::make_shared<HttpPlugin>();
    cfg.signature_blocking = signatures;
    return std::make_unique<IncomingProxy>(net, host, cfg);
  }

  std::vector<std::unique_ptr<HttpServer>> instances;
};

TEST_F(SignatureTest, RepeatedDivergentRequestRefusedAtProxy) {
  auto proxy = make_proxy(true);
  // First attempt: full replicate/diff cycle, divergence, signature saved.
  EXPECT_EQ(get_status("/evil"), 403);
  EXPECT_EQ(proxy->stats().divergences, 1u);
  uint64_t served_after_first =
      instances[0]->requests_served() + instances[1]->requests_served();

  // Repeats: refused at the proxy, instances never touched.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(get_status("/evil"), 403);
  EXPECT_EQ(proxy->stats().signature_blocks, 5u);
  EXPECT_EQ(proxy->stats().divergences, 1u);  // no new diff cycles
  EXPECT_EQ(instances[0]->requests_served() + instances[1]->requests_served(),
            served_after_first);
}

TEST_F(SignatureTest, BenignTrafficUnaffectedBySignatures) {
  auto proxy = make_proxy(true);
  EXPECT_EQ(get_status("/evil"), 403);
  EXPECT_EQ(get_status("/fine"), 200);
  EXPECT_EQ(get_status("/fine"), 200);
  EXPECT_EQ(proxy->stats().signature_blocks, 0u);
}

TEST_F(SignatureTest, WithoutSignaturesEveryRepeatCostsAFullCycle) {
  auto proxy = make_proxy(false);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(get_status("/evil"), 403);
  EXPECT_EQ(proxy->stats().divergences, 5u);
  EXPECT_EQ(proxy->stats().signature_blocks, 0u);
  // Instances paid for every attempt.
  EXPECT_EQ(instances[0]->requests_served(), 5u);
}

TEST_F(SignatureTest, ThresholdDelaysBlocking) {
  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.signature_blocking = true;
  cfg.signature_threshold = 3;
  IncomingProxy proxy(net, host, cfg);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(get_status("/evil"), 403);
  EXPECT_EQ(proxy.stats().divergences, 3u);
  EXPECT_EQ(get_status("/evil"), 403);
  EXPECT_EQ(proxy.stats().signature_blocks, 1u);
}

// ---------- Outgoing proxy unit timeout (§IV-D, backend-side) ----------

TEST_F(LimitsTest, OutgoingUnitTimeoutCatchesSilentInstance) {
  // Two "instances" dial the backend merge point; only one ever sends a
  // request. Without the unit timeout the group waits forever; with it,
  // divergence-by-silence is reported.
  net.listen("backend:1", [](sim::ConnPtr c) {
    c->set_on_data([c](ByteView d) { c->send(d); });
  });
  OutgoingProxy::Config cfg;
  cfg.listen_address = "merge:1";
  cfg.backend_address = "backend:1";
  cfg.group_size = 2;
  cfg.plugin = std::make_shared<TcpLinePlugin>();
  cfg.unit_timeout = sim::kSecond;
  DivergenceBus bus;
  OutgoingProxy proxy(net, host, cfg, &bus);

  auto talkative = net.connect("merge:1", {.source = "i0", .flow = {.label = "f"}});
  auto silent = net.connect("merge:1", {.source = "i1", .flow = {.label = "f"}});
  talkative->send("query please\n");
  simulator.run_until(10 * sim::kSecond);
  ASSERT_EQ(bus.count(), 1u);
  EXPECT_NE(bus.events()[0].reason.find("timeout"), std::string::npos);
  EXPECT_EQ(proxy.stats().timeouts, 1u);
  EXPECT_FALSE(talkative->is_open());
  EXPECT_FALSE(silent->is_open());
}

TEST_F(LimitsTest, OutgoingUnitTimeoutUnderQuorumDropsSilentMember) {
  // Under kQuorum the silent member is lost, not the flow: the other two
  // still agree, so their request is merged and forwarded.
  Bytes backend_rx;
  std::vector<sim::ConnPtr> backend_conns;
  net.listen("backend:1", [&](sim::ConnPtr c) {
    c->set_on_data([&backend_rx](ByteView d) { backend_rx.append(d); });
    backend_conns.push_back(std::move(c));
  });
  OutgoingProxy::Config cfg;
  cfg.listen_address = "merge:1";
  cfg.backend_address = "backend:1";
  cfg.group_size = 3;
  cfg.plugin = std::make_shared<TcpLinePlugin>();
  cfg.unit_timeout = sim::kSecond;
  cfg.degradation = DegradationPolicy::kQuorum;
  cfg.instance_sources = {"i0", "i1", "i2"};
  DivergenceBus bus;
  OutgoingProxy proxy(net, host, cfg, &bus);

  auto dial = [&](const std::string& source) {
    sim::ConnectMeta meta;
    meta.source = source;
    meta.flow.label = "f";
    return net.connect("merge:1", meta);
  };
  auto a = dial("i0");
  auto b = dial("i1");
  auto silent = dial("i2");
  a->send("query please\n");
  b->send("query please\n");
  simulator.run_until(10 * sim::kSecond);
  EXPECT_EQ(bus.count(), 0u);
  EXPECT_EQ(proxy.stats().timeouts, 1u);
  EXPECT_EQ(proxy.stats().instance_unreachable, 1u);
  EXPECT_EQ(proxy.stats().units_compared, 1u);
  EXPECT_EQ(proxy.health().state(2), HealthTracker::State::kQuarantined);
  EXPECT_EQ(backend_rx, "query please\n");
  EXPECT_TRUE(a->is_open());
  EXPECT_FALSE(silent->is_open());
}

TEST_F(LimitsTest, OutgoingUnitTimeoutOffHangsForever) {
  net.listen("backend:1", [](sim::ConnPtr c) {
    c->set_on_data([c](ByteView d) { c->send(d); });
  });
  OutgoingProxy::Config cfg;
  cfg.listen_address = "merge:1";
  cfg.backend_address = "backend:1";
  cfg.group_size = 2;
  cfg.plugin = std::make_shared<TcpLinePlugin>();
  cfg.unit_timeout = 0;  // the paper's default
  DivergenceBus bus;
  OutgoingProxy proxy(net, host, cfg, &bus);

  auto talkative = net.connect("merge:1", {.source = "i0", .flow = {.label = "f"}});
  auto silent = net.connect("merge:1", {.source = "i1", .flow = {.label = "f"}});
  talkative->send("query please\n");
  simulator.run_until(10 * sim::kSecond);
  EXPECT_EQ(bus.count(), 0u);
  EXPECT_TRUE(talkative->is_open());  // still waiting — the DoS limitation
}

// ---------- MFA-style instance-specific secrets (§IV-D limitation) ------

TEST_F(LimitsTest, InstanceSpecificSecretsAreIncompatible) {
  // "N-versioning is not applicable to services that generate
  // instance-specific secrets that expect a unique user response."
  // Each instance issues ITS OWN one-time code on GET and only accepts
  // that code on POST. The code is numeric-with-dashes, so the CSRF
  // heuristic (alnum >= 10) does NOT capture it — faithful to TOTP codes.
  struct Mfa {
    std::unique_ptr<HttpServer> server;
    std::shared_ptr<std::string> code;
  };
  std::vector<Mfa> mfas;
  for (int i = 0; i < 2; ++i) {
    Mfa m;
    HttpServer::Options o;
    o.address = "svc-" + std::to_string(i) + ":80";
    m.server = std::make_unique<HttpServer>(net, host, o);
    m.code = std::make_shared<std::string>(
        i == 0 ? "123-456" : "987-654");  // per-instance secret
    auto code = m.code;
    m.server->set_handler([code](const http::Request& req,
                                 services::Responder r) {
      if (req.method == "GET") {
        r(http::make_response(200, "enter code: " + *code));
        return;
      }
      r(http::make_response(req.body.find(*code) != Bytes::npos ? 200 : 401,
                            "auth"));
    });
    mfas.push_back(std::move(m));
  }
  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  DivergenceBus bus;
  IncomingProxy proxy(net, host, cfg, &bus);

  // The challenge itself already diverges (different codes, no filter
  // pair to absorb them): RDDR denies ALL traffic to this service.
  EXPECT_EQ(get_status("/"), 403);
  EXPECT_GE(bus.count(), 1u);
}

// ---------- Time-varying output (§IV-D) and the §IV-B4 fix --------------

TEST_F(LimitsTest, TimestampLinesFalsePositiveWithoutKnownVariance) {
  // A coarse timestamp can straddle a tick boundary between instances.
  // We emulate the worst case: instances disagree on the reported second.
  std::vector<std::unique_ptr<HttpServer>> servers;
  for (int i = 0; i < 2; ++i) {
    HttpServer::Options o;
    o.address = "svc-" + std::to_string(i) + ":80";
    auto s = std::make_unique<HttpServer>(net, host, o);
    int skew = i;  // instance 1 reads the clock one tick later
    s->set_handler([skew](const http::Request&, services::Responder r) {
      r(http::make_response(
          200, "uptime-seconds: " + std::to_string(100 + skew) + "\nbody"));
    });
    servers.push_back(std::move(s));
  }
  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  {
    IncomingProxy proxy(net, host, cfg);
    EXPECT_EQ(get_status("/"), 403);  // false positive
  }
  // §IV-B4: manual configuration of known variance fixes it.
  cfg.variance.http_ignore_line_prefixes = {"uptime-seconds:"};
  IncomingProxy proxy(net, host, cfg);
  EXPECT_EQ(get_status("/"), 200);
}

}  // namespace
}  // namespace rddr::core
