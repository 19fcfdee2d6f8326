#include "services/reverse_proxy.h"

#include "common/log.h"
#include "proto/http/message.h"

namespace rddr::services {

struct ReverseProxy::Session {
  sim::ConnPtr client;
  sim::ConnPtr backend;
  http::RequestParser parser;
  bool refused = false;

  explicit Session(http::ParserOptions opts) : parser(opts) {}
};

ReverseProxy::ReverseProxy(sim::Network& net, sim::Host& host, Options opts)
    : net_(net), host_(host), opts_(std::move(opts)) {
  if (opts_.flavor == Flavor::kHap153) {
    // HAProxy 1.5.3: RFC-strict whitespace (ironically the vulnerable
    // choice here) and no TE+CL cross-check.
    parser_opts_.te_whitespace = http::TeWhitespace::kStrictHttp;
    parser_opts_.reject_te_and_cl = false;
  } else {
    // nginx: trims lazily but refuses TE+CL combinations.
    parser_opts_.te_whitespace = http::TeWhitespace::kAnyWhitespace;
    parser_opts_.reject_te_and_cl = true;
  }
  net_.listen(opts_.address, [this](sim::ConnPtr c) { on_accept(std::move(c)); });
}

ReverseProxy::~ReverseProxy() { net_.unlisten(opts_.address); }

void ReverseProxy::on_accept(sim::ConnPtr conn) {
  auto s = std::make_shared<Session>(parser_opts_);
  s->client = std::move(conn);
  s->client->set_on_data([this, s](ByteView data) {
    if (s->refused) return;
    s->parser.feed(data);
    if (s->parser.failed()) {
      s->refused = true;
      auto resp = http::make_response(400, "<h1>400 Bad Request</h1>");
      resp.headers.set("Connection", "close");
      s->client->send(resp.to_bytes());
      s->client->close();
      if (s->backend) s->backend->close();
      return;
    }
    handle_parsed(s);
  });
  s->client->set_on_close([s] {
    if (s->backend) s->backend->close();
  });
}

void ReverseProxy::handle_parsed(const std::shared_ptr<Session>& s) {
  for (auto& req : s->parser.take()) {
    if (opts_.blocked_paths.count(req.target) > 0) {
      auto resp = http::make_response(403, "<h1>403 Forbidden</h1>");
      s->client->send(resp.to_bytes());
      continue;
    }
    host_.run_task(opts_.cpu_per_request, [this, s, raw = req.raw] {
      if (s->refused || !s->client->is_open()) return;
      // Deferred host task: re-install the inbound flow scope so the
      // backend dial derives its execution index from the client flow.
      sim::FlowScope flow_scope(s->client.get());
      if (!s->backend) {
        s->backend = net_.connect(
            opts_.backend_address,
            {.source = opts_.instance_name,
             .flow = {.label = "revproxy", .index = {}}});
        if (!s->backend) {
          s->client->send(
              http::make_response(502, "<h1>502 Bad Gateway</h1>").to_bytes());
          return;
        }
        // Tunnel mode: backend bytes stream straight back to the client.
        s->backend->set_on_data(
            [s](ByteView d) { s->client->send(d); });
        s->backend->set_on_close([s] { s->client->close(); });
      }
      // Forward the ORIGINAL bytes — the proxy's framing only decided
      // where the message ends, and that decision is the vulnerability.
      s->backend->send(raw);
    });
  }
}

}  // namespace rddr::services
