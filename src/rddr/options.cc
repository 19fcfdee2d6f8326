#include "rddr/options.h"

namespace rddr::core {

void ProxyCounters::bind(obs::MetricsRegistry& reg,
                         const std::string& prefix) {
#define RDDR_BIND(name) name = reg.counter(prefix + "." #name);
  RDDR_PROXY_COUNTERS(RDDR_BIND)
#undef RDDR_BIND
  compare_ms = reg.histogram(prefix + ".compare_ms");
  queued_ms = reg.histogram(prefix + ".queued_ms");
}

ProxyStats ProxyCounters::snapshot() const {
  ProxyStats s;
  if (!sessions) return s;  // never bound (proxy not constructed)
#define RDDR_READ(name) s.name = name->value();
  RDDR_PROXY_COUNTERS(RDDR_READ)
#undef RDDR_READ
  return s;
}

}  // namespace rddr::core
