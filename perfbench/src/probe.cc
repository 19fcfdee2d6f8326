#include "probe.h"

#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <map>

namespace perfbench {

using rddr::ByteView;
using rddr::Bytes;
using rddr::core::CanonicalUnit;
using rddr::core::CompareContext;
using rddr::core::Direction;
using rddr::core::StreamFramer;
using rddr::core::Unit;

void busy_wait_ns(int64_t ns) {
  if (ns <= 0) return;
  const uint64_t end = now_ns() + static_cast<uint64_t>(ns);
  while (now_ns() < end) {
  }
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double rss_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  long size = 0, resident = 0;
  int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double probe_overhead_ns() {
  Clock c;
  constexpr int kCalls = 200000;
  const uint64_t t0 = now_ns();
  for (int i = 0; i < kCalls; ++i) {
    uint64_t a = now_ns();
    c.add(now_ns() - a);
  }
  return static_cast<double>(now_ns() - t0) / kCalls;
}

uint64_t Probe::plugin_ns() const {
  return framer_feed.ns + framer_take.ns + canonicalize.ns + rewrite.ns +
         other.ns;
}

uint64_t Probe::plugin_calls() const {
  return framer_feed.calls + framer_take.calls + canonicalize.calls +
         rewrite.calls + other.calls;
}

namespace {

/// The framers of one proxy session. IncomingProxy::on_accept makes the
/// client framer, then the N instance framers in instance order, all in
/// one call on one thread; a thread-local cursor recovers the grouping.
/// A session is served on a single island, so its group is only touched
/// from one thread.
struct SessionGroup {
  size_t instances = 0;
  /// Response ordinal -> the k-th unit of each instance (captured only).
  std::map<uint64_t, std::vector<Unit>> pending;
  std::map<uint64_t, size_t> filled;
};

thread_local std::shared_ptr<SessionGroup> t_group;

class TimedFramer : public StreamFramer {
 public:
  TimedFramer(std::unique_ptr<StreamFramer> inner, std::shared_ptr<Probe> probe,
              Direction dir, std::shared_ptr<SessionGroup> group,
              size_t instance)
      : inner_(std::move(inner)),
        probe_(std::move(probe)),
        dir_(dir),
        group_(std::move(group)),
        instance_(instance) {}

  void feed(ByteView data) override {
    uint64_t t0 = now_ns();
    inner_->feed(data);
    probe_->framer_feed.add(now_ns() - t0);
  }

  std::vector<Unit> take() override {
    uint64_t t0 = now_ns();
    std::vector<Unit> units = inner_->take();
    probe_->framer_take.add(now_ns() - t0);
    if (units.empty()) return units;
    uint64_t bytes = 0;
    for (const Unit& u : units) bytes += u.data.size();
    if (dir_ == Direction::kClientToServer) {
      probe_->units_c2s.fetch_add(units.size(), std::memory_order_relaxed);
      probe_->bytes_c2s.fetch_add(bytes, std::memory_order_relaxed);
    } else {
      probe_->units_s2c.fetch_add(units.size(), std::memory_order_relaxed);
      probe_->bytes_s2c.fetch_add(bytes, std::memory_order_relaxed);
    }
    for (const Unit& u : units) record(u);
    return units;
  }

  bool failed() const override { return inner_->failed(); }
  Bytes unconsumed() const override { return inner_->unconsumed(); }

 private:
  void record(const Unit& u) {
    const uint64_t ordinal = next_ordinal_++;
    if (!probe_->capture.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(probe_->mu);
    if (probe_->capture_bytes >= Probe::kMaxCaptureBytes) return;
    if (dir_ == Direction::kClientToServer) {
      if (probe_->c2s_units.size() < Probe::kMaxUnits) {
        probe_->c2s_units.push_back(u);
        probe_->capture_bytes += u.data.size();
      }
      return;
    }
    if (instance_ == 0 && probe_->s2c_units.size() < Probe::kMaxUnits) {
      probe_->s2c_units.push_back(u);
      probe_->capture_bytes += u.data.size();
    }
    if (!group_ || group_->instances < 2) return;
    auto& slot = group_->pending[ordinal];
    if (slot.empty()) slot.resize(group_->instances);
    slot[instance_] = u;
    if (++group_->filled[ordinal] < group_->instances) return;
    if (probe_->batches.size() < Probe::kMaxBatches) {
      for (const Unit& m : slot) probe_->capture_bytes += m.data.size();
      probe_->batches.push_back(std::move(slot));
    }
    group_->pending.erase(ordinal);
    group_->filled.erase(ordinal);
  }

  std::unique_ptr<StreamFramer> inner_;
  std::shared_ptr<Probe> probe_;
  Direction dir_;
  std::shared_ptr<SessionGroup> group_;
  size_t instance_;
  uint64_t next_ordinal_ = 0;
};

/// Times one decorated call into `clock`.
template <typename F>
auto timed(Clock& clock, F&& f) {
  struct Scope {
    Clock& c;
    uint64_t t0 = now_ns();
    ~Scope() { c.add(now_ns() - t0); }
  } scope{clock};
  return f();
}

}  // namespace

TimedPlugin::TimedPlugin(std::shared_ptr<rddr::core::ProtocolPlugin> inner,
                         std::shared_ptr<Probe> probe)
    : inner_(std::move(inner)), probe_(std::move(probe)) {}

std::string TimedPlugin::name() const {
  return timed(probe_->other, [&] { return inner_->name(); });
}

std::unique_ptr<StreamFramer> TimedPlugin::make_framer(Direction dir) const {
  auto framer = timed(probe_->other, [&] { return inner_->make_framer(dir); });
  size_t instance = 0;
  if (dir == Direction::kClientToServer) {
    t_group = std::make_shared<SessionGroup>();
  } else if (t_group) {
    instance = t_group->instances++;
  }
  return std::make_unique<TimedFramer>(std::move(framer), probe_, dir,
                                       dir == Direction::kServerToClient
                                           ? t_group
                                           : nullptr,
                                       instance);
}

rddr::core::DiffOutcome TimedPlugin::compare(const std::vector<Unit>& units,
                                             const CompareContext& ctx) const {
  return timed(probe_->other, [&] { return inner_->compare(units, ctx); });
}

void TimedPlugin::canonicalize(const Unit& unit, const CompareContext& ctx,
                               rddr::core::Arena& arena,
                               CanonicalUnit& out) const {
  timed(probe_->canonicalize,
        [&] { inner_->canonicalize(unit, ctx, arena, out); });
}

std::string TimedPlugin::class_mismatch_reason(const std::vector<Unit>& units,
                                               size_t i) const {
  return timed(probe_->other,
               [&] { return inner_->class_mismatch_reason(units, i); });
}

bool TimedPlugin::harvest_tokens() const {
  return timed(probe_->other, [&] { return inner_->harvest_tokens(); });
}

Bytes TimedPlugin::on_forward_downstream(const std::vector<Unit>& units,
                                         const CompareContext& ctx) const {
  return timed(probe_->other,
               [&] { return inner_->on_forward_downstream(units, ctx); });
}

Bytes TimedPlugin::rewrite_for_instance(const Unit& unit, size_t instance,
                                        const CompareContext& ctx) const {
  return timed(probe_->rewrite, [&] {
    return inner_->rewrite_for_instance(unit, instance, ctx);
  });
}

bool TimedPlugin::rewrites_identity() const {
  return timed(probe_->other, [&] { return inner_->rewrites_identity(); });
}

bool TimedPlugin::replayable(const Unit& unit) const {
  return timed(probe_->other, [&] { return inner_->replayable(unit); });
}

Bytes TimedPlugin::intervention_response() const {
  return timed(probe_->other, [&] { return inner_->intervention_response(); });
}

Bytes TimedPlugin::overload_response() const {
  return timed(probe_->other, [&] { return inner_->overload_response(); });
}

Bytes TimedPlugin::resync_preamble() const {
  return timed(probe_->other, [&] { return inner_->resync_preamble(); });
}

}  // namespace perfbench
