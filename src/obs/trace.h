// Deterministic tracing on the virtual clock.
//
// Distributed-tracing analogue for the simulator: every inbound request
// gets a trace ID derived from a seeded Rng stream, and the stations it
// passes through (incoming proxy -> N instances -> outgoing proxy ->
// sqldb) record spans with parent/child links and per-instance tags.
// Because both the IDs and the clock are deterministic, the same seed
// yields a byte-identical trace export — a property no real tracing stack
// offers, and the foundation for localizing which instance diverged and
// when (cf. Distributed Execution Indexing).
//
// Trace context crosses simulated connections as two plain integers on
// `sim::ConnectMeta` (trace_id, parent_span); this layer itself knows
// nothing about netsim — it reads time through a clock callback.
//
// Parallel simulation: spans are recorded into per-island lanes (the
// recording island is read from the thread-local execution context), so
// concurrent islands never touch each other's storage. Two things keep
// exports island-count-invariant:
//   * Trace ids for components that may live off island 0 come from
//     per-owner IdStreams (`id_stream("front-s3")`), whose draw order
//     depends only on that component's own event order — never on how
//     components interleave globally.
//   * export_chrome() canonicalises: spans sort by (trace, start, lane,
//     lane order) and are densely renumbered, so the bytes do not depend
//     on which lane a span was recorded in. (The only escape is two
//     spans of one trace at the same nanosecond in different lanes —
//     causally impossible for a request that hops islands through
//     nonzero-latency links.)
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/rng.h"

namespace rddr::obs {

/// Virtual nanoseconds (mirrors sim::Time without the dependency).
using TimeNs = int64_t;

using TraceId = uint64_t;  // 0 = no trace
using SpanId = uint64_t;   // 0 = no span / root

struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = trace root
  TraceId trace = 0;
  std::string name;      // taxonomy: session, flow, replicate, upstream,
                         // denoise, diff, verdict, db.query, client, ...
  std::string category;  // emitting component ("rddr-in", "pg-0:5432", ...)
  TimeNs start = 0;
  TimeNs end = -1;  // -1 while open
  IslandId island = 0;  // lane the span was recorded on
  std::vector<std::pair<std::string, std::string>> tags;

  bool open() const { return end < 0; }
};

/// Records spans for any number of traces. Span ids encode (lane, dense
/// index), so lookup is O(1); trace ids come from Rng streams forked off
/// `seed`, so they look like the random request ids of a real system yet
/// replay exactly.
class Tracer {
 public:
  /// `clock` supplies the current virtual time (e.g. a lambda over
  /// Simulator::now()).
  Tracer(std::function<TimeNs()> clock, uint64_t seed);

  /// Allocates a fresh trace ID (never 0) from the tracer-global stream.
  /// Island-0 contexts only (the workload driver, tests); components
  /// that can be pinned elsewhere must use their own id_stream() so the
  /// draw order cannot depend on the island layout.
  TraceId new_trace();

  /// Independent deterministic trace-id stream scoped to one owning
  /// component. The handle is stable for the tracer's lifetime; each
  /// stream must only be used from its owner's (single) island.
  class IdStream {
   public:
    TraceId next_trace() {
      uint64_t id = rng_.next();
      while (id == 0) id = rng_.next();
      return id;
    }

   private:
    friend class Tracer;
    explicit IdStream(Rng rng) : rng_(rng) {}
    Rng rng_;
  };
  IdStream* id_stream(const std::string& owner);

  /// Opens a span; `parent` 0 makes it the trace root. Records on the
  /// calling context's island lane.
  SpanId begin(TraceId trace, SpanId parent, std::string name,
               std::string category);

  /// Attaches a key/value tag to an open or closed span.
  void tag(SpanId span, std::string key, std::string value);

  /// Closes a span at the current clock. Idempotent.
  void end(SpanId span);

  /// Convenience: zero-duration marker span (begin+end at now).
  SpanId event(TraceId trace, SpanId parent, std::string name,
               std::string category);

  /// Island-0 lane in recording order — the complete span list for
  /// simulations that never leave island 0 (every pre-island test and
  /// tool). Multi-island consumers should use all_spans().
  const std::vector<Span>& spans() const { return lanes_[0].spans; }

  /// Every recorded span, lane by lane (lane-local recording order).
  std::vector<Span> all_spans() const;

  const Span* find(SpanId span) const;
  size_t open_spans() const;
  size_t span_count() const;

  /// Chrome trace_event JSON ("X" complete events, ts/dur in
  /// microseconds); load via chrome://tracing or https://ui.perfetto.dev.
  /// Open spans are exported as zero-length with an "unclosed" tag so
  /// they stay visible. Output is byte-identical for identical runs and
  /// across island counts (canonical ordering + dense renumbering, see
  /// file comment).
  std::string export_chrome() const;

  /// Diagnostic export with one Chrome row per island (tid = island id),
  /// raw span ids, lane order. Shows the actual parallel layout — and is
  /// therefore deliberately NOT island-count-invariant.
  std::string export_chrome_by_island() const;

  void clear();

 private:
  struct Lane {
    std::vector<Span> spans;
    size_t open = 0;
  };

  // Span-id layout: [63:58] lane, [57:0] index+1.
  static constexpr int kIdIndexBits = 58;
  static constexpr uint64_t kIdIndexMask = (1ull << kIdIndexBits) - 1;

  Span* find_mutable(SpanId span);
  std::string export_events(const std::vector<const Span*>& order,
                            const std::map<SpanId, SpanId>* renumber,
                            bool tid_by_island) const;

  std::function<TimeNs()> clock_;
  uint64_t seed_;
  Rng rng_;
  std::array<Lane, kMaxIslands> lanes_;
  std::mutex stream_mu_;  // guards id_streams_ creation only
  std::map<std::string, IdStream> id_streams_;
};

}  // namespace rddr::obs
