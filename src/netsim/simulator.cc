#include "netsim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/log.h"
#include "netsim/parallel.h"

namespace rddr::sim {

Simulator::Simulator() {
  islands_.push_back(std::make_unique<Island>());
  islands_[0]->id = 0;
  set_log_clock([this] { return cur().now; });
}

Simulator::~Simulator() = default;

uint32_t Simulator::alloc_slot(Island& isl) {
  if (isl.free_head != kNilSlot) {
    uint32_t slot = isl.free_head;
    isl.free_head = isl.slots[slot].next_free;
    return slot;
  }
  isl.slots.emplace_back();
  return static_cast<uint32_t>(isl.slots.size() - 1);
}

void Simulator::release_slot(Island& isl, uint32_t slot) {
  Slot& s = isl.slots[slot];
  s.fn = nullptr;
  s.armed = false;
  ++s.gen;  // invalidates every outstanding id / heap entry for this slot
  s.next_free = isl.free_head;
  isl.free_head = slot;
}

// 4-ary heap with hole percolation: half the depth of a binary heap (the
// sift path is what the event loop spends its time on) and one entry move
// per level instead of a three-move swap.

void Simulator::heap_push(Island& isl, const HeapEntry& e) {
  auto& heap = isl.heap;
  size_t i = heap.size();
  heap.push_back(e);
  while (i > 0) {
    size_t parent = (i - 1) / 4;
    if (!before(e, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = e;
}

Simulator::HeapEntry Simulator::heap_pop(Island& isl) {
  auto& heap = isl.heap;
  HeapEntry top = heap.front();
  HeapEntry last = heap.back();
  heap.pop_back();
  size_t n = heap.size();
  if (n == 0) return top;
  size_t i = 0;
  while (true) {
    size_t c = 4 * i + 1;
    if (c >= n) break;
    size_t best = c;
    size_t end = c + 4 < n ? c + 4 : n;
    for (size_t k = c + 1; k < end; ++k)
      if (before(heap[k], heap[best])) best = k;
    if (!before(heap[best], last)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = last;
  return top;
}

uint64_t Simulator::push_event(Island& isl, Time t, EventFn fn) {
  if (t < isl.now) t = isl.now;
  uint32_t slot = alloc_slot(isl);
  Slot& s = isl.slots[slot];
  s.fn = std::move(fn);
  s.armed = true;
  heap_push(isl, HeapEntry{t, isl.next_seq++, slot, s.gen});
  ++isl.live;
  // slot+1 keeps ids nonzero so callers can use 0 as "no event".
  return (static_cast<uint64_t>(isl.id) << (kIdGenBits + kIdSlotBits)) |
         (static_cast<uint64_t>(s.gen & kIdGenMask) << kIdSlotBits) |
         ((slot + 1ull) & kIdSlotMask);
}

uint64_t Simulator::schedule_at(Time t, EventFn fn) {
  return push_event(cur(), t, std::move(fn));
}

uint64_t Simulator::schedule(Time delay, EventFn fn) {
  assert(delay >= 0);
  Island& isl = cur();
  return push_event(isl, isl.now + delay, std::move(fn));
}

uint64_t Simulator::schedule_on(IslandId island, Time t, EventFn fn) {
  Island& src = cur();
  if (island >= islands_.size()) island = 0;
  Island& dst = *islands_[island];
  if (&dst == &src) return push_event(src, t, std::move(fn));
  if (in_parallel_phase_) {
    // Cross-island during a window: the destination heap belongs to another
    // worker right now. Buffer in our outbox; the barrier merges all
    // outboxes in (time, source island, source order) order.
    src.outbox.push_back(OutMsg{t, island, std::move(fn)});
    return 0;
  }
  // Sequential context (setup, barrier, global event): safe to push
  // directly. Clamp to the destination clock like any schedule_at.
  return push_event(dst, t, std::move(fn));
}

void Simulator::schedule_global_at(Time t, EventFn fn) {
  assert(!in_parallel_phase_ && "global events must not be scheduled from inside a parallel window");
  if (!exec_) {
    // No executor (one island): globals are ordinary island-0 events.
    IslandScope scope(0);
    schedule_at(t, std::move(fn));
    return;
  }
  if (t < islands_[0]->now) t = islands_[0]->now;
  global_.push_back(GlobalEvent{t, global_seq_++, std::move(fn)});
  std::push_heap(global_.begin(), global_.end(),
                 [](const GlobalEvent& a, const GlobalEvent& b) {
                   return a.time != b.time ? a.time > b.time : a.seq > b.seq;
                 });
}

void Simulator::cancel(uint64_t id) {
  if (id == 0) return;
  IslandId isl_id = static_cast<IslandId>(id >> (kIdGenBits + kIdSlotBits));
  if (isl_id >= islands_.size()) return;
  Island& isl = *islands_[isl_id];
  uint32_t slot = static_cast<uint32_t>(id & kIdSlotMask) - 1;
  uint32_t gen = static_cast<uint32_t>((id >> kIdSlotBits) & kIdGenMask);
  if (slot >= isl.slots.size()) return;
  Slot& s = isl.slots[slot];
  // Generations are compared modulo 2^28: ~268M reuses of one slot before
  // a stale id could alias, far beyond any run in this repo.
  if (!s.armed || (s.gen & kIdGenMask) != gen) return;
  release_slot(isl, slot);
  --isl.live;
  // The heap entry stays behind; step() skips it when the generation no
  // longer matches. Cancel itself is O(1) and retains nothing.
}

bool Simulator::step_island(Island& isl) {
  while (!isl.heap.empty()) {
    HeapEntry ev = heap_pop(isl);
    Slot& s = isl.slots[ev.slot];
    if (!s.armed || s.gen != ev.gen) continue;  // cancelled: skip stale entry
    EventFn fn = std::move(s.fn);
    release_slot(isl, ev.slot);
    --isl.live;
    assert(ev.time >= isl.now);
    isl.now = ev.time;
    ++isl.executed;
    ++isl.window_events;
    fn();
    return true;
  }
  return false;
}

Time Simulator::next_live_time(Island& isl) {
  while (!isl.heap.empty()) {
    const HeapEntry& ev = isl.heap.front();
    const Slot& s = isl.slots[ev.slot];
    if (!s.armed || s.gen != ev.gen) {
      heap_pop(isl);  // drop stale entry without executing
      continue;
    }
    return ev.time;
  }
  return kNoEvent;
}

size_t Simulator::drain_island(Island& isl, Time end, size_t max_events) {
  IslandScope scope(isl.id);
  size_t n = 0;
  while (n < max_events) {
    Time t = next_live_time(isl);
    if (t >= end) break;
    step_island(isl);
    ++n;
  }
  return n;
}

bool Simulator::step() {
  if (exec_) return exec_->run_window();
  return step_island(cur());
}

size_t Simulator::run_until_idle(size_t max_events) {
  if (exec_) return exec_->run_until_idle(max_events);
  Island& isl = cur();
  size_t n = 0;
  while (n < max_events && step_island(isl)) ++n;
  return n;
}

void Simulator::run_until(Time t) {
  if (exec_) {
    exec_->run_until(t);
    return;
  }
  Island& isl = cur();
  while (true) {
    Time next = next_live_time(isl);
    if (next > t) break;
    step_island(isl);
  }
  if (isl.now < t) isl.now = t;
}

uint64_t Simulator::events_executed() const {
  uint64_t n = 0;
  for (const auto& isl : islands_) n += isl->executed;
  return n;
}

size_t Simulator::pending_events() const {
  size_t n = global_.size();
  for (const auto& isl : islands_) n += isl->live;
  return n;
}

void Simulator::configure_islands(size_t count, const ParallelOptions& opts) {
  // Grow-only and idempotent: a scenario harness and a deployment builder
  // may both declare the island count; the first call that needs an
  // executor fixes its options.
  assert(count >= 1 && count <= kMaxIslands);
  if (count > kMaxIslands) count = kMaxIslands;
  if (count == 0) count = 1;
  Time start = islands_[0]->now;
  while (islands_.size() < count) {
    auto isl = std::make_unique<Island>();
    isl->id = static_cast<IslandId>(islands_.size());
    isl->now = start;
    islands_.push_back(std::move(isl));
  }
  if (islands_.size() >= 2 && !exec_)
    exec_ = std::make_unique<ParallelExecutor>(*this, opts);
}

void Simulator::configure_islands(size_t count) {
  configure_islands(count, ParallelOptions{});
}

}  // namespace rddr::sim
