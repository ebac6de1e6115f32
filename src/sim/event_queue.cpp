#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace tdn::sim {

EventQueue::EventQueue()
    : wheel_(std::make_unique_for_overwrite<Bucket[]>(kWheelSlots)) {}

void EventQueue::grow_pool() {
  chunks_.push_back(std::make_unique<Event[]>(kChunk));
  Event* base = chunks_.back().get();
  // Reserve *full pool capacity* for both vectors: every live slot can be
  // in the overflow heap at once, and every slot can be on the free list at
  // once. This is what makes recycle() honestly noexcept (it runs in
  // destructors during exception unwind — an allocating push_back there
  // would std::terminate) and push_event() unable to fail after acquire.
  const std::size_t cap = chunks_.size() * kChunk;
  free_.reserve(cap);
  overflow_.reserve(cap);
  for (std::size_t i = 0; i < kChunk; ++i) free_.push_back(base + i);
}

void EventQueue::push_overflow(Event* ev) noexcept {
  overflow_.push_back(ev);  // cannot allocate: grow_pool reserved capacity
  std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

EventQueue::Event* EventQueue::front() const noexcept {
  // Every wheel event lies in [now_, now_ + kWheelSlots) and every overflow
  // event at or beyond now_ + kWheelSlots, so the first occupied bucket at
  // or after now_'s slot (circularly) holds the earliest event.
  if (wheel_count_ == 0) return overflow_.front();
  const std::size_t start = now_ & kWheelMask;
  std::size_t w = start / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  // kWords + 1 probes: the last one revisits the start word's low bits,
  // which are the horizon's far end.
  for (std::size_t n = 0; n <= kWords; ++n) {
    if (bits != 0) return wheel_[w * 64 + std::countr_zero(bits)].head;
    w = (w + 1) % kWords;
    bits = occupied_[w];
  }
  return nullptr;  // unreachable: wheel_count_ > 0
}

void EventQueue::pop_front(Event* ev) noexcept {
  if (wheel_count_ == 0) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    overflow_.pop_back();
    return;
  }
  const std::size_t slot = ev->when & kWheelMask;
  Bucket& b = wheel_[slot];
  b.head = ev->next;
  if (b.head == nullptr)
    occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  --wheel_count_;
}

void EventQueue::advance_to(Cycle when) noexcept {
  now_ = when;
  // The horizon now reaches now_ + kWheelSlots. The buckets of the newly
  // covered cycles belonged to already-drained cycles, so they are empty:
  // popping the overflow in (when, seq) order appends each cycle's
  // overflow events in seq order, ahead of anything scheduled from here on.
  while (!overflow_.empty() && overflow_.front()->when - now_ < kWheelSlots) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    Event* ev = overflow_.back();
    overflow_.pop_back();
    append(ev);
  }
}

Cycle EventQueue::run() { return run_until(kNeverCycle); }

Cycle EventQueue::run_until(Cycle limit) {
  while (!empty()) {
    // Peek before popping: if the next real event is over the limit the
    // deadlock guard must fire *without* consuming it, so a caught overrun
    // leaves the queue resumable and the counters truthful.
    Event* ev = front();
    if (!ev->observer) {
      TDN_REQUIRE(ev->when <= limit,
                  "simulation exceeded cycle limit (deadlock?)");
    }
    pop_front(ev);
    // Recycle the slot whether the action returns or throws: a throwing
    // event is consumed (it cannot be un-run), but its slot and captured
    // state must not linger until pool teardown.
    struct Recycler {
      EventQueue* q;
      Event* e;
      ~Recycler() { q->recycle(e); }
    } recycler{this, ev};
    if (ev->observer) {
      --observer_pending_;
      // Observers past the limit are dropped, not an error: a cycle-limited
      // run must not be failed by a pending sampler tick. The drop is
      // counted so the scheduler of a periodic observer can re-arm. The
      // clock stays put, so the horizon does too.
      if (ev->when > limit) {
        ++observer_dropped_;
        continue;
      }
      if (ev->when != now_) advance_to(ev->when);
      ev->fn();
      continue;
    }
    if (ev->when != now_) advance_to(ev->when);
    ev->fn();
    // Counted only after the action completes: an action that throws is not
    // a (successfully) executed event.
    ++executed_;
  }
  return now_;
}

}  // namespace tdn::sim
