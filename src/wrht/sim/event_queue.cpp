#include "wrht/sim/event_queue.hpp"

#include <algorithm>
#include <functional>

#include "wrht/common/error.hpp"

namespace wrht::sim {

EventId EventQueue::schedule(Seconds when, EventFn fn) {
  require(static_cast<bool>(fn), "EventQueue: null callback");
  const EventId id = callbacks_.size();
  callbacks_.push_back(std::move(fn));
  cancelled_.push_back(false);
  heap_.push_back(Entry{when.count(), id});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  ++live_count_;
  return id;
}

void EventQueue::cancel(EventId id) {
  require(id < cancelled_.size(), "EventQueue: unknown event id");
  // cancelled_ doubles as a fired marker (pop() sets it), so cancelling an
  // already-fired id neither double-decrements live_count_ nor resurrects
  // the slot.
  if (!cancelled_[id]) {
    cancelled_[id] = true;
    --live_count_;
  }
}

void EventQueue::clear() {
  heap_.clear();
  callbacks_.clear();
  cancelled_.clear();
  live_count_ = 0;
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() && cancelled_[heap_.front().id]) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    heap_.pop_back();
  }
}

bool EventQueue::empty() const {
  drop_cancelled();
  return heap_.empty();
}

Seconds EventQueue::next_time() const {
  drop_cancelled();
  require(!heap_.empty(), "EventQueue: next_time on empty queue");
  return Seconds(heap_.front().time);
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled();
  require(!heap_.empty(), "EventQueue: pop on empty queue");
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  heap_.pop_back();
  --live_count_;
  EventFn fn = std::move(callbacks_[top.id]);
  callbacks_[top.id] = nullptr;   // release captured state eagerly
  cancelled_[top.id] = true;      // a late cancel() of this id is a no-op
  return Fired{Seconds(top.time), std::move(fn)};
}

}  // namespace wrht::sim
