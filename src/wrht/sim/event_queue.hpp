// Priority event queue for the discrete-event kernel.
//
// Events are (time, sequence, callback); the sequence number breaks ties so
// same-time events fire in insertion order, which keeps runs deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "wrht/common/units.hpp"

namespace wrht::sim {

using EventId = std::uint64_t;
using EventFn = std::function<void()>;

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `when`; returns a cancellable id.
  EventId schedule(Seconds when, EventFn fn);

  /// Marks the event cancelled; it is skipped when popped. O(1).
  /// Cancelling an id that already fired (or was already cancelled) is a
  /// no-op — long-lived service loops cancel completion events without
  /// tracking whether they raced the firing.
  void cancel(EventId id);

  /// Drops every event (fired, live and cancelled) and releases their
  /// storage; ids from before the clear are no longer valid.
  void clear();

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest live event. Requires !empty().
  [[nodiscard]] Seconds next_time() const;

  /// Pops and returns the earliest live event. Requires !empty().
  /// The popped callback's slot is released, so captured state does not
  /// accumulate for the lifetime of the queue.
  struct Fired {
    Seconds time;
    EventFn fn;
  };
  Fired pop();

 private:
  struct Entry {
    double time;
    EventId id;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  void drop_cancelled() const;

  // Min-heap maintained with std::push_heap/pop_heap over a plain vector.
  mutable std::vector<Entry> heap_;
  std::vector<EventFn> callbacks_;   // indexed by EventId
  std::vector<bool> cancelled_;      // indexed by EventId
  std::size_t live_count_ = 0;
};

}  // namespace wrht::sim
