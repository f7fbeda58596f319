// Discrete-event simulation kernel of the shared-fabric service
// (svc::FabricService). Single-threaded, deterministic. The engines do not
// use it: the optical ring walks its steps in a plain loop, and the
// packet-level electrical model merges per-link event streams (see
// electrical/packet_sim.cpp).
#pragma once

#include <cstdint>

#include "wrht/common/units.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/sim/event_queue.hpp"

namespace wrht::sim {

class Simulator {
 public:
  Simulator() = default;
  /// Starts the clock at `start` instead of zero — a job entering a
  /// long-lived fabric simulation mid-stream prices against absolute time.
  explicit Simulator(Seconds start) : now_(start) {}

  /// Current simulation time.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Drops every pending event and rewinds the clock to `start`. The
  /// lifetime events_fired() counter survives — it tracks the simulator,
  /// not one run. Makes an engine-owned simulator reusable across
  /// execute() calls without reconstructing captured state.
  void reset(Seconds start = Seconds(0.0));

  /// Schedules `fn` to fire `delay` after the current time.
  EventId schedule_in(Seconds delay, EventFn fn);

  /// Schedules `fn` at absolute time `when` (must be >= now).
  EventId schedule_at(Seconds when, EventFn fn);

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until no events remain. Returns the number of events fired.
  std::uint64_t run();

  /// Runs until the queue is empty or time would exceed `deadline`;
  /// events at exactly `deadline` still fire.
  std::uint64_t run_until(Seconds deadline);

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Attaches a counter registry: each run()/run_until() adds the events it
  /// fired to "sim.events_fired". Null (the default) costs nothing.
  void set_counters(obs::Counters* counters) { counters_ = counters; }

 private:
  EventQueue queue_;
  Seconds now_{0.0};
  std::uint64_t fired_ = 0;
  obs::Counters* counters_ = nullptr;
};

}  // namespace wrht::sim
