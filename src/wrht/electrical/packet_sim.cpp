#include "wrht/electrical/packet_sim.hpp"

#include <algorithm>
#include <functional>
#include <string>

#include "wrht/common/error.hpp"
#include "wrht/net/backend.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/prof/prof.hpp"

namespace wrht::elec {

PacketLevelNetwork::PacketLevelNetwork(std::uint32_t num_hosts,
                                       ElectricalConfig config)
    : tree_(num_hosts, config.router_ports), config_(config) {
  require(config.packet_size.count() >= 1,
          "PacketLevelNetwork: packet size must be positive");
  require(config.lease.full() || config.lease_fabric_width > 0,
          "PacketLevelNetwork: a sliced lease needs lease_fabric_width");
  config.lease.validate(config.lease_fabric_width);
}

namespace {

struct Packet {
  std::uint32_t route_index = 0;  ///< into the per-transfer route table
  std::uint32_t hop = 0;          ///< next link to traverse
  double tx = 0.0;  ///< serialization time (the last packet may be short)
};

/// A scheduled arrival of `packet` at the input queue of its next link.
/// `seq` numbers arrivals in scheduling order and breaks time ties.
struct Arrival {
  double time;
  std::uint32_t seq;
  std::uint32_t packet;
};

/// A busy link's earliest pending arrival, keyed like the arrival itself.
struct Head {
  double time;
  std::uint32_t seq;
  std::uint32_t link;
  // Bitwise, not short-circuit: time ties are common (every host sends
  // in lockstep), so branching on them mispredicts.
  bool operator>(const Head& other) const {
    return (time > other.time) | ((time == other.time) & (seq > other.seq));
  }
};

/// Restores the min-heap order after `heap[0]` was replaced.
void sift_down(std::vector<Head>& heap) {
  const std::size_t n = heap.size();
  const Head moving = heap[0];
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n) child += heap[child] > heap[child + 1] ? 1 : 0;
    if (!(moving > heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = moving;
}

}  // namespace

double PacketLevelNetwork::simulate_step(const coll::Step& step,
                                         std::uint64_t& packets,
                                         std::uint64_t& events,
                                         const obs::Probe& probe,
                                         LinkResources& links,
                                         double step_start,
                                         std::uint32_t step_index,
                                         std::vector<double>* transfer_done)
    const {
  const std::size_t num_links = tree_.num_links();
  std::vector<double> next_free(num_links, 0.0);
  const double rate = config_.bytes_per_second();
  const double router_delay = config_.router_delay.count();
  const double packet_bytes =
      static_cast<double>(config_.packet_size.count());
  double makespan = 0.0;

  // Every packet fires one event per link of its route. Bounding that
  // count (over-estimated by at most one packet per transfer) by 2^32
  // keeps packet ids and arrival sequence numbers 32-bit.
  std::vector<std::vector<topo::LinkId>> routes;
  routes.reserve(step.transfers.size());
  std::size_t estimated = 0;
  std::uint64_t event_bound = 0;
  for (const auto& t : step.transfers) {
    routes.push_back(tree_.route(t.src, t.dst).links);
    const double bytes =
        static_cast<double>(t.count) * config_.bytes_per_element;
    if (bytes > 0.0) {
      const auto n = static_cast<std::size_t>(bytes / packet_bytes) + 1;
      estimated += n;
      event_bound += static_cast<std::uint64_t>(n) * routes.back().size();
    }
  }
  if (event_bound > UINT32_MAX) {
    throw InvalidArgument("PacketLevelNetwork: step " +
                          std::to_string(step_index) +
                          " has more packet events than a 32-bit index holds");
  }

  std::vector<Packet> pool;
  pool.reserve(estimated);
  // Arrivals each link's departures schedule, laid out link by link.
  std::vector<std::uint32_t> fifo_begin(num_links + 1, 0);
  for (std::size_t ti = 0; ti < step.transfers.size(); ++ti) {
    const std::size_t first = pool.size();
    double remaining = static_cast<double>(step.transfers[ti].count) *
                       config_.bytes_per_element;
    while (remaining > 0.0) {
      const double bytes = std::min(remaining, packet_bytes);
      Packet& packet = pool.emplace_back();
      packet.route_index = static_cast<std::uint32_t>(ti);
      packet.tx = bytes / rate;
      remaining -= bytes;
    }
    const auto sent = static_cast<std::uint32_t>(pool.size() - first);
    const std::vector<topo::LinkId>& route = routes[ti];
    for (std::size_t h = 0; h + 1 < route.size(); ++h) {
      fifo_begin[route[h] + 1] += sent;
    }
  }
  packets += pool.size();
  for (std::size_t l = 0; l < num_links; ++l) {
    fifo_begin[l + 1] += fifo_begin[l];
  }
  std::vector<Arrival> arrivals(fifo_begin[num_links]);
  std::vector<std::uint32_t> fifo_head(fifo_begin.begin(),
                                       fifo_begin.end() - 1);
  std::vector<std::uint32_t> fifo_tail = fifo_head;
  std::vector<Head> heap;
  std::uint32_t next_seq = 0;
  double now = 0.0;

  // Packet `pi` reaches the input queue of its next link at `now`.
  const auto arrive = [&](std::uint32_t pi) {
    Packet& packet = pool[pi];
    const std::vector<topo::LinkId>& route = routes[packet.route_index];
    const topo::LinkId link = route[packet.hop];
    const double tx_start = std::max(now, next_free[link]);
    const double depart = tx_start + packet.tx;
    if (probe.occupancy != nullptr) {
      // The sampler coalesces the back-to-back per-packet slices a busy
      // link produces.
      probe.occupancy->record(links[link], step_index,
                              Seconds(step_start + tx_start),
                              Seconds(depart - tx_start),
                              obs::OccCategory::kTransmission);
    }
    next_free[link] = depart;
    ++packet.hop;
    if (packet.hop < route.size()) {
      // Entering the next router: store-and-forward processing delay.
      const Arrival next{depart + router_delay, next_seq++, pi};
      if (fifo_head[link] == fifo_tail[link]) {
        heap.push_back(Head{next.time, next.seq, link});
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      }
      arrivals[fifo_tail[link]++] = next;
    } else {
      makespan = std::max(makespan, depart);
      if (transfer_done != nullptr) {
        (*transfer_done)[packet.route_index] =
            std::max((*transfer_done)[packet.route_index], depart);
      }
    }
  };
  if (transfer_done != nullptr) {
    transfer_done->assign(step.transfers.size(), 0.0);
  }

  {
    // Host-side phase accounting for the per-step packet DES drain.
    const prof::ScopedTimer timer("electrical.des.run");
    // Injection burst: every packet enters its first link at t = 0, in
    // packet-id order, before any arrival (those all come later).
    for (std::uint32_t pi = 0; pi < pool.size(); ++pi) arrive(pi);
    // A link departs in non-decreasing time and sequence numbers grow, so
    // each link's FIFO is sorted by (time, seq) and the least FIFO head is
    // the least pending arrival: events fire in global (time, seq) order.
    while (!heap.empty()) {
      const topo::LinkId link = heap.front().link;
      const Arrival event = arrivals[fifo_head[link]++];
      if (fifo_head[link] == fifo_tail[link]) {
        heap.front() = heap.back();
        heap.pop_back();
      } else {
        const Arrival& head = arrivals[fifo_head[link]];
        heap.front() = Head{head.time, head.seq, link};
      }
      if (!heap.empty()) sift_down(heap);
      require(event.time >= now,
              "PacketLevelNetwork: event fired before current time");
      now = event.time;
      arrive(event.packet);
    }
  }
  const std::uint64_t fired = pool.size() + next_seq;
  events += fired;
  if (probe.counters != nullptr) probe.counters->add("sim.events_fired", fired);
  // Links that went quiet before the step's last packet drained are in
  // straggler wait; untouched links remain unaccounted (idle).
  if (probe.occupancy != nullptr) {
    for (topo::LinkId l = 0; l < num_links; ++l) {
      if (next_free[l] <= 0.0) continue;
      probe.occupancy->record(links[l], step_index,
                              Seconds(step_start + next_free[l]),
                              Seconds(makespan - next_free[l]),
                              obs::OccCategory::kStragglerWait);
    }
  }
  return makespan;
}

PacketRunResult PacketLevelNetwork::execute(
    const coll::Schedule& schedule) const {
  return execute(schedule, obs::Probe{});
}

PacketRunResult PacketLevelNetwork::execute(const coll::Schedule& schedule,
                                            const obs::Probe& probe) const {
  require(schedule.num_nodes() <= tree_.num_hosts(),
          "PacketLevelNetwork: schedule spans more nodes than hosts");
  schedule.validate();

  PacketRunResult result;
  result.steps = schedule.num_steps();
  result.step_times.reserve(schedule.num_steps());
  const bool blame = probe.transfers != nullptr;
  open_fabric_log(probe, "electrical-packet", schedule);
  std::vector<double> transfer_done;
  LinkResources links(probe.occupancy, tree_.num_links());
  double total = 0.0;
  std::size_t step_index = 0;
  for (const auto& step : schedule.steps()) {
    probe.count("packet.steps");
    const std::uint64_t packets_before = result.total_packets;
    const double t =
        step.transfers.empty()
            ? 0.0
            : simulate_step(step, result.total_packets, result.events_fired,
                            probe, links, total,
                            static_cast<std::uint32_t>(step_index),
                            blame ? &transfer_done : nullptr);
    probe.count("packet.packets", result.total_packets - packets_before);
    // Blame timeline: the packet model has no processing split; the
    // whole step is transmission.
    if (blame && !step.transfers.empty()) {
      log_fabric_step(probe, static_cast<std::uint32_t>(step_index), step,
                      total, t, 0.0, transfer_done);
    }
    if (probe.trace != nullptr && !step.transfers.empty()) {
      obs::TraceSpan span;
      span.name = step.label.empty() ? "step " + std::to_string(step_index)
                                     : step.label;
      span.category = "packet-step";
      span.start = Seconds(total);
      span.duration = Seconds(t);
      span.args = {
          {"transfers", std::to_string(step.transfers.size())},
          {"packets", std::to_string(result.total_packets - packets_before)}};
      probe.span(span);
      probe.counter_sample(
          "packets per step", Seconds(total),
          static_cast<double>(result.total_packets - packets_before));
    }
    result.step_times.emplace_back(t);
    total += t;
    ++step_index;
  }
  result.total_time = Seconds(total);
  if (probe.trace != nullptr && result.total_packets > 0) {
    probe.counter_sample("packets per step", result.total_time, 0.0);
  }
  return result;
}

RunReport PacketRunResult::to_report() const {
  RunReport report;
  report.backend = "electrical-packet";
  report.total_time = total_time;
  report.steps = steps;
  report.rounds = step_times.size();
  report.events_fired = events_fired;
  report.step_reports = net::uniform_step_reports(step_times);
  return report;
}

}  // namespace wrht::elec
