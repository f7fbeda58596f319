#include "wrht/electrical/packet_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "wrht/collectives/halving_doubling.hpp"
#include "wrht/collectives/recursive_doubling.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/sim/simulator.hpp"

namespace wrht::elec {
namespace {

using coll::Schedule;
using coll::Transfer;
using coll::TransferKind;

ElectricalConfig cfg() {
  ElectricalConfig c;
  c.link_rate = BitsPerSecond(40e9);
  c.router_delay = Seconds(25e-6);
  c.packet_size = Bytes(72);
  return c;
}

Schedule one_transfer(std::uint32_t n, topo::NodeId src, topo::NodeId dst,
                      std::size_t elements) {
  Schedule s("manual", n, elements);
  s.add_step().transfers.push_back(
      Transfer{src, dst, 0, elements, TransferKind::kReduce, {}});
  return s;
}

TEST(PacketSim, SinglePacketIntraRack) {
  const PacketLevelNetwork net(64, cfg());
  // 18 elements * 4 B = 72 B = exactly one packet; two links + one router.
  const auto res = net.execute(one_transfer(64, 0, 1, 18));
  EXPECT_EQ(res.total_packets, 1u);
  const double tx = 72.0 / 40e9;
  EXPECT_NEAR(res.total_time.count(), 2 * tx + 25e-6, 1e-12);
}

TEST(PacketSim, PacketCountCeils) {
  const PacketLevelNetwork net(64, cfg());
  // 100 elements * 4 = 400 B -> 6 packets (5 full + 40 B tail).
  const auto res = net.execute(one_transfer(64, 0, 1, 100));
  EXPECT_EQ(res.total_packets, 6u);
}

TEST(PacketSim, PipeliningApproachesFlowModel) {
  // For a long transfer the store-and-forward pipeline time converges to
  // serialization + per-hop latency: the flow model's estimate.
  const ElectricalConfig c = cfg();
  const PacketLevelNetwork packet(64, c);
  const FatTreeNetwork flow(64, c);
  const auto sched = one_transfer(64, 0, 40, 250'000);  // 1 MB, inter-rack
  const double tp = packet.execute(sched).total_time.count();
  const double tf = flow.execute(sched).total_time.count();
  EXPECT_NEAR(tp / tf, 1.0, 0.05);
  EXPECT_GT(tp, tf);  // store-and-forward pipeline fill is strictly extra
}

TEST(PacketSim, ContentionMatchesFlowModelForEqualFlows) {
  // 4 hosts of rack 0 send to the same destination: the shared edge->host
  // link quarters the throughput in both models.
  const ElectricalConfig c = cfg();
  const PacketLevelNetwork packet(64, c);
  const FatTreeNetwork flow(64, c);
  Schedule s("fan-in", 64, 50'000);
  coll::Step& step = s.add_step();
  for (topo::NodeId src = 1; src <= 4; ++src) {
    step.transfers.push_back(
        Transfer{src, 9, 0, 50'000, TransferKind::kReduce, {}});
  }
  const double tp = packet.execute(s).total_time.count();
  const double tf = flow.execute(s).total_time.count();
  EXPECT_NEAR(tp / tf, 1.0, 0.10);
}

TEST(PacketSim, FifoInterleavingIsFair) {
  // Two equal flows through one bottleneck finish (nearly) together.
  const PacketLevelNetwork net(64, cfg());
  Schedule s("pair", 64, 10'000);
  coll::Step& step = s.add_step();
  step.transfers.push_back(Transfer{1, 9, 0, 10'000, TransferKind::kReduce, {}});
  step.transfers.push_back(Transfer{2, 9, 0, 10'000, TransferKind::kReduce, {}});
  const auto res = net.execute(s);
  // Completion ~= 2x serialization of one flow + latency.
  const double serialization = 2.0 * 40'000.0 / 40e9;
  EXPECT_NEAR(res.total_time.count(), serialization + 25e-6, serialization);
}

TEST(PacketSim, StepsAreSequentialBarriers) {
  const PacketLevelNetwork net(16, cfg());
  Schedule s("two", 16, 18);
  s.add_step().transfers.push_back(
      Transfer{0, 1, 0, 18, TransferKind::kReduce, {}});
  s.add_step().transfers.push_back(
      Transfer{1, 2, 0, 18, TransferKind::kCopy, {}});
  const auto res = net.execute(s);
  ASSERT_EQ(res.step_times.size(), 2u);
  EXPECT_NEAR(res.total_time.count(),
              res.step_times[0].count() + res.step_times[1].count(), 1e-15);
}

TEST(PacketSim, AgreesWithFlowModelOnSmallRingAllreduce) {
  const ElectricalConfig c = cfg();
  const PacketLevelNetwork packet(16, c);
  const FatTreeNetwork flow(16, c);
  const auto sched = coll::ring_allreduce(16, 16 * 200);
  const double tp = packet.execute(sched).total_time.count();
  const double tf = flow.execute(sched).total_time.count();
  EXPECT_NEAR(tp / tf, 1.0, 0.15);
}

TEST(PacketSim, Validation) {
  const PacketLevelNetwork net(16, cfg());
  EXPECT_THROW(net.execute(one_transfer(32, 0, 20, 10)), InvalidArgument);
  ElectricalConfig bad = cfg();
  bad.packet_size = Bytes(0);
  EXPECT_THROW(PacketLevelNetwork(16, bad), InvalidArgument);
}

TEST(PacketSim, RejectsAStepBeyondTheThirtyTwoBitEventIndex) {
  // 2^36 elements * 4 B = 2^38 B -> ~3.8e9 packets over 2 links: more
  // events than a 32-bit index holds. Refused before anything is sized.
  const std::size_t elements = std::size_t{1} << 36;
  const PacketLevelNetwork net(16, cfg());
  try {
    (void)net.execute(one_transfer(16, 0, 1, elements));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(),
                 "PacketLevelNetwork: step 0 has more packet events than a "
                 "32-bit index holds");
  }
}

// ---------------------------------------------------------------------------
// Oracle: the packet DES as one global std::function event heap on
// sim::Simulator (every hop of every packet an event). The engine's
// per-link stream merge must reproduce it bit for bit.

struct OracleRun {
  std::vector<double> step_times;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  /// Per non-empty step, per transfer: last-packet arrival, step-relative.
  std::vector<std::vector<double>> transfer_done;
};

double oracle_step(const topo::FatTree& tree, const ElectricalConfig& config,
                   const coll::Step& step, std::uint64_t& packets,
                   std::uint64_t& events, obs::OccupancySampler& occupancy,
                   double step_start, std::uint32_t step_index,
                   std::vector<double>& transfer_done) {
  struct Packet {
    std::uint32_t route_index = 0;
    std::uint32_t hop = 0;
    double bytes = 0.0;
  };
  sim::Simulator simulator;
  std::vector<double> next_free(tree.num_links(), 0.0);
  const double rate = config.bytes_per_second();
  const double router_delay = config.router_delay.count();
  const double packet_bytes = static_cast<double>(config.packet_size.count());
  double makespan = 0.0;

  std::vector<obs::OccupancySampler::ResourceRef> link_refs(tree.num_links(),
                                                            UINT32_MAX);
  const auto link_ref = [&](topo::LinkId link) {
    if (link_refs[link] == UINT32_MAX) {
      link_refs[link] = occupancy.resource("link" + std::to_string(link));
    }
    return link_refs[link];
  };

  std::vector<std::vector<topo::LinkId>> routes;
  std::vector<Packet> pool;
  std::function<void(std::size_t)> arrive = [&](std::size_t pi) {
    Packet& packet = pool[pi];
    const std::vector<topo::LinkId>& route = routes[packet.route_index];
    const topo::LinkId link = route[packet.hop];
    const double now = simulator.now().count();
    const double tx_start = std::max(now, next_free[link]);
    const double depart = tx_start + packet.bytes / rate;
    occupancy.record(link_ref(link), step_index, Seconds(step_start + tx_start),
                     Seconds(depart - tx_start),
                     obs::OccCategory::kTransmission);
    next_free[link] = depart;
    ++packet.hop;
    if (packet.hop < route.size()) {
      simulator.schedule_at(Seconds(depart + router_delay),
                            [&arrive, pi] { arrive(pi); });
    } else {
      makespan = std::max(makespan, depart);
      transfer_done[packet.route_index] =
          std::max(transfer_done[packet.route_index], depart);
    }
  };
  transfer_done.assign(step.transfers.size(), 0.0);

  for (const auto& t : step.transfers) {
    const auto route_index = static_cast<std::uint32_t>(routes.size());
    routes.push_back(tree.route(t.src, t.dst).links);
    double remaining = static_cast<double>(t.count) * config.bytes_per_element;
    while (remaining > 0.0) {
      const std::size_t pi = pool.size();
      Packet& packet = pool.emplace_back();
      packet.route_index = route_index;
      packet.bytes = std::min(remaining, packet_bytes);
      remaining -= packet.bytes;
      ++packets;
      simulator.schedule_at(Seconds(0.0), [&arrive, pi] { arrive(pi); });
    }
  }
  simulator.run();
  events += simulator.events_fired();
  for (topo::LinkId l = 0; l < tree.num_links(); ++l) {
    if (next_free[l] <= 0.0) continue;
    occupancy.record(link_ref(l), step_index, Seconds(step_start + next_free[l]),
                     Seconds(makespan - next_free[l]),
                     obs::OccCategory::kStragglerWait);
  }
  return makespan;
}

OracleRun oracle_run(const topo::FatTree& tree, const ElectricalConfig& config,
                     const coll::Schedule& schedule,
                     obs::OccupancySampler& occupancy) {
  OracleRun run;
  double total = 0.0;
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    const coll::Step& step = schedule.steps()[s];
    double t = 0.0;
    if (!step.transfers.empty()) {
      std::vector<double> done;
      t = oracle_step(tree, config, step, run.packets, run.events, occupancy,
                      total, static_cast<std::uint32_t>(s), done);
      run.transfer_done.push_back(std::move(done));
    }
    run.step_times.push_back(t);
    total += t;
  }
  return run;
}

void expect_matches_oracle(const ElectricalConfig& config,
                           std::uint32_t num_hosts,
                           const coll::Schedule& schedule,
                           const std::string& what) {
  const PacketLevelNetwork net(num_hosts, config);
  obs::OccupancySampler expected_occupancy;
  const OracleRun expected =
      oracle_run(net.topology(), config, schedule, expected_occupancy);

  obs::OccupancySampler occupancy;
  obs::TransferLog log;
  obs::Counters counters;
  obs::Probe probe;
  probe.occupancy = &occupancy;
  probe.transfers = &log;
  probe.counters = &counters;
  const PacketRunResult observed = net.execute(schedule, probe);
  const PacketRunResult plain = net.execute(schedule);

  for (const PacketRunResult* run : {&observed, &plain}) {
    ASSERT_EQ(run->step_times.size(), expected.step_times.size()) << what;
    for (std::size_t s = 0; s < expected.step_times.size(); ++s) {
      EXPECT_EQ(run->step_times[s].count(), expected.step_times[s])
          << what << " step " << s;
    }
    EXPECT_EQ(run->total_packets, expected.packets) << what;
    EXPECT_EQ(run->events_fired, expected.events) << what;
  }
  EXPECT_EQ(counters.value("sim.events_fired"), expected.events) << what;

  ASSERT_EQ(occupancy.num_resources(), expected_occupancy.num_resources())
      << what;
  for (std::uint32_t r = 0; r < occupancy.num_resources(); ++r) {
    ASSERT_EQ(occupancy.name(r), expected_occupancy.name(r)) << what;
    const auto& got = occupancy.intervals(r);
    const auto& want = expected_occupancy.intervals(r);
    ASSERT_EQ(got.size(), want.size()) << what << " " << occupancy.name(r);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].start.count(), want[i].start.count()) << what;
      EXPECT_EQ(got[i].duration.count(), want[i].duration.count()) << what;
      EXPECT_EQ(got[i].category, want[i].category) << what;
      EXPECT_EQ(got[i].step, want[i].step) << what;
      EXPECT_EQ(got[i].concurrency, want[i].concurrency) << what;
    }
  }

  std::size_t k = 0;
  for (const std::vector<double>& done : expected.transfer_done) {
    for (const double d : done) {
      ASSERT_LT(k, log.transfers().size()) << what;
      EXPECT_EQ(log.transfers()[k].duration.count(), d) << what;
      ++k;
    }
  }
  EXPECT_EQ(k, log.transfers().size()) << what;
}

/// One step: host i sends to perm[i] (fixed points skipped).
coll::Schedule random_permutation(std::uint32_t n, std::size_t elements,
                                  Rng& rng, bool equal_sizes) {
  coll::Schedule s("permutation", n, elements);
  coll::Step& step = s.add_step();
  const std::vector<std::size_t> perm = rng.permutation(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (perm[i] == i) continue;
    const std::size_t count =
        equal_sizes ? elements : rng.uniform_int(1, elements);
    step.transfers.push_back(coll::Transfer{
        i, static_cast<topo::NodeId>(perm[i]), 0, count,
        coll::TransferKind::kReduce, {}});
  }
  return s;
}

TEST(PacketSimOracle, MatchesTheGlobalEventHeapBitForBit) {
  Rng rng(20231);
  // 18 elements * 4 B = one full 72 B packet: multiples of 18 leave no
  // short last packet, the others do.
  for (const std::size_t elements : {std::size_t{18 * 40}, std::size_t{737}}) {
    for (const double router_delay : {25e-6, 0.0}) {
      for (const std::uint32_t ports : {4u, 8u, 32u}) {
        ElectricalConfig c = cfg();
        c.router_delay = Seconds(router_delay);
        c.router_ports = ports;
        const std::string what = "elements " + std::to_string(elements) +
                                 " delay " + std::to_string(router_delay) +
                                 " ports " + std::to_string(ports);
        expect_matches_oracle(c, 16, coll::ring_allreduce(16, elements),
                              what + " ring");
        expect_matches_oracle(
            c, 16, coll::recursive_doubling_allreduce(16, elements),
            what + " recursive doubling");
        expect_matches_oracle(c, 16,
                              coll::halving_doubling_allreduce(16, elements),
                              what + " halving-doubling");
        for (int trial = 0; trial < 3; ++trial) {
          expect_matches_oracle(c, 16,
                                random_permutation(16, elements, rng, false),
                                what + " random permutation");
          expect_matches_oracle(c, 16,
                                random_permutation(16, elements, rng, true),
                                what + " equal permutation");
        }
      }
    }
  }
}

TEST(PacketSimOracle, MatchesOnExactTiesAtASharedCoreLink) {
  // 4-port routers: 2 hosts per edge, 2 cores, core = dst % 2. Hosts 0
  // and 1 (edge 0) send equal payloads to hosts 2 and 4 (edges 1 and 2),
  // both through core 0 on link edge0->core0: every packet pair reaches
  // that link at the same instant and only the sequence number orders it.
  for (const double router_delay : {25e-6, 0.0}) {
    for (const std::size_t elements : {std::size_t{18 * 7}, std::size_t{100}}) {
      ElectricalConfig c = cfg();
      c.router_ports = 4;
      c.router_delay = Seconds(router_delay);
      coll::Schedule s("ties", 8, elements);
      coll::Step& step = s.add_step();
      step.transfers.push_back(
          Transfer{0, 2, 0, elements, TransferKind::kReduce, {}});
      step.transfers.push_back(
          Transfer{1, 4, 0, elements, TransferKind::kReduce, {}});
      step.transfers.push_back(
          Transfer{5, 6, 0, elements, TransferKind::kReduce, {}});
      step.transfers.push_back(
          Transfer{7, 6, 0, elements, TransferKind::kReduce, {}});
      s.add_step();  // an empty step prices at zero and logs nothing
      s.add_step().transfers.push_back(
          Transfer{3, 0, 0, elements, TransferKind::kCopy, {}});
      expect_matches_oracle(c, 8, s,
                            "ties delay " + std::to_string(router_delay) +
                                " elements " + std::to_string(elements));
    }
  }
}

}  // namespace
}  // namespace wrht::elec
