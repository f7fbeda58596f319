// optics::lane_pattern against a std::map reference: the channel uses of
// every round, their order and concurrency, each route's `use` index and
// the round's distinct wavelength count must match.
#include "wrht/optical/lane_rounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "wrht/common/rng.hpp"

namespace wrht::optics {
namespace {

using coll::Transfer;
using coll::TransferKind;
using topo::Direction;

/// The channel aggregation through an ordered map: uses in key order,
/// each route pointing at its key's position.
LanePattern map_reference(const RoundsResult& rwa) {
  LanePattern out;
  out.wavelengths_used = rwa.wavelengths_used;
  using Key = std::tuple<std::uint8_t, std::uint32_t, std::uint32_t>;
  for (std::size_t r = 0; r < rwa.paths.size(); ++r) {
    LaneRound round;
    std::map<Key, ChannelUse> uses;
    std::set<std::uint32_t> lambdas;
    for (const Lightpath& path : rwa.paths[r]) {
      round.wavelengths = std::max(round.wavelengths, path.wavelength + 1);
      out.longest_hops = std::max(out.longest_hops, path.hops);
      const std::uint8_t dir = path.direction == Direction::kClockwise ? 0 : 1;
      ChannelUse& use = uses[Key{dir, path.fiber, path.wavelength}];
      use = ChannelUse{dir, path.fiber, path.wavelength, use.concurrency + 1};
      lambdas.insert(path.wavelength);
    }
    for (std::size_t j = 0; j < rwa.paths[r].size(); ++j) {
      const Lightpath& path = rwa.paths[r][j];
      const std::uint8_t dir = path.direction == Direction::kClockwise ? 0 : 1;
      const auto it = uses.find(Key{dir, path.fiber, path.wavelength});
      round.routes.push_back(TransferRoute{
          static_cast<std::uint32_t>(rwa.rounds[r][j]), dir, path.wavelength,
          static_cast<std::uint32_t>(std::distance(uses.begin(), it))});
    }
    for (const auto& [key, use] : uses) round.uses.push_back(use);
    round.distinct_wavelengths = static_cast<std::uint32_t>(lambdas.size());
    out.rounds.push_back(std::move(round));
  }
  return out;
}

void expect_same_pattern(const LanePattern& got, const LanePattern& want,
                         const std::string& where) {
  EXPECT_EQ(got.wavelengths_used, want.wavelengths_used) << where;
  EXPECT_EQ(got.longest_hops, want.longest_hops) << where;
  ASSERT_EQ(got.rounds.size(), want.rounds.size()) << where;
  for (std::size_t r = 0; r < want.rounds.size(); ++r) {
    const LaneRound& g = got.rounds[r];
    const LaneRound& w = want.rounds[r];
    EXPECT_EQ(g.wavelengths, w.wavelengths) << where;
    EXPECT_EQ(g.distinct_wavelengths, w.distinct_wavelengths) << where;
    ASSERT_EQ(g.uses.size(), w.uses.size()) << where;
    for (std::size_t u = 0; u < w.uses.size(); ++u) {
      EXPECT_EQ(g.uses[u].direction, w.uses[u].direction) << where;
      EXPECT_EQ(g.uses[u].fiber, w.uses[u].fiber) << where;
      EXPECT_EQ(g.uses[u].wavelength, w.uses[u].wavelength) << where;
      EXPECT_EQ(g.uses[u].concurrency, w.uses[u].concurrency) << where;
    }
    ASSERT_EQ(g.routes.size(), w.routes.size()) << where;
    for (std::size_t j = 0; j < w.routes.size(); ++j) {
      EXPECT_EQ(g.routes[j].index, w.routes[j].index) << where;
      EXPECT_EQ(g.routes[j].direction, w.routes[j].direction) << where;
      EXPECT_EQ(g.routes[j].wavelength, w.routes[j].wavelength) << where;
      EXPECT_EQ(g.routes[j].use, w.routes[j].use) << where;
    }
  }
}

TEST(LanePattern, MatchesMapReferenceOnRandomSteps) {
  Rng gen(21);
  for (const std::uint32_t n : {2u, 9u, 64u, 200u}) {
    const topo::Ring ring(n);
    for (const std::uint32_t fibers : {1u, 2u}) {
      for (const std::uint32_t wavelengths : {1u, 3u, 16u}) {
        std::vector<Transfer> step;
        for (std::uint32_t i = 0; i < 2 * n; ++i) {
          const auto src = static_cast<topo::NodeId>(gen.uniform_int(0, n - 1));
          const auto dst = static_cast<topo::NodeId>(
              (src + gen.uniform_int(1, n - 1)) % n);
          step.push_back(Transfer{src, dst, 0, 1, TransferKind::kReduce,
                                  std::nullopt});
        }
        RwaOptions opt;
        opt.wavelengths = wavelengths;
        opt.fibers_per_direction = fibers;
        const RoundsResult rwa = assign_rounds(ring, step, opt);
        expect_same_pattern(lane_pattern(rwa), map_reference(rwa),
                            "n=" + std::to_string(n) +
                                " f=" + std::to_string(fibers) +
                                " w=" + std::to_string(wavelengths));
      }
    }
  }
}

TEST(LanePattern, SharedWavelengthOnBothDirectionsCountsOnce) {
  // Channels (cw, w2), (ccw, w2) and (cw, f1, w0): three uses, two
  // distinct wavelengths; routes keep RWA order.
  RoundsResult rwa;
  rwa.wavelengths_used = 3;
  rwa.rounds = {{4, 1, 7, 2}};
  rwa.paths = {{Lightpath{0, 1, Direction::kCounterClockwise, 0, 2, 0, 1},
                Lightpath{1, 2, Direction::kClockwise, 0, 2, 1, 1},
                Lightpath{3, 5, Direction::kClockwise, 1, 0, 3, 2},
                Lightpath{2, 3, Direction::kClockwise, 0, 2, 2, 1}}};
  const LanePattern pattern = lane_pattern(rwa);
  ASSERT_EQ(pattern.rounds.size(), 1u);
  const LaneRound& round = pattern.rounds[0];
  EXPECT_EQ(round.distinct_wavelengths, 2u);
  ASSERT_EQ(round.uses.size(), 3u);
  EXPECT_EQ(round.uses[0].fiber, 0u);
  EXPECT_EQ(round.uses[0].wavelength, 2u);
  EXPECT_EQ(round.uses[0].concurrency, 2u);
  EXPECT_EQ(round.uses[1].fiber, 1u);
  EXPECT_EQ(round.uses[2].direction, 1u);
  std::vector<std::uint32_t> route_uses;
  for (const TransferRoute& route : round.routes) {
    route_uses.push_back(route.use);
  }
  EXPECT_EQ(route_uses, (std::vector<std::uint32_t>{2, 0, 1, 0}));
  expect_same_pattern(pattern, map_reference(rwa), "fixed");
}

}  // namespace
}  // namespace wrht::optics
