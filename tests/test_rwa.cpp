#include "wrht/optical/rwa.hpp"

#include <gtest/gtest.h>

#include "wrht/common/error.hpp"
#include "wrht/core/grouping.hpp"

namespace wrht::optics {
namespace {

using coll::Transfer;
using coll::TransferKind;
using topo::Direction;
using topo::Ring;

Transfer t(topo::NodeId src, topo::NodeId dst,
           std::optional<Direction> dir = std::nullopt) {
  return Transfer{src, dst, 0, 1, TransferKind::kReduce, dir};
}

/// Asserts the assignment is conflict-free: same (direction, fiber,
/// wavelength) lightpaths must not overlap.
void expect_conflict_free(const Ring& ring, const std::vector<Lightpath>& ps) {
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t j = i + 1; j < ps.size(); ++j) {
      const auto& a = ps[i];
      const auto& b = ps[j];
      if (a.direction != b.direction || a.fiber != b.fiber ||
          a.wavelength != b.wavelength) {
        continue;
      }
      EXPECT_FALSE(spans_overlap({a.first_segment, a.hops},
                                 {b.first_segment, b.hops}, ring.size()))
          << "lightpaths " << i << " and " << j << " conflict";
    }
  }
}

TEST(Rwa, DisjointNeighbourTransfersShareOneWavelength) {
  // Ring All-reduce step: every node to its clockwise neighbour.
  const Ring ring(8);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 8; ++i) {
    step.push_back(t(i, (i + 1) % 8, Direction::kClockwise));
  }
  const RwaResult res = assign_wavelengths(ring, step, RwaOptions{64});
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.wavelengths_used, 1u);
  expect_conflict_free(ring, res.paths);
}

TEST(Rwa, NestedPathsNeedDistinctWavelengths) {
  // 0->4, 1->4, 2->4, 3->4 clockwise: all overlap near node 4.
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 4; ++i) {
    step.push_back(t(i, 4, Direction::kClockwise));
  }
  const RwaResult res = assign_wavelengths(ring, step, RwaOptions{64});
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.wavelengths_used, 4u);
  expect_conflict_free(ring, res.paths);
}

TEST(Rwa, TwoDirectionsReuseWavelengths) {
  // WRHT group: members both sides of rep 4, same wavelengths per side.
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i : {2u, 3u}) step.push_back(t(i, 4, Direction::kClockwise));
  for (topo::NodeId i : {5u, 6u}) {
    step.push_back(t(i, 4, Direction::kCounterClockwise));
  }
  const RwaResult res = assign_wavelengths(ring, step, RwaOptions{64});
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.wavelengths_used, 2u);  // floor(m/2) with m=5
  expect_conflict_free(ring, res.paths);
}

TEST(Rwa, HintRespected) {
  const Ring ring(10);
  const std::vector<Transfer> step = {t(0, 3, Direction::kCounterClockwise)};
  const RwaResult res = assign_wavelengths(ring, step, RwaOptions{4});
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.paths[0].direction, Direction::kCounterClockwise);
  EXPECT_EQ(res.paths[0].hops, 7u);
}

TEST(Rwa, ShortestDirectionChosenWithoutHint) {
  const Ring ring(10);
  const RwaResult cw = assign_wavelengths(ring, std::vector<Transfer>{t(0, 3)}, RwaOptions{4});
  ASSERT_TRUE(cw.ok);
  EXPECT_EQ(cw.paths[0].direction, Direction::kClockwise);
  const RwaResult ccw = assign_wavelengths(ring, std::vector<Transfer>{t(0, 8)}, RwaOptions{4});
  ASSERT_TRUE(ccw.ok);
  EXPECT_EQ(ccw.paths[0].direction, Direction::kCounterClockwise);
}

TEST(Rwa, FailsWhenBudgetExceeded) {
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 4; ++i) {
    step.push_back(t(i, 4, Direction::kClockwise));
  }
  const RwaResult res = assign_wavelengths(ring, step, RwaOptions{3});
  EXPECT_FALSE(res.ok);
}

TEST(Rwa, SecondFiberDoublesCapacity) {
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 4; ++i) {
    step.push_back(t(i, 4, Direction::kClockwise));
  }
  RwaOptions opt{2, 2, RwaPolicy::kFirstFit};
  const RwaResult res = assign_wavelengths(ring, step, opt);
  ASSERT_TRUE(res.ok);
  EXPECT_LE(res.wavelengths_used, 2u);
}

TEST(Rwa, RandomFitIsConflictFreeAndSeedStable) {
  const Ring ring(32);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 8; ++i) {
    step.push_back(t(i, 8, Direction::kClockwise));
  }
  RwaOptions opt{64, 1, RwaPolicy::kRandomFit};
  Rng rng_a(7), rng_b(7);
  const RwaResult a = assign_wavelengths(ring, step, opt, &rng_a);
  const RwaResult b = assign_wavelengths(ring, step, opt, &rng_b);
  ASSERT_TRUE(a.ok);
  expect_conflict_free(ring, a.paths);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].wavelength, b.paths[i].wavelength);
  }
}

TEST(Rwa, RandomFitRequiresRng) {
  const Ring ring(8);
  RwaOptions opt{4, 1, RwaPolicy::kRandomFit};
  EXPECT_THROW(assign_wavelengths(ring, std::vector<Transfer>{t(0, 1)}, opt), InvalidArgument);
}

TEST(Rwa, EmptyLeasedSliceIsRejectedByName) {
  const Ring ring(8);
  RwaOptions opt;
  opt.wavelengths = 4;
  opt.wavelength_lo = 4;
  for (const bool rounds : {false, true}) {
    try {
      if (rounds) {
        (void)assign_rounds(ring, std::vector<Transfer>{t(0, 1)}, opt);
      } else {
        (void)assign_wavelengths(ring, std::vector<Transfer>{t(0, 1)}, opt);
      }
      ADD_FAILURE() << "no throw, rounds=" << rounds;
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "RWA: leased slice [4, 4) is empty");
    }
  }
}

TEST(Rwa, AllToAllStaysNearLiangShenBound) {
  // k equally spaced reps on a ring: the per-segment load (and hence the
  // wavelength minimum) is ceil(k^2/8) [Liang & Shen]. Greedy first-fit
  // colouring carries a bounded overhead: <= 1.5x the bound across the
  // sweep, approaching 1.1x for large k (see DESIGN.md).
  for (const std::uint32_t k : {3u, 4u, 5u, 8u, 16u, 32u}) {
    const std::uint32_t n = 8 * k;
    const Ring ring(n);
    std::vector<Transfer> step;
    for (std::uint32_t a = 0; a < k; ++a) {
      for (std::uint32_t b = 0; b < k; ++b) {
        if (a == b) continue;
        const topo::NodeId sa = a * (n / k);
        const topo::NodeId sb = b * (n / k);
        // Split antipodal ties across the fibers like the WRHT builder.
        const std::uint32_t cw = ring.cw_distance(sa, sb);
        const std::uint32_t ccw = ring.ccw_distance(sa, sb);
        std::optional<Direction> dir;
        if (cw < ccw) {
          dir = Direction::kClockwise;
        } else if (ccw < cw) {
          dir = Direction::kCounterClockwise;
        } else {
          dir = sa < sb ? Direction::kClockwise : Direction::kCounterClockwise;
        }
        step.push_back(t(sa, sb, dir));
      }
    }
    const std::uint32_t bound =
        static_cast<std::uint32_t>(core::all_to_all_wavelengths(k));
    const RwaResult res = assign_wavelengths(ring, step, RwaOptions{4 * bound});
    ASSERT_TRUE(res.ok) << "k=" << k;
    expect_conflict_free(ring, res.paths);
    EXPECT_LE(res.wavelengths_used, (3 * bound + 1) / 2) << "k=" << k;
  }
}

TEST(RwaRounds, SingleRoundWhenBudgetSuffices) {
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 4; ++i) {
    step.push_back(t(i, 4, Direction::kClockwise));
  }
  const RoundsResult res = assign_rounds(ring, step, RwaOptions{4});
  EXPECT_EQ(res.rounds.size(), 1u);
  EXPECT_EQ(res.rounds[0].size(), 4u);
}

TEST(RwaRounds, SplitsWhenStarved) {
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 4; ++i) {
    step.push_back(t(i, 4, Direction::kClockwise));
  }
  const RoundsResult res = assign_rounds(ring, step, RwaOptions{2});
  EXPECT_EQ(res.rounds.size(), 2u);
  std::size_t total = 0;
  for (const auto& r : res.rounds) total += r.size();
  EXPECT_EQ(total, 4u);
  EXPECT_LE(res.wavelengths_used, 2u);
}

TEST(RwaRounds, EveryTransferAssignedExactlyOnce) {
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 8; ++i) {
    if (i != 4) step.push_back(t(i, 4));
  }
  const RoundsResult res = assign_rounds(ring, step, RwaOptions{1});
  std::vector<int> seen(step.size(), 0);
  for (const auto& round : res.rounds) {
    for (const std::size_t idx : round) ++seen[idx];
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
}

TEST(Rwa, Validation) {
  const Ring ring(8);
  EXPECT_THROW(assign_wavelengths(ring, {}, RwaOptions{0}), InvalidArgument);
}

}  // namespace
}  // namespace wrht::optics
