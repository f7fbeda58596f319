// The packed-word RWA against the byte-per-segment reference in
// rwa_oracle.hpp: every entry point must return the oracle's assignment
// field by field, for first-fit and for random-fit on equal Rng seeds.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "rwa_oracle.hpp"
#include "wrht/optical/rwa.hpp"

namespace wrht::optics {
namespace {

using coll::Transfer;
using coll::TransferKind;
using topo::Direction;
using topo::Ring;

void expect_same_path(const Lightpath& got, const Lightpath& want,
                      const std::string& where) {
  EXPECT_EQ(got.src, want.src) << where;
  EXPECT_EQ(got.dst, want.dst) << where;
  EXPECT_EQ(got.direction, want.direction) << where;
  EXPECT_EQ(got.fiber, want.fiber) << where;
  EXPECT_EQ(got.wavelength, want.wavelength) << where;
  EXPECT_EQ(got.first_segment, want.first_segment) << where;
  EXPECT_EQ(got.hops, want.hops) << where;
}

void expect_same_rounds(const RoundsResult& got, const RoundsResult& want,
                        const std::string& where) {
  EXPECT_EQ(got.wavelengths_used, want.wavelengths_used) << where;
  ASSERT_EQ(got.rounds.size(), want.rounds.size()) << where;
  ASSERT_EQ(got.paths.size(), want.paths.size()) << where;
  for (std::size_t r = 0; r < want.rounds.size(); ++r) {
    EXPECT_EQ(got.rounds[r], want.rounds[r]) << where << " round " << r;
    ASSERT_EQ(got.paths[r].size(), want.paths[r].size()) << where;
    for (std::size_t j = 0; j < want.paths[r].size(); ++j) {
      expect_same_path(got.paths[r][j], want.paths[r][j],
                       where + " round " + std::to_string(r) + " path " +
                           std::to_string(j));
    }
  }
}

/// One step on an n-node ring: `count` random transfers, a third each
/// unhinted, pinned clockwise and pinned counter-clockwise (pinned paths
/// the long way round wrap past segment n - 1).
std::vector<Transfer> random_step(std::uint32_t n, std::size_t count,
                                  Rng& rng) {
  std::vector<Transfer> step;
  step.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<topo::NodeId>(rng.uniform_int(0, n - 1));
    const auto dst = static_cast<topo::NodeId>(
        (src + rng.uniform_int(1, n - 1)) % n);
    std::optional<Direction> dir;
    switch (rng.uniform_int(0, 2)) {
      case 1:
        dir = Direction::kClockwise;
        break;
      case 2:
        dir = Direction::kCounterClockwise;
        break;
      default:
        break;
    }
    step.push_back(Transfer{src, dst, 0, 1, TransferKind::kReduce, dir});
  }
  return step;
}

struct OptionCase {
  std::uint32_t wavelengths;
  std::uint32_t fibers;
  std::uint32_t wavelength_lo;
};

constexpr std::uint32_t kRingSizes[] = {2, 3, 63, 64, 65, 127, 1000};
constexpr OptionCase kOptionCases[] = {
    {4, 1, 0}, {4, 2, 0}, {8, 1, 3}, {8, 2, 5}, {64, 1, 0}};

RwaOptions options_for(const OptionCase& c, RwaPolicy policy) {
  RwaOptions opt;
  opt.wavelengths = c.wavelengths;
  opt.fibers_per_direction = c.fibers;
  opt.wavelength_lo = c.wavelength_lo;
  opt.policy = policy;
  return opt;
}

std::string label(std::uint32_t n, const OptionCase& c, std::size_t count) {
  return "n=" + std::to_string(n) + " w=" + std::to_string(c.wavelengths) +
         " f=" + std::to_string(c.fibers) +
         " lo=" + std::to_string(c.wavelength_lo) +
         " transfers=" + std::to_string(count);
}

TEST(RwaOracle, FirstFitMatchesOracle) {
  Rng gen(11);
  for (const std::uint32_t n : kRingSizes) {
    const Ring ring(n);
    for (const OptionCase& c : kOptionCases) {
      const RwaOptions opt = options_for(c, RwaPolicy::kFirstFit);
      for (const std::size_t count : {std::size_t{1}, std::size_t{n},
                                      std::size_t{3} * n}) {
        const std::vector<Transfer> step = random_step(n, count, gen);
        const std::string where = label(n, c, count);
        test::RwaOracle oracle(ring, step, opt, nullptr);

        const RwaResult got = assign_wavelengths(ring, step, opt);
        const RwaResult want = oracle.assign_wavelengths();
        ASSERT_EQ(got.ok, want.ok) << where;
        EXPECT_EQ(got.wavelengths_used, want.wavelengths_used) << where;
        ASSERT_EQ(got.paths.size(), want.paths.size()) << where;
        for (std::size_t i = 0; i < want.paths.size(); ++i) {
          expect_same_path(got.paths[i], want.paths[i], where);
        }

        expect_same_rounds(assign_rounds(ring, step, opt),
                           oracle.assign_rounds(), where);
      }
    }
  }
}

TEST(RwaOracle, RandomFitMatchesOracleOnEqualSeeds) {
  Rng gen(12);
  for (const std::uint32_t n : kRingSizes) {
    const Ring ring(n);
    for (const OptionCase& c : kOptionCases) {
      const RwaOptions opt = options_for(c, RwaPolicy::kRandomFit);
      const std::vector<Transfer> step = random_step(n, 2 * n, gen);
      const std::string where = label(n, c, step.size());
      Rng lib_rng(n + c.wavelengths);
      Rng oracle_rng(n + c.wavelengths);
      test::RwaOracle oracle(ring, step, opt, &oracle_rng);

      const RwaResult got = assign_wavelengths(ring, step, opt, &lib_rng);
      const RwaResult want = oracle.assign_wavelengths();
      ASSERT_EQ(got.ok, want.ok) << where;
      ASSERT_EQ(got.paths.size(), want.paths.size()) << where;
      for (std::size_t i = 0; i < want.paths.size(); ++i) {
        expect_same_path(got.paths[i], want.paths[i], where);
      }

      expect_same_rounds(assign_rounds(ring, step, opt, &lib_rng),
                         oracle.assign_rounds(), where);
      // Both consumed the same number of draws.
      EXPECT_EQ(lib_rng.uniform_int(0, 1u << 30),
                oracle_rng.uniform_int(0, 1u << 30))
          << where;
    }
  }
}

TEST(RwaOracle, BatchMatchesOracleStepByStep) {
  Rng gen(13);
  for (const std::uint32_t n : kRingSizes) {
    const Ring ring(n);
    for (const OptionCase& c : kOptionCases) {
      const RwaOptions opt = options_for(c, RwaPolicy::kFirstFit);
      // Enough transfers on the larger rings to leave the inline path.
      std::vector<std::vector<Transfer>> steps;
      for (int s = 0; s < 4; ++s) steps.push_back(random_step(n, 2 * n, gen));
      const std::vector<std::span<const Transfer>> spans(steps.begin(),
                                                         steps.end());
      const std::vector<RoundsResult> got =
          assign_rounds_batch(ring, spans, opt, 2);
      ASSERT_EQ(got.size(), steps.size());
      for (std::size_t s = 0; s < steps.size(); ++s) {
        expect_same_rounds(
            got[s], test::RwaOracle(ring, steps[s], opt, nullptr).assign_rounds(),
            label(n, c, steps[s].size()) + " step " + std::to_string(s));
      }
    }
  }
}

TEST(RwaOracle, SpansEndingOnWordAndRingBoundariesMatchOracle) {
  // Every (src, hops) on a 65-node ring in both directions, one transfer
  // per step on top of a fixed background: covers spans that end exactly
  // at segment 64 (the last word's only bit), at n, and that wrap.
  const std::uint32_t n = 65;
  const Ring ring(n);
  const RwaOptions opt = options_for({2, 1, 0}, RwaPolicy::kFirstFit);
  for (topo::NodeId src = 0; src < n; ++src) {
    for (std::uint32_t hops = 1; hops < n; hops += 7) {
      for (const Direction dir :
           {Direction::kClockwise, Direction::kCounterClockwise}) {
        const topo::NodeId dst = dir == Direction::kClockwise
                                     ? (src + hops) % n
                                     : (src + n - hops) % n;
        const std::vector<Transfer> step = {
            Transfer{0, 63, 0, 1, TransferKind::kReduce, Direction::kClockwise},
            Transfer{64, 1, 0, 1, TransferKind::kReduce, Direction::kClockwise},
            Transfer{src, dst, 0, 1, TransferKind::kReduce, dir}};
        expect_same_rounds(
            assign_rounds(ring, step, opt),
            test::RwaOracle(ring, step, opt, nullptr).assign_rounds(),
            "src=" + std::to_string(src) + " hops=" + std::to_string(hops));
      }
    }
  }
}

}  // namespace
}  // namespace wrht::optics
