#include "wrht/collectives/schedule.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/halving_doubling.hpp"
#include "wrht/collectives/hring_allreduce.hpp"
#include "wrht/collectives/recursive_doubling.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/collectives/ring_primitives.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/wrht_schedule.hpp"

namespace wrht::coll {
namespace {

/// The InvalidArgument message `fn` throws ("" when it does not throw).
std::string invalid_argument_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

/// A schedule whose steps 0 .. bad_step-1 are valid and whose step
/// `bad_step` ends with `bad`.
Schedule with_bad_transfer(std::size_t bad_step, const Transfer& bad) {
  Schedule s("test", 4, 10);
  for (std::size_t i = 0; i < bad_step; ++i) {
    s.add_step().transfers.push_back(
        Transfer{0, 1, 0, 10, TransferKind::kReduce, {}});
  }
  Step& step = s.add_step();
  step.transfers.push_back(Transfer{2, 3, 0, 5, TransferKind::kCopy, {}});
  step.transfers.push_back(bad);
  return s;
}

TEST(Schedule, BasicAccessors) {
  Schedule s("test", 4, 100);
  EXPECT_EQ(s.algorithm(), "test");
  EXPECT_EQ(s.num_nodes(), 4u);
  EXPECT_EQ(s.elements(), 100u);
  EXPECT_EQ(s.num_steps(), 0u);
}

TEST(Schedule, AddStepAndTraffic) {
  Schedule s("test", 4, 100);
  Step& a = s.add_step("first");
  a.transfers.push_back(Transfer{0, 1, 0, 50, TransferKind::kReduce, {}});
  a.transfers.push_back(Transfer{2, 3, 50, 50, TransferKind::kCopy, {}});
  Step& b = s.add_step("second");
  b.transfers.push_back(Transfer{1, 2, 0, 100, TransferKind::kReduce, {}});
  EXPECT_EQ(s.num_steps(), 2u);
  EXPECT_EQ(s.total_traffic_elements(), 200u);
  EXPECT_EQ(s.max_transfer_elements(0), 50u);
  EXPECT_EQ(s.max_transfer_elements(1), 100u);
  EXPECT_EQ(s.steps()[0].label, "first");
  s.validate();
}

TEST(Schedule, ValidateRejectsBadNodeIds) {
  Schedule s("test", 2, 10);
  s.add_step().transfers.push_back(
      Transfer{0, 5, 0, 10, TransferKind::kReduce, {}});
  EXPECT_THROW(s.validate(), InvalidArgument);
}

TEST(Schedule, ValidateRejectsSelfTransfer) {
  Schedule s("test", 2, 10);
  s.add_step().transfers.push_back(
      Transfer{1, 1, 0, 10, TransferKind::kReduce, {}});
  EXPECT_THROW(s.validate(), InvalidArgument);
}

TEST(Schedule, ValidateRejectsOutOfRangeElements) {
  Schedule s("test", 2, 10);
  s.add_step().transfers.push_back(
      Transfer{0, 1, 8, 5, TransferKind::kReduce, {}});
  EXPECT_THROW(s.validate(), InvalidArgument);
}

TEST(Schedule, ValidateRejectsEmptyTransfer) {
  Schedule s("test", 2, 10);
  s.add_step().transfers.push_back(
      Transfer{0, 1, 0, 0, TransferKind::kReduce, {}});
  EXPECT_THROW(s.validate(), InvalidArgument);
}

TEST(Schedule, ValidateMessagesNameTheFailingStep) {
  const auto message = [](std::size_t step, const Transfer& bad) {
    const Schedule s = with_bad_transfer(step, bad);
    return invalid_argument_of([&] { s.validate(); });
  };
  EXPECT_EQ(message(2, Transfer{0, 4, 0, 10, TransferKind::kReduce, {}}),
            "Schedule: node id out of range in step 2");
  EXPECT_EQ(message(0, Transfer{7, 1, 0, 10, TransferKind::kReduce, {}}),
            "Schedule: node id out of range in step 0");
  EXPECT_EQ(message(1, Transfer{3, 3, 0, 10, TransferKind::kReduce, {}}),
            "Schedule: self-transfer in step 1");
  EXPECT_EQ(message(3, Transfer{0, 1, 8, 5, TransferKind::kCopy, {}}),
            "Schedule: element range out of bounds in step 3");
  EXPECT_EQ(message(12, Transfer{0, 1, 0, 0, TransferKind::kCopy, {}}),
            "Schedule: element range out of bounds in step 12");
}

TEST(Schedule, ValidateRejectsAWrappingElementRange) {
  // offset + count wraps to a small value in size_t arithmetic; the check
  // must not accept it, nor a count larger than the whole vector.
  const auto message = [](const Transfer& bad) {
    const Schedule s = with_bad_transfer(1, bad);
    return invalid_argument_of([&] { s.validate(); });
  };
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  const std::string expected =
      "Schedule: element range out of bounds in step 1";
  EXPECT_EQ(message(Transfer{0, 1, max, 1, TransferKind::kReduce, {}}),
            expected);
  EXPECT_EQ(message(Transfer{0, 1, 5, max - 2, TransferKind::kReduce, {}}),
            expected);
  EXPECT_EQ(message(Transfer{0, 1, 0, 11, TransferKind::kReduce, {}}),
            expected);
  // The last element is still in range.
  EXPECT_EQ(message(Transfer{0, 1, 9, 1, TransferKind::kReduce, {}}), "");
}

TEST(Schedule, ConstructionValidation) {
  EXPECT_THROW(Schedule("x", 0, 10), InvalidArgument);
  EXPECT_THROW(Schedule("x", 2, 0), InvalidArgument);
  Schedule s("x", 2, 1);
  EXPECT_THROW(s.max_transfer_elements(0), InvalidArgument);
}

TEST(ChunkRange, PartitionsExactly) {
  // Chunks must tile [0, elements) without gaps or overlaps.
  for (std::size_t elements : {1u, 7u, 16u, 100u, 1023u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 5u, 16u}) {
      std::size_t expect_offset = 0;
      std::size_t total = 0;
      for (std::size_t i = 0; i < chunks; ++i) {
        const ChunkRange r = chunk_range(elements, chunks, i);
        EXPECT_EQ(r.offset, expect_offset);
        expect_offset += r.count;
        total += r.count;
      }
      EXPECT_EQ(total, elements);
    }
  }
}

TEST(ChunkRange, Balanced) {
  // Any two chunks differ by at most one element.
  const std::size_t elements = 103, chunks = 10;
  std::size_t min_c = elements, max_c = 0;
  for (std::size_t i = 0; i < chunks; ++i) {
    const ChunkRange r = chunk_range(elements, chunks, i);
    min_c = std::min(min_c, r.count);
    max_c = std::max(max_c, r.count);
  }
  EXPECT_LE(max_c - min_c, 1u);
}

TEST(ChunkRange, MoreChunksThanElements) {
  // Trailing chunks are empty but still validly placed.
  const ChunkRange r = chunk_range(3, 5, 4);
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.offset, 3u);
}

TEST(ChunkRange, Validation) {
  EXPECT_EQ(invalid_argument_of([] { (void)chunk_range(10, 0, 0); }),
            "chunk_range: bad chunk index");
  EXPECT_EQ(invalid_argument_of([] { (void)chunk_range(10, 3, 3); }),
            "chunk_range: bad chunk index");
}

/// Builders reserve their step storage up front, so a schedule's arena
/// holds its transfers and nothing else: no block abandoned by vector
/// growth (which cost 2x the payload for Ring).
TEST(ScheduleStorage, BuildersLeaveNoGrowthBlocksInTheArena) {
  const std::size_t elements = std::size_t{1} << 20;
  core::WrhtOptions wrht;
  wrht.group_size = 5;
  wrht.wavelengths = 64;
  const std::vector<std::pair<std::string, std::function<Schedule()>>>
      builders = {
          {"ring", [&] { return ring_allreduce(1024, elements); }},
          {"hring", [&] { return hring_allreduce(1024, elements, 5); }},
          {"hring N=1000",
           [&] { return hring_allreduce(1000, elements, 7); }},
          {"ring_reduce_scatter",
           [&] { return ring_reduce_scatter(1024, elements); }},
          {"ring_allgather", [&] { return ring_allgather(1024, elements); }},
          {"btree N=1000", [&] { return btree_allreduce(1000, elements); }},
          {"recursive_doubling N=1000",
           [&] { return recursive_doubling_allreduce(1000, elements); }},
          {"halving_doubling N=1000",
           [&] { return halving_doubling_allreduce(1000, elements); }},
          {"wrht", [&] { return core::wrht_allreduce(1024, elements, wrht); }},
      };
  for (const auto& [name, build] : builders) {
    const Schedule s = build();
    std::size_t transfers = 0;
    for (const Step& step : s.steps()) transfers += step.transfers.size();
    ASSERT_NE(s.arena(), nullptr) << name;
    const double payload =
        static_cast<double>(transfers * sizeof(Transfer));
    EXPECT_LE(static_cast<double>(s.arena()->bytes_allocated()),
              payload * 1.05 + 4096.0)
        << name << ": " << transfers << " transfers";
  }
}

TEST(ReconfigDeltas, ColdStartAddsEverything) {
  Schedule s("test", 4, 16);
  Step& step = s.add_step();
  step.transfers.push_back({0, 1, 0, 8, TransferKind::kReduce, {}});
  step.transfers.push_back({2, 3, 8, 8, TransferKind::kReduce, {}});
  const auto deltas = reconfig_deltas(s);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].added.size(), 2u);
  EXPECT_TRUE(deltas[0].removed.empty());
  EXPECT_EQ(deltas[0].kept, 0u);
  EXPECT_FALSE(deltas[0].reconfig_free());
}

TEST(ReconfigDeltas, RepeatedCircuitsAreFree) {
  // Same (src, dst, direction) circuits step after step: only step 0
  // retunes, even when offsets/counts/kinds differ (Ring All-reduce).
  Schedule s("test", 4, 16);
  for (int i = 0; i < 3; ++i) {
    Step& step = s.add_step();
    step.transfers.push_back(
        {0, 1, static_cast<std::size_t>(4 * i), 4,
         i < 2 ? TransferKind::kReduce : TransferKind::kCopy, {}});
  }
  const auto deltas = reconfig_deltas(s);
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_FALSE(deltas[0].reconfig_free());
  EXPECT_TRUE(deltas[1].reconfig_free());
  EXPECT_EQ(deltas[1].kept, 1u);
  EXPECT_TRUE(deltas[2].reconfig_free());
  EXPECT_TRUE(is_reconfig_free(s));
}

TEST(ReconfigDeltas, DirectionChangeRetunes) {
  // Pinning the same (src, dst) pair to a different ring direction is a
  // different circuit: the micro-rings on the other arc must be tuned.
  Schedule s("test", 4, 16);
  s.add_step().transfers.push_back(
      {0, 1, 0, 8, TransferKind::kReduce, topo::Direction::kClockwise});
  s.add_step().transfers.push_back(
      {0, 1, 0, 8, TransferKind::kReduce,
       topo::Direction::kCounterClockwise});
  const auto deltas = reconfig_deltas(s);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[1].added.size(), 1u);
  EXPECT_EQ(deltas[1].removed.size(), 1u);
  EXPECT_EQ(deltas[1].kept, 0u);
  EXPECT_FALSE(is_reconfig_free(s));
}

TEST(ReconfigDeltas, PartialOverlapCountsKept) {
  Schedule s("test", 6, 16);
  Step& a = s.add_step();
  a.transfers.push_back({0, 1, 0, 8, TransferKind::kReduce, {}});
  a.transfers.push_back({2, 3, 0, 8, TransferKind::kReduce, {}});
  Step& b = s.add_step();
  b.transfers.push_back({2, 3, 8, 8, TransferKind::kReduce, {}});
  b.transfers.push_back({4, 5, 8, 8, TransferKind::kReduce, {}});
  const auto deltas = reconfig_deltas(s);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[1].kept, 1u);
  EXPECT_EQ(deltas[1].added.size(), 1u);
  EXPECT_EQ(deltas[1].removed.size(), 1u);
}

TEST(ReconfigDeltas, DuplicateTransfersShareOneCircuit) {
  // Two transfers over the same circuit in one step light it once.
  Schedule s("test", 4, 16);
  Step& step = s.add_step();
  step.transfers.push_back({0, 1, 0, 4, TransferKind::kReduce, {}});
  step.transfers.push_back({0, 1, 8, 4, TransferKind::kCopy, {}});
  const auto deltas = reconfig_deltas(s);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].added.size(), 1u);
}

}  // namespace
}  // namespace wrht::coll
