#include "wrht/collectives/halving_doubling.hpp"

#include <bit>
#include <vector>

#include "wrht/common/error.hpp"

namespace wrht::coll {

namespace {

/// Element range covering the contiguous run of `count` chunks starting at
/// `first` (chunks are the balanced p2-way split of the vector).
struct Range {
  std::size_t offset;
  std::size_t length;
};
Range chunk_run(std::size_t elements, std::uint32_t p2, std::uint32_t first,
                std::uint32_t count) {
  const ChunkRange head = chunk_range(elements, p2, first);
  const ChunkRange tail = chunk_range(elements, p2, first + count - 1);
  return Range{head.offset, tail.offset + tail.count - head.offset};
}

}  // namespace

Schedule halving_doubling_allreduce(std::uint32_t num_nodes,
                                    std::size_t elements) {
  require(num_nodes >= 2, "halving_doubling: need at least 2 nodes");
  require(elements >= num_nodes,
          "halving_doubling: need at least one element per chunk");
  Schedule sched("halving_doubling", num_nodes, elements);

  const std::uint32_t p2 = std::bit_floor(num_nodes);
  const std::uint32_t r = num_nodes - p2;
  const std::uint32_t levels = std::bit_width(p2) - 1;
  sched.reserve_steps(halving_doubling_steps(num_nodes));

  if (r > 0) {
    Step& step = sched.add_step("pre-fold");
    step.transfers.reserve(r);
    for (std::uint32_t i = 1; i < 2 * r; i += 2) {
      step.transfers.push_back(Transfer{i, i - 1, 0, elements,
                                        TransferKind::kReduce, std::nullopt});
    }
  }
  std::vector<NodeId> node_of(p2);
  for (std::uint32_t rank = 0; rank < p2; ++rank) {
    node_of[rank] = rank < r ? 2 * rank : rank + r;
  }

  // Recursive halving reduce-scatter: each node's owned chunk-run halves
  // every step; it ends owning exactly chunk `rank`.
  // own[rank] = {first chunk, chunk count} of the currently owned run.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> own(
      p2, {0u, p2});
  for (std::uint32_t s = 0; s < levels; ++s) {
    const std::uint32_t mask = p2 >> (s + 1);  // MSB first
    Step& step = sched.add_step("halving 2^" + std::to_string(levels - s - 1));
    step.transfers.reserve(p2);
    for (std::uint32_t rank = 0; rank < p2; ++rank) {
      const std::uint32_t partner = rank ^ mask;
      auto& [first, count] = own[rank];
      const std::uint32_t half = count / 2;
      // Bit set -> keep the upper half of the current run.
      const bool keep_upper = (rank & mask) != 0;
      const std::uint32_t keep_first = keep_upper ? first + half : first;
      const std::uint32_t send_first = keep_upper ? first : first + half;
      const Range send = chunk_run(elements, p2, send_first, half);
      if (send.length > 0) {
        step.transfers.push_back(Transfer{node_of[rank], node_of[partner],
                                          send.offset, send.length,
                                          TransferKind::kReduce,
                                          std::nullopt});
      }
      first = keep_first;
      count = half;
    }
  }

  // Recursive doubling all-gather: reverse order, ranges double.
  for (std::uint32_t s = levels; s-- > 0;) {
    const std::uint32_t mask = p2 >> (s + 1);
    Step& step = sched.add_step("doubling 2^" +
                                std::to_string(levels - s - 1));
    step.transfers.reserve(p2);
    for (std::uint32_t rank = 0; rank < p2; ++rank) {
      const std::uint32_t partner = rank ^ mask;
      auto& [first, count] = own[rank];
      const Range send = chunk_run(elements, p2, first, count);
      if (send.length > 0) {
        step.transfers.push_back(Transfer{node_of[rank], node_of[partner],
                                          send.offset, send.length,
                                          TransferKind::kCopy, std::nullopt});
      }
      // After the exchange both sides own the doubled run.
      const bool keep_upper = (rank & mask) != 0;
      first = keep_upper ? first - count : first;
      count *= 2;
    }
  }

  if (r > 0) {
    Step& step = sched.add_step("post-copy");
    step.transfers.reserve(r);
    for (std::uint32_t i = 1; i < 2 * r; i += 2) {
      step.transfers.push_back(
          Transfer{i - 1, i, 0, elements, TransferKind::kCopy, std::nullopt});
    }
  }
  return sched;
}

std::uint64_t halving_doubling_steps(std::uint32_t num_nodes) {
  require(num_nodes >= 2, "halving_doubling_steps: need >= 2 nodes");
  const std::uint32_t p2 = std::bit_floor(num_nodes);
  const std::uint64_t levels = std::bit_width(p2) - 1;
  return num_nodes == p2 ? 2 * levels : 2 * levels + 2;
}

}  // namespace wrht::coll
