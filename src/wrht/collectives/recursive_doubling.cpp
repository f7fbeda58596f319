#include "wrht/collectives/recursive_doubling.hpp"

#include <bit>
#include <vector>

#include "wrht/common/error.hpp"

namespace wrht::coll {

namespace {

/// Largest power of two <= n.
std::uint32_t floor_pow2(std::uint32_t n) { return std::bit_floor(n); }

}  // namespace

Schedule recursive_doubling_allreduce(std::uint32_t num_nodes,
                                      std::size_t elements) {
  require(num_nodes >= 2, "recursive_doubling: need at least 2 nodes");
  Schedule sched("recursive_doubling", num_nodes, elements);

  const std::uint32_t p2 = floor_pow2(num_nodes);
  const std::uint32_t r = num_nodes - p2;
  sched.reserve_steps(recursive_doubling_steps(num_nodes));

  // Pre-fold: odd nodes below 2r merge into their even neighbour so exactly
  // p2 participants remain: the even nodes below 2r plus all nodes >= 2r.
  if (r > 0) {
    Step& step = sched.add_step("pre-fold");
    step.transfers.reserve(r);
    for (std::uint32_t i = 1; i < 2 * r; i += 2) {
      step.transfers.push_back(Transfer{i, i - 1, 0, elements,
                                        TransferKind::kReduce, std::nullopt});
    }
  }

  // Participant rank -> node id.
  std::vector<NodeId> node_of(p2);
  for (std::uint32_t rank = 0; rank < p2; ++rank) {
    node_of[rank] = rank < r ? 2 * rank : rank + r;
  }

  const std::uint32_t levels = std::bit_width(p2) - 1;
  for (std::uint32_t s = 0; s < levels; ++s) {
    Step& step = sched.add_step("exchange 2^" + std::to_string(s));
    step.transfers.reserve(p2);
    for (std::uint32_t rank = 0; rank < p2; ++rank) {
      const std::uint32_t partner = rank ^ (1u << s);
      // Emit each directed transfer once; both directions happen in-step.
      step.transfers.push_back(Transfer{node_of[rank], node_of[partner], 0,
                                        elements, TransferKind::kReduce,
                                        std::nullopt});
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

std::uint64_t recursive_doubling_steps(std::uint32_t num_nodes) {
  require(num_nodes >= 2, "recursive_doubling_steps: need >= 2 nodes");
  const std::uint32_t p2 = floor_pow2(num_nodes);
  const std::uint64_t levels = std::bit_width(p2) - 1;
  return num_nodes == p2 ? levels : levels + 2;
}

}  // namespace wrht::coll
