#include "wrht/collectives/ring_allreduce.hpp"

#include "wrht/common/error.hpp"

namespace wrht::coll {

Schedule ring_allreduce(std::uint32_t num_nodes, std::size_t elements) {
  require(num_nodes >= 2, "ring_allreduce: need at least 2 nodes");
  require(elements >= num_nodes,
          "ring_allreduce: need at least one element per chunk");
  const std::uint32_t n = num_nodes;
  RotatedSteps rule;
  rule.base.reserve(n);
  rule.chunks.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    rule.base.push_back(circuit_of(Transfer{
        i, (i + 1) % n, 0, 0, TransferKind::kReduce,
        topo::Direction::kClockwise}));
    rule.chunks.push_back(chunk_range(elements, n, i));
  }
  // Reduce-scatter: at step t node i forwards chunk (i - t) mod n to its
  // clockwise neighbour, which accumulates it. After n-1 steps node i fully
  // owns chunk (i + 1) mod n. All-gather: at step t node i forwards its
  // completed chunk (i + 1 - t) mod n to its clockwise neighbour, which
  // overwrites.
  rule.phases = {{"reduce-scatter", TransferKind::kReduce, n - 1, 0},
                 {"all-gather", TransferKind::kCopy, n - 1, 1}};
  return Schedule("ring", num_nodes, elements, std::move(rule));
}

std::uint64_t ring_allreduce_steps(std::uint32_t num_nodes) {
  require(num_nodes >= 1, "ring_allreduce_steps: empty system");
  return 2ull * (num_nodes - 1);
}

}  // namespace wrht::coll
