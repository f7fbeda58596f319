#include "wrht/collectives/btree_allreduce.hpp"

#include "wrht/common/error.hpp"

namespace wrht::coll {

std::uint32_t ceil_log2(std::uint64_t n) {
  require(n >= 1, "ceil_log2: n must be positive");
  std::uint32_t bits = 0;
  std::uint64_t v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

Schedule btree_allreduce(std::uint32_t num_nodes, std::size_t elements) {
  require(num_nodes >= 2, "btree_allreduce: need at least 2 nodes");
  Schedule sched("btree", num_nodes, elements);
  const std::uint32_t levels = ceil_log2(num_nodes);
  sched.reserve_steps(btree_allreduce_steps(num_nodes));
  // Level s pairs every multiple p of 2^s with p + 2^(s-1) < num_nodes.
  auto level_transfers = [&](std::uint32_t s) {
    const std::uint64_t stride = 1ull << s;
    const std::uint64_t half = stride / 2;
    return static_cast<std::size_t>((num_nodes - half + stride - 1) / stride);
  };

  // Reduce: at level s, node p + 2^(s-1) folds its partial into node p for
  // every p that is a multiple of 2^s.
  for (std::uint32_t s = 1; s <= levels; ++s) {
    Step& step = sched.add_step("reduce level " + std::to_string(s));
    step.transfers.reserve(level_transfers(s));
    const std::uint64_t stride = 1ull << s;
    const std::uint64_t half = 1ull << (s - 1);
    for (std::uint64_t p = 0; p < num_nodes; p += stride) {
      const std::uint64_t q = p + half;
      if (q >= num_nodes) continue;
      step.transfers.push_back(Transfer{
          static_cast<NodeId>(q), static_cast<NodeId>(p), 0, elements,
          TransferKind::kReduce, std::nullopt});
    }
  }

  // Broadcast: reverse of the reduce stage.
  for (std::uint32_t s = levels; s >= 1; --s) {
    Step& step = sched.add_step("broadcast level " + std::to_string(s));
    step.transfers.reserve(level_transfers(s));
    const std::uint64_t stride = 1ull << s;
    const std::uint64_t half = 1ull << (s - 1);
    for (std::uint64_t p = 0; p < num_nodes; p += stride) {
      const std::uint64_t q = p + half;
      if (q >= num_nodes) continue;
      step.transfers.push_back(Transfer{
          static_cast<NodeId>(p), static_cast<NodeId>(q), 0, elements,
          TransferKind::kCopy, std::nullopt});
    }
  }
  return sched;
}

std::uint64_t btree_allreduce_steps(std::uint32_t num_nodes) {
  return 2ull * ceil_log2(num_nodes);
}

}  // namespace wrht::coll
