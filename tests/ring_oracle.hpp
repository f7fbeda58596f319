// Reference Ring All-reduce builder for tests: the step loop that adds
// every transfer of every step, as coll::ring_allreduce did before it
// returned a generated schedule. Tests compare the generated schedule with
// it field by field and run it as the generated schedule's materialized
// twin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/collectives/schedule.hpp"

namespace wrht::test {

inline coll::Schedule ring_allreduce_oracle(std::uint32_t num_nodes,
                                            std::size_t elements) {
  using coll::ChunkRange;
  using coll::Step;
  using coll::Transfer;
  using coll::TransferKind;
  coll::Schedule sched("ring", num_nodes, elements);
  const std::uint32_t n = num_nodes;
  sched.reserve_steps(coll::ring_allreduce_steps(n));

  // Reduce-scatter: at step t node i forwards chunk (i - t) mod n to its
  // clockwise neighbour, which accumulates it.
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("reduce-scatter " + std::to_string(t));
    step.transfers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t chunk = (i + n - t % n) % n;
      const ChunkRange r = coll::chunk_range(elements, n, chunk);
      if (r.count == 0) continue;
      step.transfers.push_back(Transfer{
          i, (i + 1) % n, r.offset, r.count, TransferKind::kReduce,
          topo::Direction::kClockwise});
    }
  }

  // All-gather: at step t node i forwards its completed chunk
  // (i + 1 - t) mod n to its clockwise neighbour, which overwrites.
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("all-gather " + std::to_string(t));
    step.transfers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t chunk = (i + 1 + n - t % n) % n;
      const ChunkRange r = coll::chunk_range(elements, n, chunk);
      if (r.count == 0) continue;
      step.transfers.push_back(Transfer{
          i, (i + 1) % n, r.offset, r.count, TransferKind::kCopy,
          topo::Direction::kClockwise});
    }
  }
  return sched;
}

}  // namespace wrht::test
