// Classic Ring All-reduce: a reduce-scatter pass followed by an all-gather
// pass, 2(N-1) steps total, d/N payload per step (Baidu/Horovod style).
// On the optical ring every step uses a single wavelength: all N concurrent
// neighbour transfers occupy disjoint fiber segments.
#pragma once

#include <cstddef>
#include <cstdint>

#include "wrht/collectives/schedule.hpp"

namespace wrht::coll {

/// Builds the Ring All-reduce schedule for `num_nodes` nodes reducing a
/// vector of `elements` elements. Requires num_nodes >= 2 and
/// elements >= num_nodes (each node owns at least one chunk element). The
/// schedule is generated: one neighbour pattern rotated over the chunk
/// table, O(N) memory until something asks for steps().
[[nodiscard]] Schedule ring_allreduce(std::uint32_t num_nodes,
                                      std::size_t elements);

/// Closed-form step count: 2(N-1).
[[nodiscard]] std::uint64_t ring_allreduce_steps(std::uint32_t num_nodes);

}  // namespace wrht::coll
