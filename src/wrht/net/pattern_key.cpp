#include "wrht/net/pattern_key.hpp"

#include <algorithm>

namespace wrht::net {

namespace {

/// One FNV-1a round over the eight bytes of `key`.
std::uint64_t mix(std::uint64_t h, std::uint64_t key) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (key >> (8 * byte)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t transfer_key(const coll::Transfer& t, bool include_direction) {
  std::uint64_t dir_bits = 0;
  if (include_direction && t.direction) {
    dir_bits = *t.direction == topo::Direction::kClockwise ? 1 : 2;
  }
  return (static_cast<std::uint64_t>(t.src) << 34) ^
         (static_cast<std::uint64_t>(t.dst) << 4) ^ dir_bits;
}

}  // namespace

std::uint64_t step_signature(const coll::Step& step, bool include_direction) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t max_count = 0;
  for (const auto& t : step.transfers) {
    h = mix(h, transfer_key(t, include_direction));
    max_count = std::max(max_count, t.count);
  }
  return mix(h, 0x8000'0000'0000'0000ull | max_count);
}

}  // namespace wrht::net
