#include "wrht/net/pattern_key.hpp"

#include <algorithm>

namespace wrht::net {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// One FNV-1a round over the eight bytes of `key`.
std::uint64_t mix(std::uint64_t h, std::uint64_t key) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (key >> (8 * byte)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t circuit_bits(const coll::Circuit& c) {
  return (static_cast<std::uint64_t>(c.src) << 34) ^
         (static_cast<std::uint64_t>(c.dst) << 4) ^ c.direction;
}

coll::Circuit keyed_circuit(const coll::Transfer& t, bool include_direction) {
  coll::Circuit c = coll::circuit_of(t);
  if (!include_direction) c.direction = 0;
  return c;
}

}  // namespace

std::size_t PatternKeyHash::operator()(const PatternKey& key) const {
  // Word-wise FNV-1a: the hash only picks a bucket.
  std::uint64_t h = (kFnvBasis ^ key.structure) * kFnvPrime;
  for (const coll::Circuit& c : key.circuits) {
    h = (h ^ circuit_bits(c)) * kFnvPrime;
  }
  return static_cast<std::size_t>(h ^ (h >> 32));
}

void make_pattern_key(std::span<const coll::Transfer> transfers,
                      bool include_direction, PatternKey& key) {
  key.structure = 0;
  key.circuits.clear();
  for (const coll::Transfer& t : transfers) {
    key.circuits.push_back(keyed_circuit(t, include_direction));
  }
}

void make_route_key(const coll::StepView& view, PatternKey& key) {
  if (view.step() != nullptr) {
    make_pattern_key(view.step()->transfers, true, key);
    return;
  }
  key.structure = view.structure();
  key.circuits.clear();
}

std::uint64_t step_signature(const coll::Step& step, bool include_direction) {
  std::uint64_t h = kFnvBasis;
  std::size_t max_count = 0;
  for (const auto& t : step.transfers) {
    h = mix(h, circuit_bits(keyed_circuit(t, include_direction)));
    max_count = std::max(max_count, t.count);
  }
  return mix(h, 0x8000'0000'0000'0000ull | max_count);
}

}  // namespace wrht::net
