// The one 64-bit integer finalizer behind the library's hash functions.
//
// Prefix hashing (Ipv4PrefixHash), the classify cache key and the ground
// truth's per-link partial-transit choice all mix through mix64. Its values
// are part of the study, not only of hash-table layout: the policy reads the
// low bit of one mix64 per (prefix, link), so the constants must not change.
#pragma once

#include <cstdint>

namespace irp {

/// MurmurHash3's fmix64: a bijective avalanche of all 64 input bits.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace irp
