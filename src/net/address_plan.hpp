// Address-space allocation for the synthetic Internet.
//
// Each AS receives one or more disjoint prefixes out of a global pool;
// router interface addresses and end-host addresses are carved from them.
// Keeping allocation centralized guarantees global disjointness, which the
// IP-to-AS conversion step relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.hpp"
#include "util/check.hpp"

namespace irp {

/// Hands out disjoint IPv4 prefixes of requested lengths from a base pool.
class AddressPlan {
 public:
  /// Allocates from `pool` (e.g. 10.0.0.0/8 for a simulated Internet).
  explicit AddressPlan(Ipv4Prefix pool);

  /// Allocates the next free prefix of exactly `length` bits.
  /// Throws CheckError when the pool is exhausted.
  Ipv4Prefix allocate(int length);

  const Ipv4Prefix& pool() const { return pool_; }

 private:
  Ipv4Prefix pool_;
  std::uint64_t cursor_ = 0;  ///< Offset of the next unallocated address.
};

}  // namespace irp
