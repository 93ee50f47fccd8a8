// IPv4 addresses and prefixes.
//
// The data-plane simulator emits real IPv4 hop addresses (from per-AS address
// plans) so that IP-to-AS conversion, geolocation lookup, and prefix-specific
// policies work over the same artifacts the paper's pipeline consumed.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/hash.hpp"

namespace irp {

/// An IPv4 address as a host-order 32-bit integer.
class Ipv4Addr {
 public:
  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t value) : value_(value) {}
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | d) {}

  constexpr std::uint32_t value() const { return value_; }

  /// Parses dotted-quad notation; nullopt on malformed input.
  static std::optional<Ipv4Addr> parse(std::string_view text);

  /// Dotted-quad rendering, e.g. "192.0.2.1".
  std::string to_string() const;

  friend constexpr auto operator<=>(Ipv4Addr, Ipv4Addr) = default;

 private:
  std::uint32_t value_ = 0;
};

/// An IPv4 prefix (network address + length). The network address is always
/// stored canonically, i.e. with host bits zeroed.
class Ipv4Prefix {
 public:
  constexpr Ipv4Prefix() = default;

  /// Builds a prefix; host bits of `network` are masked off.
  Ipv4Prefix(Ipv4Addr network, int length);

  /// Parses "a.b.c.d/len"; nullopt on malformed input.
  static std::optional<Ipv4Prefix> parse(std::string_view text);

  Ipv4Addr network() const { return network_; }
  int length() const { return length_; }

  /// Netmask as an address, e.g. /24 -> 255.255.255.0.
  Ipv4Addr netmask() const;

  /// Number of addresses covered (2^(32-length)).
  std::uint64_t size() const { return std::uint64_t{1} << (32 - length_); }

  /// True if `addr` falls inside this prefix.
  bool contains(Ipv4Addr addr) const;

  /// True if `other` is fully covered by this prefix.
  bool contains(const Ipv4Prefix& other) const;

  /// The i-th address inside the prefix (i < size()).
  Ipv4Addr address_at(std::uint64_t i) const;

  /// The two halves of this prefix; requires length() < 32.
  std::pair<Ipv4Prefix, Ipv4Prefix> split() const;

  /// "a.b.c.d/len".
  std::string to_string() const;

  friend auto operator<=>(const Ipv4Prefix&, const Ipv4Prefix&) = default;

 private:
  Ipv4Addr network_{};
  int length_ = 0;
};

/// Hash functor for prefix-keyed unordered containers. Mixes the network
/// address and length through mix64 so dense address plans (consecutive
/// /24s differ only in a few middle bits) still spread evenly.
struct Ipv4PrefixHash {
  std::size_t operator()(const Ipv4Prefix& p) const {
    return static_cast<std::size_t>(mix64(
        (std::uint64_t{p.network().value()} << 8) | std::uint64_t(p.length())));
  }
};

}  // namespace irp
