// Data-plane forwarding and traceroute emission.
//
// Forwarding is destination-based: each AS forwards toward the BGP next hop
// it selected for the destination's covering prefix. A traceroute records
// one router hop per AS boundary, using an address from the AS's point of
// presence nearest to the ingress link — so hop addresses geolocate and map
// back to ASes the way real traceroutes do.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bgp/engine.hpp"
#include "net/ipv4.hpp"
#include "topo/topology.hpp"

namespace irp {

/// One traceroute hop: the emitting address plus ground-truth annotations
/// (the analyses must not use the annotations; they exist for tests).
struct TracerouteHop {
  Ipv4Addr address;
  Asn truth_asn = 0;       ///< Ground truth: AS owning the address.
  CityId truth_city = 0;   ///< Ground truth: city of the router.
};

/// A completed traceroute measurement.
struct Traceroute {
  Asn src_asn = 0;             ///< Ground truth probe AS (tests only).
  Ipv4Addr src_address;
  Ipv4Addr dst_address;
  Ipv4Prefix dst_prefix;       ///< Covering announced prefix of the target.
  std::string hostname;        ///< Target DNS name (passive campaign).
  std::vector<TracerouteHop> hops;  ///< Excludes the source address.
  bool reached = false;        ///< True if the destination answered.
};

/// Simulates traceroutes over a converged BGP engine.
class TracerouteSim {
 public:
  TracerouteSim(const Topology* topo, const BgpEngine* engine);

  /// Runs a traceroute from `src_asn` toward `dst_address`, which must be
  /// covered by the announced `dst_prefix`. Returns nullopt when the source
  /// has no route at all.
  std::optional<Traceroute> run(Asn src_asn, Ipv4Addr src_address,
                                Ipv4Addr dst_address,
                                const Ipv4Prefix& dst_prefix) const;

  /// Ground-truth AS-level forwarding path from `src_asn` for `dst_prefix`
  /// (including the source, ending at the AS that originates the prefix).
  /// Empty when unrouted. Used by tests and the active experiments.
  std::vector<Asn> forwarding_path(Asn src_asn,
                                   const Ipv4Prefix& dst_prefix) const;

  /// The same path written into `path` (cleared first), so a caller that
  /// walks many sources can reuse one buffer.
  void forwarding_path(Asn src_asn, const Ipv4Prefix& dst_prefix,
                       std::vector<Asn>& path) const;

 private:
  /// Router address of `asn` for a packet arriving over `via_link`.
  TracerouteHop ingress_hop(Asn asn, const Link& via_link) const;

  const Topology* topo_;
  const BgpEngine* engine_;
};

}  // namespace irp
