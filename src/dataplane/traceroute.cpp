#include "dataplane/traceroute.hpp"

#include <algorithm>
#include <limits>

#include "geo/world.hpp"
#include "util/check.hpp"

namespace irp {

TracerouteSim::TracerouteSim(const Topology* topo, const BgpEngine* engine)
    : topo_(topo), engine_(engine) {
  IRP_CHECK(topo_ != nullptr && engine_ != nullptr,
            "traceroute sim requires topology and engine");
}

TracerouteHop TracerouteSim::ingress_hop(Asn asn, const Link& via_link) const {
  const AsNode& node = topo_->as_node(asn);
  // The border router answering the probe sits at the PoP closest to the
  // interconnection city (hot-potato ingress).
  const PointOfPresence* best = &node.pops.front();
  // Note: distances need the world; approximate with city equality first.
  for (const auto& pop : node.pops) {
    if (pop.city == via_link.city) {
      best = &pop;
      break;
    }
  }
  TracerouteHop hop;
  // Interface index derived from the link id keeps addresses distinct and
  // deterministic per adjacency.
  hop.address = best->router_prefix.address_at(1 + via_link.id % 250);
  hop.truth_asn = asn;
  hop.truth_city = best->city;
  return hop;
}

std::optional<Traceroute> TracerouteSim::run(
    Asn src_asn, Ipv4Addr src_address, Ipv4Addr dst_address,
    const Ipv4Prefix& dst_prefix) const {
  IRP_CHECK(dst_prefix.contains(dst_address),
            "destination address not in destination prefix");

  Traceroute tr;
  tr.src_asn = src_asn;
  tr.src_address = src_address;
  tr.dst_address = dst_address;
  tr.dst_prefix = dst_prefix;

  Asn current = src_asn;
  // Destination-based forwarding cannot loop in a converged BGP state, but
  // path-dependent policies (e.g. domestic preference) can oscillate and
  // leave transiently inconsistent state — real traceroutes observe such
  // loops too. The traceroute simply fails to reach the destination. The
  // ASes visited so far are the source and the hops' ASes (at most 64), so
  // a linear search of tr.hops beats a per-call visited set.
  auto visited = [&](Asn asn) {
    return asn == src_asn ||
           std::any_of(tr.hops.begin(), tr.hops.end(),
                       [asn](const TracerouteHop& h) {
                         return h.truth_asn == asn;
                       });
  };
  for (int ttl = 0; ttl < 64; ++ttl) {
    const BgpEngine::Selected* sel = engine_->best(current, dst_prefix);
    if (sel == nullptr) {
      if (current == src_asn) return std::nullopt;  // No route at the probe.
      return tr;  // Path died mid-way: unreached traceroute.
    }
    if (sel->self_originated) {
      // Arrived at the origin AS: the destination host answers.
      tr.hops.push_back(TracerouteHop{dst_address, current, 0});
      tr.reached = true;
      return tr;
    }
    const Link& link = topo_->link(sel->via_link);
    const Asn next = sel->next_hop;
    if (visited(next)) return tr;  // Forwarding loop: probe expires.
    tr.hops.push_back(ingress_hop(next, link));
    current = next;
  }
  return tr;  // TTL exhausted.
}

std::vector<Asn> TracerouteSim::forwarding_path(
    Asn src_asn, const Ipv4Prefix& dst_prefix) const {
  std::vector<Asn> path;
  forwarding_path(src_asn, dst_prefix, path);
  return path;
}

void TracerouteSim::forwarding_path(Asn src_asn, const Ipv4Prefix& dst_prefix,
                                    std::vector<Asn>& path) const {
  path.clear();
  Asn current = src_asn;
  for (int ttl = 0; ttl < 64; ++ttl) {
    const BgpEngine::Selected* sel = engine_->best(current, dst_prefix);
    // A dead end or a forwarding loop leaves no usable path. The path has
    // at most 64 hops, so a linear search beats a per-call visited set.
    if (sel == nullptr ||
        std::find(path.begin(), path.end(), current) != path.end())
      break;
    path.push_back(current);
    if (sel->self_originated) return;
    current = sel->next_hop;
  }
  path.clear();  // Unrouted, looping or out of hops.
}

}  // namespace irp
