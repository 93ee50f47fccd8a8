#include "bgp/policy.hpp"

#include "util/check.hpp"
#include "util/hash.hpp"

namespace irp {

GroundTruthPolicy::GroundTruthPolicy(const Topology* topo, PolicyConfig config)
    : topo_(topo), config_(config) {
  IRP_CHECK(topo_ != nullptr, "policy requires a topology");
}

int GroundTruthPolicy::local_pref_base(Asn self, const Link& link) const {
  const AsNode& node = topo_->as_node(self);
  const Relationship rel = topo_->relationship_from(link, self);

  int base = 0;
  if (node.flat_local_pref) {
    base = config_.lp_flat;
  } else {
    switch (rel) {
      case Relationship::kCustomer: base = config_.lp_customer; break;
      case Relationship::kSibling:  base = config_.lp_sibling; break;
      case Relationship::kPeer:     base = config_.lp_peer; break;
      case Relationship::kProvider: base = config_.lp_provider; break;
    }
  }
  return base + topo_->lp_delta_from(link, self);
}

int GroundTruthPolicy::local_pref(Asn self, const Link& link,
                                  const AsPath& path) const {
  int pref = local_pref_base(self, link);
  if (topo_->as_node(self).prefers_domestic && path_is_domestic(self, path))
    pref += config_.domestic_bonus;
  return pref;
}

int GroundTruthPolicy::local_pref(Asn self, const Link& link,
                                  const PathTable& table, PathId path) const {
  int pref = local_pref_base(self, link);
  if (topo_->as_node(self).prefers_domestic &&
      path_is_domestic(self, table, path))
    pref += config_.domestic_bonus;
  return pref;
}

bool GroundTruthPolicy::path_is_domestic(Asn self, const AsPath& path) const {
  const CountryId home = topo_->as_node(self).home_country;
  for (Asn asn : path.hops)
    if (topo_->as_node(asn).home_country != home) return false;
  return true;
}

bool GroundTruthPolicy::path_is_domestic(Asn self, const PathTable& table,
                                         PathId path) const {
  const CountryId home = topo_->as_node(self).home_country;
  return table.all_of_hops(path, [&](Asn asn) {
    return topo_->as_node(asn).home_country == home;
  });
}

bool GroundTruthPolicy::export_ok(Asn self,
                                  std::optional<Relationship> learned_rel,
                                  const Link& out_link,
                                  const Ipv4Prefix& prefix) const {
  const Relationship out_rel = topo_->relationship_from(out_link, self);

  // Gao-Rexford export rule with sibling transparency: routes learned from
  // customers or siblings (or originated here) go to everyone; routes
  // learned from peers or providers go only to customers and siblings.
  const bool route_is_ours =
      !learned_rel.has_value() || *learned_rel == Relationship::kCustomer ||
      *learned_rel == Relationship::kSibling;
  if (!route_is_ours && out_rel != Relationship::kCustomer &&
      out_rel != Relationship::kSibling)
    return false;

  // Partial transit (§4.1): a provider on a partial-transit link serves the
  // customer only for a subset of prefixes.
  if (out_rel == Relationship::kCustomer && out_link.partial_transit &&
      !partial_transit_serves(prefix, out_link))
    return false;

  return true;
}

bool GroundTruthPolicy::partial_transit_serves(const Ipv4Prefix& prefix,
                                               const Link& link) {
  const std::uint64_t h =
      mix64((std::uint64_t{prefix.network().value()} << 16) ^
            (std::uint64_t{link.id} * 0x9e3779b97f4a7c15ULL));
  return (h & 1) == 0;
}

}  // namespace irp
