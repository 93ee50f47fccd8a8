#include "inference/bgp_observations.hpp"

#include <algorithm>

namespace irp {

void BgpObservations::ingest(std::span<const FeedEntry> feed) {
  for (const FeedEntry& e : feed) {
    if (!e.path.poison_set.empty()) continue;
    const auto& hops = e.path.hops;
    if (hops.size() < 2) continue;
    add(hops.back(), hops[hops.size() - 2], e.prefix);
  }
}

void BgpObservations::add(Asn origin, Asn neighbor, const Ipv4Prefix& prefix) {
  const std::uint64_t key = pack(origin, neighbor);
  per_prefix_[prefix].insert(key);
  any_prefix_.insert(key);
}

bool BgpObservations::announced(Asn origin, Asn neighbor,
                                const Ipv4Prefix& prefix) const {
  auto it = per_prefix_.find(prefix);
  return it != per_prefix_.end() && it->second.count(pack(origin, neighbor)) > 0;
}

bool BgpObservations::announced_any(Asn origin, Asn neighbor) const {
  return any_prefix_.count(pack(origin, neighbor)) > 0;
}

bool BgpObservations::announced_by(Asn origin,
                                   const Ipv4Prefix& prefix) const {
  auto it = per_prefix_.find(prefix);
  if (it == per_prefix_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [origin](std::uint64_t key) {
                       return static_cast<Asn>(key >> 32) == origin;
                     });
}

std::set<Asn> BgpObservations::neighbors_for(Asn origin,
                                             const Ipv4Prefix& prefix) const {
  std::set<Asn> out;
  auto it = per_prefix_.find(prefix);
  if (it == per_prefix_.end()) return out;
  for (std::uint64_t key : it->second)
    if (static_cast<Asn>(key >> 32) == origin)
      out.insert(static_cast<Asn>(key & 0xFFFFFFFFu));
  return out;
}

std::vector<std::pair<Ipv4Prefix, std::vector<std::pair<Asn, Asn>>>>
BgpObservations::export_sorted() const {
  std::vector<std::pair<Ipv4Prefix, std::vector<std::pair<Asn, Asn>>>> out;
  out.reserve(per_prefix_.size());
  for (const auto& [prefix, keys] : per_prefix_) {
    std::vector<std::pair<Asn, Asn>> pairs;
    pairs.reserve(keys.size());
    for (std::uint64_t key : keys)
      pairs.emplace_back(static_cast<Asn>(key >> 32),
                         static_cast<Asn>(key & 0xFFFFFFFFu));
    std::sort(pairs.begin(), pairs.end());
    out.emplace_back(prefix, std::move(pairs));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace irp
