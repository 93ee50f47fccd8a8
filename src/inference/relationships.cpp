#include "inference/relationships.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/dense_index.hpp"
#include "util/hash.hpp"

namespace irp {
namespace {

void insert_sorted(std::vector<Asn>& list, Asn asn) {
  list.insert(std::lower_bound(list.begin(), list.end(), asn), asn);
}

/// Every distinct adjacency of a path set, keyed (smaller ASN << 32 |
/// larger ASN) and sorted ascending, plus the link each path edge crosses.
struct LinkIndex {
  std::vector<std::uint64_t> keys;  ///< Ascending.
  /// Per edge, paths in set order and edges front to back: index into keys.
  std::vector<std::uint32_t> edge_link;
  /// Per link: bit 0 when its smaller ASN relays traffic over it somewhere
  /// (an interior hop next to the larger), bit 1 the same for the larger.
  std::vector<std::uint8_t> transit;

  static std::uint64_t key(Asn a, Asn b) {
    return a < b ? std::uint64_t{a} << 32 | b : std::uint64_t{b} << 32 | a;
  }

  explicit LinkIndex(const PathSet& paths) {
    // Dedup through a hash index, then sort and renumber.
    DenseIndex index;
    auto hash_of = [&](std::uint32_t link) { return mix64(keys[link]); };
    edge_link.reserve(paths.num_hops() - paths.size());
    for (const std::span<const Asn> path : paths)
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const Asn u = path[i], v = path[i + 1];
        const std::uint64_t k = key(u, v);
        const std::uint64_t hash = mix64(k);
        std::uint32_t link =
            index.find(hash, [&](std::uint32_t l) { return keys[l] == k; });
        if (link == DenseIndex::kAbsent) {
          keys.push_back(k);
          transit.push_back(0);
          link = index.insert(hash, hash_of);
        }
        edge_link.push_back(link);
        // u relays at position i unless it is the first hop; v relays at
        // i + 1 unless it is the last.
        if (i >= 1) transit[link] |= u < v ? 1 : 2;
        if (i + 2 < path.size()) transit[link] |= v < u ? 1 : 2;
      }

    std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted(keys.size());
    for (std::uint32_t l = 0; l < sorted.size(); ++l) sorted[l] = {keys[l], l};
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint32_t> rank(keys.size());
    std::vector<std::uint8_t> sorted_transit(keys.size());
    for (std::uint32_t r = 0; r < sorted.size(); ++r) {
      keys[r] = sorted[r].first;
      rank[sorted[r].second] = r;
      sorted_transit[r] = transit[sorted[r].second];
    }
    for (std::uint32_t& link : edge_link) link = rank[link];
    transit.swap(sorted_transit);
  }

  bool contains(Asn a, Asn b) const {
    return std::binary_search(keys.begin(), keys.end(), key(a, b));
  }
};

}  // namespace

void InferredTopology::set(Asn a, Asn b, InferredRel rel) {
  IRP_CHECK(a != b, "self link");
  // Normalize the orientation to the (min, max) key.
  if (a > b) {
    if (rel == InferredRel::kAProviderOfB)
      rel = InferredRel::kBProviderOfA;
    else if (rel == InferredRel::kBProviderOfA)
      rel = InferredRel::kAProviderOfB;
  }
  if (rel_.insert_or_assign(key(a, b), rel).second) {
    insert_sorted(adj_[a], b);
    insert_sorted(adj_[b], a);
  }
}

bool InferredTopology::has_link(Asn a, Asn b) const {
  return rel_.count(key(a, b)) > 0;
}

std::optional<Relationship> InferredTopology::relationship(Asn a,
                                                           Asn b) const {
  auto it = rel_.find(key(a, b));
  if (it == rel_.end()) return std::nullopt;
  switch (it->second) {
    case InferredRel::kPeer:
      return Relationship::kPeer;
    case InferredRel::kAProviderOfB:
      // The smaller ASN is the provider.
      return a < b ? Relationship::kCustomer : Relationship::kProvider;
    case InferredRel::kBProviderOfA:
      return a < b ? Relationship::kProvider : Relationship::kCustomer;
  }
  IRP_UNREACHABLE("unknown inferred relationship");
}

const std::vector<Asn>& InferredTopology::neighbors(Asn asn) const {
  static const std::vector<Asn> kEmpty;
  auto it = adj_.find(asn);
  return it == adj_.end() ? kEmpty : it->second;
}

InferredTopology infer_snapshot(const PathSet& paths,
                                const InferenceConfig& config,
                                std::set<Asn>* clique_out) {
  const LinkIndex links{paths};
  const std::size_t num_links = links.keys.size();
  auto low = [&](std::size_t l) { return Asn(links.keys[l] >> 32); };
  auto high = [&](std::size_t l) { return Asn(links.keys[l] & 0xFFFFFFFFu); };

  // Transit degree: distinct neighbors of an AS over the positions where it
  // relays traffic (not an endpoint). Global (neighbor) degree: distinct
  // neighbors anywhere. Both are per-ASN arrays.
  const std::size_t num_slots = std::size_t(paths.max_asn()) + 1;
  std::vector<std::uint32_t> degree(num_slots, 0);
  std::vector<std::uint32_t> global_degree(num_slots, 0);
  for (std::size_t l = 0; l < num_links; ++l) {
    ++global_degree[low(l)];
    ++global_degree[high(l)];
    if (links.transit[l] & 1) ++degree[low(l)];
    if (links.transit[l] & 2) ++degree[high(l)];
  }

  // --- Clique detection (Luckie-style): consider the top ASes by transit
  // degree and greedily grow a set that is fully meshed in the observed
  // adjacencies — the Tier-1 core peers with everyone in the core, while
  // regional heavyweights do not.
  std::vector<std::pair<std::size_t, Asn>> ranked;
  for (std::size_t asn = 0; asn < num_slots; ++asn)
    if (degree[asn] > 0) ranked.push_back({degree[asn], Asn(asn)});
  std::sort(ranked.begin(), ranked.end(), std::greater<>());
  if (ranked.size() > 3 * std::size_t(config.max_clique_size))
    ranked.resize(3 * std::size_t(config.max_clique_size));

  // Maximum clique among the candidates (Bron-Kerbosch with pivoting): the
  // Tier-1 core is fully meshed, while regional heavyweights buy transit
  // from only a few core members and thus cannot join a large clique.
  std::vector<Asn> candidates;
  for (const auto& [deg, asn] : ranked) candidates.push_back(asn);
  const std::size_t n = candidates.size();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (links.contains(candidates[i], candidates[j]))
        adj[i][j] = adj[j][i] = true;
  std::vector<std::size_t> best_clique;
  std::vector<std::size_t> current;
  // Iterative budget guard: the candidate set is tiny (<=72), but keep a
  // hard cap on explored states for safety.
  std::size_t budget = 200000;
  auto bron_kerbosch = [&](auto&& self, std::vector<std::size_t> p,
                           std::vector<std::size_t> x) -> void {
    if (budget == 0) return;
    --budget;
    if (p.empty() && x.empty()) {
      if (current.size() > best_clique.size()) best_clique = current;
      return;
    }
    if (current.size() + p.size() <= best_clique.size()) return;  // Bound.
    // Pivot: vertex of p ∪ x with most neighbors in p.
    std::size_t pivot = n;
    std::size_t pivot_deg = 0;
    for (const auto& pool : {p, x})
      for (std::size_t u : pool) {
        std::size_t d = 0;
        for (std::size_t v : p)
          if (adj[u][v]) ++d;
        if (pivot == n || d > pivot_deg) {
          pivot = u;
          pivot_deg = d;
        }
      }
    std::vector<std::size_t> ext;
    for (std::size_t v : p)
      if (pivot == n || !adj[pivot][v]) ext.push_back(v);
    for (std::size_t v : ext) {
      std::vector<std::size_t> p2, x2;
      for (std::size_t u : p)
        if (adj[v][u]) p2.push_back(u);
      for (std::size_t u : x)
        if (adj[v][u]) x2.push_back(u);
      current.push_back(v);
      self(self, std::move(p2), std::move(x2));
      current.pop_back();
      p.erase(std::find(p.begin(), p.end(), v));
      x.push_back(v);
    }
  };
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  bron_kerbosch(bron_kerbosch, std::move(all), {});

  if (best_clique.size() < 3) best_clique.clear();  // No meaningful core.
  std::vector<char> in_clique(num_slots, 0);
  for (std::size_t i : best_clique) in_clique[candidates[i]] = 1;
  if (clique_out != nullptr) {
    clique_out->clear();
    for (std::size_t i : best_clique) clique_out->insert(candidates[i]);
  }

  // Global degree decides peer-comparability. Transit degree ranks transit
  // power (apex detection), but a content network with zero transit degree
  // and hundreds of neighbors is still a peering heavyweight.
  auto comparable = [&](Asn a, Asn b) {
    const double da = double(global_degree[a]) + 1.0;
    const double db = double(global_degree[b]) + 1.0;
    const double ratio = da > db ? da / db : db / da;
    return ratio < config.peer_degree_ratio;
  };

  // --- Voting: walk each path over its apex (highest transit degree).
  // A valley-free path has at most one flat (peer) edge, at the top; the
  // apex-adjacent edge whose endpoints have comparable degrees is voted
  // peer, everything else is voted customer-to-provider toward the apex.
  // Per link: c2p votes with the smaller ASN as customer, with the larger
  // as customer, and peer votes.
  std::vector<std::uint32_t> low_buys(num_links, 0);
  std::vector<std::uint32_t> high_buys(num_links, 0);
  std::vector<std::uint32_t> peer_votes(num_links, 0);
  const std::uint32_t* edge = links.edge_link.data();
  for (const std::span<const Asn> path : paths) {
    // Apex: a clique member when the path crosses the core (clique members
    // have no providers, so the path cannot rise above them); otherwise the
    // AS with the highest transit degree.
    std::size_t apex = 0;
    bool apex_in_clique = false;
    for (std::size_t i = 0; i < path.size(); ++i) {
      const bool clique_hop = in_clique[path[i]] != 0;
      if (clique_hop && !apex_in_clique) {
        apex = i;
        apex_in_clique = true;
      } else if (clique_hop == apex_in_clique &&
                 degree[path[i]] > degree[path[apex]]) {
        apex = i;
      }
    }

    // Choose at most one apex-adjacent flat edge: the side with the more
    // comparable degrees wins; ties go to the uphill side.
    std::size_t flat_edge = path.size();  // Index i of edge (i, i+1).
    const bool left_ok = apex > 0 && comparable(path[apex - 1], path[apex]);
    const bool right_ok =
        apex + 1 < path.size() && comparable(path[apex], path[apex + 1]);
    if (left_ok)
      flat_edge = apex - 1;
    else if (right_ok)
      flat_edge = apex;

    for (std::size_t i = 0; i + 1 < path.size(); ++i, ++edge) {
      // Uphill the left hop buys from the right one; downhill the reverse.
      const Asn customer = i + 1 <= apex ? path[i] : path[i + 1];
      const Asn provider = i + 1 <= apex ? path[i + 1] : path[i];
      if (i == flat_edge)
        ++peer_votes[*edge];
      else if (customer < provider)
        ++low_buys[*edge];
      else
        ++high_buys[*edge];
    }
  }

  // --- Settle each observed link, in ascending (a, b) order.
  InferredTopology out;
  for (std::size_t l = 0; l < num_links; ++l) {
    const Asn a = low(l), b = high(l);
    const bool a_clique = in_clique[a] != 0;
    const bool b_clique = in_clique[b] != 0;
    if (a_clique && b_clique) {
      out.set(a, b, InferredRel::kPeer);
      continue;
    }
    // A clique member peers only inside the clique; every other adjacency
    // of a clique member is a customer buying transit (Luckie et al.).
    if (a_clique) {
      out.set(a, b, InferredRel::kAProviderOfB);
      continue;
    }
    if (b_clique) {
      out.set(a, b, InferredRel::kBProviderOfA);
      continue;
    }
    const double ab = double(low_buys[l]);  // a buys from b.
    const double ba = double(high_buys[l]);
    const double pp = double(peer_votes[l]);

    if (pp > std::max(ab, ba)) {
      out.set(a, b, InferredRel::kPeer);
    } else if (ab > config.vote_dominance * ba) {
      out.set(a, b, InferredRel::kBProviderOfA);
    } else if (ba > config.vote_dominance * ab) {
      out.set(a, b, InferredRel::kAProviderOfB);
    } else if (comparable(a, b)) {
      // Conflicting evidence between comparable ASes: call it peering.
      out.set(a, b, InferredRel::kPeer);
    } else if (degree[a] > degree[b]) {
      out.set(a, b, InferredRel::kAProviderOfB);
    } else {
      out.set(a, b, InferredRel::kBProviderOfA);
    }
  }
  return out;
}

InferredTopology aggregate_snapshots(
    const std::vector<InferredTopology>& snapshots) {
  IRP_CHECK(!snapshots.empty(), "no snapshots to aggregate");
  const std::size_t n = snapshots.size();

  // Union of pairs.
  std::set<std::pair<Asn, Asn>> pairs;
  for (const auto& snap : snapshots)
    for (const auto& [pair, _] : snap.links()) pairs.insert(pair);

  InferredTopology out;
  for (const auto& [a, b] : pairs) {
    // Collect per-epoch labels (ascending epochs).
    std::vector<std::optional<InferredRel>> labels;
    for (const auto& snap : snapshots) {
      auto it = snap.links().find({a, b});
      labels.push_back(it == snap.links().end()
                           ? std::nullopt
                           : std::optional<InferredRel>{it->second});
    }
    // §3.3: if the two most recent months agree, use that inference.
    std::optional<InferredRel> chosen;
    if (n >= 2 && labels[n - 1].has_value() && labels[n - 1] == labels[n - 2])
      chosen = labels[n - 1];
    if (!chosen) {
      // Weighted majority, weight = epoch index + 1 (recent months heavier).
      std::map<InferredRel, std::size_t> score;
      for (std::size_t e = 0; e < n; ++e)
        if (labels[e]) score[*labels[e]] += e + 1;
      std::size_t best = 0;
      for (const auto& [rel, s] : score)
        if (s > best) {
          best = s;
          chosen = rel;
        }
    }
    IRP_CHECK(chosen.has_value(), "pair in union without any label");
    out.set(a, b, *chosen);
  }
  return out;
}

}  // namespace irp
