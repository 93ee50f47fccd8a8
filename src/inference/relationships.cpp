#include "inference/relationships.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace irp {
namespace {

std::pair<Asn, Asn> unordered(Asn a, Asn b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

void insert_sorted(std::vector<Asn>& list, Asn asn) {
  list.insert(std::lower_bound(list.begin(), list.end(), asn), asn);
}

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

std::map<Asn, std::size_t> transit_degrees(
    const std::set<std::vector<Asn>>& paths) {
  std::map<Asn, std::set<Asn>> transit_neighbors;
  for (const auto& path : paths) {
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      transit_neighbors[path[i]].insert(path[i - 1]);
      transit_neighbors[path[i]].insert(path[i + 1]);
    }
  }
  std::map<Asn, std::size_t> out;
  for (const auto& [asn, nbrs] : transit_neighbors) out[asn] = nbrs.size();
  return out;
}

InferredTopology infer_snapshot(const std::set<std::vector<Asn>>& paths,
                                const InferenceConfig& config,
                                std::set<Asn>* clique_out) {
  const auto degrees = transit_degrees(paths);
  auto degree_of = [&](Asn asn) -> std::size_t {
    auto it = degrees.find(asn);
    return it == degrees.end() ? 0 : it->second;
  };

  // --- Clique detection (Luckie-style): consider the top ASes by transit
  // degree and greedily grow a set that is fully meshed in the observed
  // adjacencies — the Tier-1 core peers with everyone in the core, while
  // regional heavyweights do not.
  std::set<std::pair<Asn, Asn>> adjacency;
  for (const auto& path : paths)
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      adjacency.insert(unordered(path[i], path[i + 1]));

  std::vector<std::pair<std::size_t, Asn>> ranked;
  for (const auto& [asn, deg] : degrees) ranked.push_back({deg, asn});
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
      if (adjacency.count(unordered(candidates[i], candidates[j])))
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

  std::set<Asn> clique;
  for (std::size_t i : best_clique) clique.insert(candidates[i]);
  if (clique.size() < 3) clique.clear();  // No meaningful core found.
  if (clique_out != nullptr) *clique_out = clique;

  // Global (neighbor) degree: used for peer-comparability. Transit degree
  // ranks transit power (apex detection), but a content network with zero
  // transit degree and hundreds of neighbors is still a peering heavyweight.
  std::map<Asn, std::set<Asn>> neighbor_sets;
  for (const auto& path : paths)
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      neighbor_sets[path[i]].insert(path[i + 1]);
      neighbor_sets[path[i + 1]].insert(path[i]);
    }
  auto global_degree_of = [&](Asn asn) -> std::size_t {
    auto it = neighbor_sets.find(asn);
    return it == neighbor_sets.end() ? 0 : it->second.size();
  };
  auto comparable = [&](Asn a, Asn b) {
    const double da = double(global_degree_of(a)) + 1.0;
    const double db = double(global_degree_of(b)) + 1.0;
    const double ratio = da > db ? da / db : db / da;
    return ratio < config.peer_degree_ratio;
  };

  // --- Voting: walk each path over its apex (highest transit degree).
  // A valley-free path has at most one flat (peer) edge, at the top; the
  // apex-adjacent edge whose endpoints have comparable degrees is voted
  // peer, everything else is voted customer-to-provider toward the apex.
  std::map<std::pair<Asn, Asn>, std::size_t> c2p_votes;  // (customer, provider)
  std::map<std::pair<Asn, Asn>, std::size_t> peer_votes;  // Unordered key.
  std::set<std::pair<Asn, Asn>> seen_links;
  for (const auto& path : paths) {
    // Apex: a clique member when the path crosses the core (clique members
    // have no providers, so the path cannot rise above them); otherwise the
    // AS with the highest transit degree.
    std::size_t apex = 0;
    bool apex_in_clique = false;
    for (std::size_t i = 0; i < path.size(); ++i) {
      const bool in_clique = clique.count(path[i]) > 0;
      if (in_clique && !apex_in_clique) {
        apex = i;
        apex_in_clique = true;
      } else if (in_clique == apex_in_clique &&
                 degree_of(path[i]) > degree_of(path[apex])) {
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

    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      seen_links.insert(unordered(path[i], path[i + 1]));
      if (i == flat_edge) {
        ++peer_votes[unordered(path[i], path[i + 1])];
      } else if (i + 1 <= apex) {
        ++c2p_votes[{path[i], path[i + 1]}];  // Uphill: left buys from right.
      } else {
        ++c2p_votes[{path[i + 1], path[i]}];  // Downhill.
      }
    }
  }

  // --- Settle each observed link.
  InferredTopology out;
  for (const auto& [a, b] : seen_links) {
    const bool a_clique = clique.count(a) > 0;
    const bool b_clique = clique.count(b) > 0;
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
    auto votes_of = [](const auto& map, std::pair<Asn, Asn> key) {
      auto it = map.find(key);
      return it == map.end() ? std::size_t{0} : it->second;
    };
    const double ab = double(votes_of(c2p_votes, {a, b}));  // a buys from b.
    const double ba = double(votes_of(c2p_votes, {b, a}));
    const double pp = double(votes_of(peer_votes, {a, b}));

    if (pp > std::max(ab, ba)) {
      out.set(a, b, InferredRel::kPeer);
    } else if (ab > config.vote_dominance * ba) {
      out.set(a, b, InferredRel::kBProviderOfA);
    } else if (ba > config.vote_dominance * ab) {
      out.set(a, b, InferredRel::kAProviderOfB);
    } else if (comparable(a, b)) {
      // Conflicting evidence between comparable ASes: call it peering.
      out.set(a, b, InferredRel::kPeer);
    } else if (degree_of(a) > degree_of(b)) {
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
