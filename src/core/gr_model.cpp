#include "core/gr_model.hpp"

#include <deque>
#include <queue>

#include "util/check.hpp"

namespace irp {

std::size_t GrPathSet::length_via(Asn asn, Relationship first_hop_class) const {
  IRP_CHECK(asn < cust_.size(), "ASN out of range");
  switch (first_hop_class) {
    case Relationship::kCustomer:
    case Relationship::kSibling:
      return cust_[asn];
    case Relationship::kPeer:
      return peer_[asn];
    case Relationship::kProvider:
      return prov_[asn];
  }
  IRP_UNREACHABLE("unknown relationship class");
}

std::optional<Relationship> GrPathSet::best_class(Asn asn) const {
  IRP_CHECK(asn < cust_.size(), "ASN out of range");
  if (cust_[asn] != kUnreachable) return Relationship::kCustomer;
  if (peer_[asn] != kUnreachable) return Relationship::kPeer;
  if (prov_[asn] != kUnreachable) return Relationship::kProvider;
  return std::nullopt;
}

std::size_t GrPathSet::shortest_length(Asn asn) const {
  IRP_CHECK(asn < cust_.size(), "ASN out of range");
  return std::min({cust_[asn], peer_[asn], prov_[asn]});
}

std::vector<Asn> GrPathSet::witness_shortest(Asn asn) const {
  if (asn == dest_) return {};
  if (shortest_length(asn) == kUnreachable) return {};
  std::vector<Asn> path;
  Asn cur = asn;
  bool customer_only = false;
  while (cur != dest_) {
    Asn next = 0;
    if (customer_only) {
      next = cust_parent_[cur];
    } else {
      const std::size_t c = cust_[cur], p = peer_[cur], v = prov_[cur];
      const std::size_t m = std::min({c, p, v});
      IRP_CHECK(m != kUnreachable, "witness walk hit unreachable node");
      if (c == m) {
        next = cust_parent_[cur];
        customer_only = true;
      } else if (p == m) {
        next = peer_parent_[cur];
        customer_only = true;
      } else {
        next = prov_parent_[cur];
        // After an up hop, any class is allowed again at the provider.
      }
    }
    IRP_CHECK(next != 0, "missing witness parent");
    path.push_back(next);
    IRP_CHECK(path.size() <= cust_.size(), "witness walk does not terminate");
    cur = next;
  }
  return path;
}

GrModel::GrModel(const InferredTopology* topo, std::size_t num_ases)
    : topo_(topo), num_ases_(num_ases) {
  IRP_CHECK(topo_ != nullptr, "GrModel requires a topology");
  adj_.resize(num_ases_ + 1);
  for (const auto& [pair, rel] : topo_->links()) {
    const auto [a, b] = pair;
    if (a > num_ases_ || b > num_ases_ || a == 0 || b == 0) continue;
    const Relationship from_a = *topo_->relationship(a, b);
    adj_[a].push_back({b, from_a});
    adj_[b].push_back({a, reverse(from_a)});
  }
}

void GrModel::check_destination(Asn dest) const {
  IRP_CHECK(dest >= 1 && dest <= num_ases_, "destination out of range");
}

GrPathSet GrModel::compute(Asn dest, const OriginEdgeFilter& filter) const {
  check_destination(dest);
  GrPathSet out;
  out.dest_ = dest;
  out.cust_.assign(num_ases_ + 1, kUnreachable);
  out.peer_.assign(num_ases_ + 1, kUnreachable);
  out.prov_.assign(num_ases_ + 1, kUnreachable);
  out.cust_parent_.assign(num_ases_ + 1, 0);
  out.peer_parent_.assign(num_ases_ + 1, 0);
  out.prov_parent_.assign(num_ases_ + 1, 0);

  auto edge_allowed = [&](Asn from_neighbor, Asn to) {
    return to != dest || !filter || filter(from_neighbor);
  };

  // Stage 1 — customer routes: all-down paths, BFS from the destination
  // along provider edges (from c to its providers p, p reaches dest via its
  // customer c).
  out.cust_[dest] = 0;
  std::deque<Asn> queue{dest};
  while (!queue.empty()) {
    const Asn c = queue.front();
    queue.pop_front();
    const std::size_t k = out.cust_[c];
    for (const Edge& e : adj_[c]) {
      if (e.rel != Relationship::kProvider) continue;  // p is c's provider.
      const Asn p = e.neighbor;
      if (!edge_allowed(p, c)) continue;
      if (out.cust_[p] != kUnreachable) continue;
      out.cust_[p] = k + 1;
      out.cust_parent_[p] = c;
      queue.push_back(p);
    }
  }

  // Stage 2 — peer routes: one flat hop onto a customer route.
  for (Asn x = 1; x <= num_ases_; ++x) {
    for (const Edge& e : adj_[x]) {
      if (e.rel != Relationship::kPeer) continue;
      const Asn y = e.neighbor;
      if (out.cust_[y] == kUnreachable) continue;
      if (!edge_allowed(x, y)) continue;
      const std::size_t cand = 1 + out.cust_[y];
      if (cand < out.peer_[x]) {
        out.peer_[x] = cand;
        out.peer_parent_[x] = y;
      }
    }
  }

  // Stage 3 — provider routes: Dijkstra on g(x) = min over all classes,
  // propagating down customer edges (x learns from its provider y).
  std::vector<std::size_t> g(num_ases_ + 1, kUnreachable);
  using Item = std::pair<std::size_t, Asn>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (Asn x = 1; x <= num_ases_; ++x) {
    g[x] = std::min(out.cust_[x], out.peer_[x]);
    if (g[x] != kUnreachable) pq.push({g[x], x});
  }
  while (!pq.empty()) {
    const auto [val, y] = pq.top();
    pq.pop();
    if (val > g[y]) continue;  // Stale entry.
    for (const Edge& e : adj_[y]) {
      if (e.rel != Relationship::kCustomer) continue;  // x is y's customer.
      const Asn x = e.neighbor;
      if (!edge_allowed(x, y)) continue;
      const std::size_t cand = val + 1;
      if (cand < out.prov_[x]) {
        out.prov_[x] = cand;
        out.prov_parent_[x] = y;
        if (cand < g[x]) {
          g[x] = cand;
          pq.push({cand, x});
        }
      }
    }
  }

  return out;
}

}  // namespace irp
