#include "bgp/path_table.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace irp {
namespace {

std::uint64_t intern_key(Asn head, PathId tail) {
  return (std::uint64_t{head} << 32) | tail;
}

}  // namespace

PathTable::PathTable() {
  nodes_.push_back(Node{});  // kEmptyPathId: empty hops, empty poison set.
  poison_sets_.emplace_back();
  roots_[{}] = kEmptyPathId;
}

PathId PathTable::root(std::span<const Asn> poison_set) {
  if (poison_set.empty()) return kEmptyPathId;
  std::vector<Asn> key{poison_set.begin(), poison_set.end()};
  auto it = roots_.find(key);
  if (it != roots_.end()) {
    ++hits_;
    return it->second;
  }
  const PathId id = static_cast<PathId>(nodes_.size());
  Node node;
  node.tail = id;
  node.poison = static_cast<std::uint32_t>(poison_sets_.size());
  poison_sets_.push_back(key);
  nodes_.push_back(node);
  roots_.emplace(std::move(key), id);
  return id;
}

PathId PathTable::prepend(PathId id, Asn head) {
  IRP_CHECK(head != 0, "cannot prepend ASN 0");
  if (intern_.empty()) [[unlikely]] {
    // A convergence over a realistic topology interns tens of thousands of
    // paths; pre-sizing the probe table avoids every rehash on that
    // trajectory for the cost of a ~1 MB bucket array (dwarfed by the
    // engine's RIB state). Deferred to the first prepend so that a table
    // that never holds a path (a catalog study's own, a default snapshot's)
    // costs next to nothing.
    intern_.reserve(1 << 17);
    nodes_.reserve(1 << 12);
  }
  auto [it, inserted] = intern_.try_emplace(intern_key(head, id), 0);
  if (!inserted) {
    ++hits_;
    return it->second;
  }
  const PathId node_id = static_cast<PathId>(nodes_.size());
  Node node;
  node.head = head;
  node.tail = id;
  node.num_hops = nodes_[id].num_hops + 1;
  node.poison = nodes_[id].poison;
  nodes_.push_back(node);
  it->second = node_id;
  return node_id;
}

PathId PathTable::prepend_n(PathId id, Asn head, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) id = prepend(id, head);
  return id;
}

PathId PathTable::intern(const AsPath& path) {
  PathId id = root(path.poison_set);
  for (auto it = path.hops.rbegin(); it != path.hops.rend(); ++it)
    id = prepend(id, *it);
  return id;
}

bool PathTable::contains(PathId id, Asn asn) const {
  for (PathId cur = id; nodes_[cur].num_hops > 0; cur = nodes_[cur].tail)
    if (nodes_[cur].head == asn) return true;
  const auto& poison = poison_sets_[nodes_[id].poison];
  return std::find(poison.begin(), poison.end(), asn) != poison.end();
}

void PathTable::append_hops(PathId id, std::vector<Asn>& out) const {
  out.reserve(out.size() + num_hops(id));
  for_each_hop(id, [&](Asn asn) { out.push_back(asn); });
}

AsPath PathTable::materialize(PathId id) const {
  AsPath out;
  append_hops(id, out.hops);
  out.poison_set = poison_set(id);
  return out;
}

PathId PathTable::import(const PathTable& src, PathId id,
                         std::vector<PathId>& memo) {
  constexpr PathId kUnseen = 0xFFFFFFFFu;
  if (memo.size() < src.num_paths()) memo.resize(src.num_paths(), kUnseen);
  // Climb toward the root until a node this table already holds.
  import_chain_.clear();
  PathId cur = id;
  while (memo[cur] == kUnseen && src.nodes_[cur].num_hops > 0) {
    import_chain_.push_back(cur);
    cur = src.nodes_[cur].tail;
  }
  if (memo[cur] == kUnseen) memo[cur] = root(src.poison_set(cur));
  // Prepend back down the chain, origin end first, as intern() would.
  PathId out = memo[cur];
  for (auto it = import_chain_.rbegin(); it != import_chain_.rend(); ++it) {
    out = prepend(out, src.nodes_[*it].head);
    memo[*it] = out;
  }
  return out;
}

std::vector<PathId> PathTable::intern_flat(
    std::span<const FlatNode> nodes,
    std::span<const std::vector<Asn>> poison_pool) {
  IRP_CHECK(!nodes.empty(), "flat path table has no nodes");
  IRP_CHECK(!poison_pool.empty() && poison_pool[0].empty(),
            "flat path table poison pool must start with the empty set");
  const FlatNode& root0 = nodes[0];
  IRP_CHECK(root0.head == 0 && root0.tail == 0 && root0.num_hops == 0 &&
                root0.poison == 0,
            "flat path table node 0 is not the empty root");

  const Mark restore = mark();
  std::vector<PathId> remap(nodes.size(), kEmptyPathId);
  // Ids of this table some image node has landed on. Within one valid image
  // the remap is injective, so a second landing is a node the image holds
  // twice, even when an earlier image already put that node here.
  std::vector<bool> claimed(nodes_.size() + nodes.size(), false);
  claimed[kEmptyPathId] = true;
  std::uint32_t poisoned_roots = 0;
  try {
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      const FlatNode& fn = nodes[i];
      IRP_CHECK(fn.poison < poison_pool.size(),
                "flat path table node references a missing poison set");
      PathId id;
      if (fn.num_hops == 0) {
        // A root: self-referential tail, no head, and a non-empty poison
        // set no other root of the image carries.
        IRP_CHECK(fn.head == 0 && fn.tail == i,
                  "flat path table root node is malformed");
        IRP_CHECK(!poison_pool[fn.poison].empty(),
                  "flat path table duplicates the empty root");
        id = root(poison_pool[fn.poison]);
        IRP_CHECK(!claimed[id], "flat path table has duplicate poison roots");
        // root() appends each new set to the pool, so a table's pool lists
        // the poisoned roots' sets in root order.
        IRP_CHECK(fn.poison == ++poisoned_roots,
                  "flat path table poison set is out of root order");
      } else {
        IRP_CHECK(fn.head != 0, "flat path table hop node has no head");
        IRP_CHECK(fn.tail < i, "flat path table tail does not precede node");
        const FlatNode& tail = nodes[fn.tail];
        IRP_CHECK(fn.num_hops == tail.num_hops + 1,
                  "flat path table hop count is inconsistent");
        IRP_CHECK(fn.poison == tail.poison,
                  "flat path table poison id not inherited from tail");
        id = prepend(remap[fn.tail], fn.head);
        IRP_CHECK(!claimed[id],
                  "flat path table has duplicate interned nodes");
      }
      claimed[id] = true;
      remap[i] = id;
    }
    // The pool holds the empty set and the roots' sets, nothing more; the
    // first set past them names the fault.
    const std::size_t used = poisoned_roots + 1;
    const auto first = poison_pool.begin();
    IRP_CHECK(used == poison_pool.size() ||
                  std::find(first, first + used, poison_pool[used]) ==
                      first + used,
              "flat path table poison pool repeats a set");
    IRP_CHECK(used == poison_pool.size(),
              "flat path table poison pool has an unused set");
  } catch (...) {
    truncate(restore);
    throw;
  }
  return remap;
}

void PathTable::truncate(const Mark& mark) {
  IRP_CHECK(mark.nodes >= 1 && mark.nodes <= nodes_.size() &&
                mark.poison_sets >= 1 &&
                mark.poison_sets <= poison_sets_.size(),
            "path table mark is newer than the table");
  for (std::size_t i = mark.nodes; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.num_hops == 0)
      roots_.erase(poison_sets_[n.poison]);
    else
      intern_.erase(intern_key(n.head, n.tail));
  }
  nodes_.resize(mark.nodes);
  poison_sets_.resize(mark.poison_sets);
  hits_ = mark.hits;
}

}  // namespace irp
