#include "inference/path_corpus.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace irp {
namespace {

std::uint64_t hash_hops(std::span<const Asn> hops) {
  std::uint64_t h = hops.size();
  for (Asn asn : hops) h = (std::rotl(h, 29) ^ asn) * 0x9e3779b97f4a7c15ULL;
  return mix64(h);
}

}  // namespace

bool PathSet::add(std::span<const Asn> path) {
  const std::size_t start = hops_.size();
  for (Asn asn : path) append_collapsed(start, asn);
  return commit(start);
}

bool PathSet::add_feed(const FeedEntry& entry) {
  if (!entry.path.poison_set.empty()) return false;
  return add(entry.path.hops);
}

bool PathSet::add_feed(Asn peer, const PathTable& table, PathId path) {
  if (!table.poison_set(path).empty()) return false;
  const std::size_t start = hops_.size();
  append_collapsed(start, peer);
  table.for_each_hop(path, [&](Asn asn) { append_collapsed(start, asn); });
  return commit(start);
}

void PathSet::merge(PathSet&& other) {
  if (empty()) {
    *this = std::move(other);
  } else {
    for (std::size_t i = 0; i < other.size(); ++i) {
      const std::span<const Asn> path = other[i];
      if (contains(path, other.hashes_[i])) continue;
      const std::size_t start = hops_.size();
      hops_.insert(hops_.end(), path.begin(), path.end());
      record(start, other.hashes_[i]);
    }
  }
  other = PathSet{};
}

bool PathSet::commit(std::size_t start) {
  IRP_CHECK(hops_.size() < 0xFFFFFFFFu, "path set exceeds 2^32 hops");
  const std::span<const Asn> hops{hops_.data() + start, hops_.size() - start};
  const std::uint64_t hash = hash_hops(hops);
  if (hops.size() < 2 || contains(hops, hash)) {
    hops_.resize(start);
    return false;
  }
  record(start, hash);
  return true;
}

bool PathSet::contains(std::span<const Asn> hops, std::uint64_t hash) const {
  return index_.find(hash, [&](std::uint32_t id) {
           const std::span<const Asn> held = (*this)[id];
           return hashes_[id] == hash &&
                  std::equal(held.begin(), held.end(), hops.begin(),
                             hops.end());
         }) != DenseIndex::kAbsent;
}

void PathSet::record(std::size_t start, std::uint64_t hash) {
  for (std::size_t i = start; i < hops_.size(); ++i)
    max_asn_ = std::max(max_asn_, hops_[i]);
  ends_.push_back(static_cast<std::uint32_t>(hops_.size()));
  hashes_.push_back(hash);
  index_.insert(hash, [this](std::uint32_t id) { return hashes_[id]; });
}

void PathCorpus::add_feed(int epoch, const FeedEntry& entry) {
  epoch_set(epoch).add_feed(entry);
}

PathSet& PathCorpus::epoch_set(int epoch) {
  IRP_CHECK(epoch >= 0, "negative epoch");
  const auto e = static_cast<std::size_t>(epoch);
  if (e >= by_epoch_.size()) by_epoch_.resize(e + 1);
  return by_epoch_[e];
}

const PathSet& PathCorpus::paths(int epoch) const {
  static const PathSet kEmpty;
  const auto e = static_cast<std::size_t>(epoch);
  return epoch < 0 || e >= by_epoch_.size() ? kEmpty : by_epoch_[e];
}

std::vector<int> PathCorpus::epochs() const {
  std::vector<int> out;
  for (std::size_t e = 0; e < by_epoch_.size(); ++e)
    if (!by_epoch_[e].empty()) out.push_back(static_cast<int>(e));
  return out;
}

std::size_t PathCorpus::total_paths() const {
  std::size_t n = 0;
  for (const PathSet& paths : by_epoch_) n += paths.size();
  return n;
}

}  // namespace irp
