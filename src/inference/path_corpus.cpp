#include "inference/path_corpus.hpp"

namespace irp {
namespace {

std::pair<Asn, Asn> unordered(Asn a, Asn b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace

void PathCorpus::add(int epoch, const std::vector<Asn>& path) {
  if (path.size() < 2) return;
  // Collapse prepending (consecutive duplicates) so adjacency extraction is
  // clean.
  std::vector<Asn> clean;
  for (Asn asn : path)
    if (clean.empty() || clean.back() != asn) clean.push_back(asn);
  if (clean.size() < 2) return;
  by_epoch_[epoch].insert(std::move(clean));
}

void PathCorpus::add_feed(int epoch, const FeedEntry& entry) {
  if (!entry.path.poison_set.empty()) return;
  add(epoch, entry.path.hops);
}

void PathCorpus::merge(PathCorpus&& other) {
  for (auto& [epoch, paths] : other.by_epoch_) {
    auto& mine = by_epoch_[epoch];
    if (mine.empty())
      mine.swap(paths);
    else
      mine.merge(paths);
  }
  other.by_epoch_.clear();
}

const std::set<std::vector<Asn>>& PathCorpus::paths(int epoch) const {
  static const std::set<std::vector<Asn>> kEmpty;
  auto it = by_epoch_.find(epoch);
  return it == by_epoch_.end() ? kEmpty : it->second;
}

std::vector<int> PathCorpus::epochs() const {
  std::vector<int> out;
  for (const auto& [e, _] : by_epoch_) out.push_back(e);
  return out;
}

std::set<std::pair<Asn, Asn>> PathCorpus::adjacencies(int epoch) const {
  std::set<std::pair<Asn, Asn>> out;
  for (const auto& path : paths(epoch))
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      out.insert(unordered(path[i], path[i + 1]));
  return out;
}

std::size_t PathCorpus::total_paths() const {
  std::size_t n = 0;
  for (const auto& [_, paths] : by_epoch_) n += paths.size();
  return n;
}

}  // namespace irp
