#include "serve/study_catalog.hpp"

#include <algorithm>
#include <cstdio>

#include "util/file.hpp"

namespace irp {
namespace {

std::string checksum_hex(std::uint64_t checksum) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(checksum));
  return std::string(buf);
}

}  // namespace

StudyCatalog::StudyCatalog(StudyCatalogConfig config) : config_(config) {}

const StudyCatalog::Study& StudyCatalog::add_study(
    std::string name, const OracleSnapshot& snapshot) {
  return add_study_bytes(std::move(name), snapshot.to_bytes());
}

const StudyCatalog::Study& StudyCatalog::add_study_file(
    std::string name, const std::string& path) {
  return add_study_bytes(std::move(name), read_file(path));
}

const StudyCatalog::Study& StudyCatalog::add_study_bytes(
    std::string name, std::string_view image) {
  IRP_CHECK(!name.empty(), "study name must be nonempty");
  IRP_CHECK(name.find('=') == std::string::npos &&
                name.find('@') == std::string::npos,
            "study name must not contain '=' or '@'");
  IRP_CHECK(find(name) == nullptr, "duplicate study name '" + name + "'");

  auto study = std::make_unique<Study>();
  // A rejected image (the decoder or the index may fail after some of its
  // paths are interned) leaves the arena as it was.
  const PathTable::Mark restore = arena_.mark();
  try {
    OracleSnapshot::ImageInfo info;
    study->snapshot = OracleSnapshot::from_bytes_into(image, arena_, info);
    // The loader accepts canonical images only, so these are the bytes
    // to_bytes() would write: identity is content-derived.
    study->id = name + "@" + checksum_hex(info.hash);
    study->own_paths = info.num_paths;
    // The index's cache starts disabled; it is budgeted below, across all
    // studies.
    study->index = std::make_unique<OracleIndex>(&study->snapshot, arena_);
  } catch (...) {
    arena_.truncate(restore);
    throw;
  }
  study->name = std::move(name);
  study->ordinal = static_cast<std::uint32_t>(studies_.size());
  study->image_bytes = image.size();
  studies_.push_back(std::move(study));

  // A new study resets every quota to an even split; rebalance_cache() will
  // skew the split once hit rates accumulate.
  const std::size_t quota = even_quota();
  for (const auto& s : studies_) s->index->set_cache_capacity(quota);
  return *studies_.back();
}

const StudyCatalog::Study* StudyCatalog::find(
    std::string_view name_or_id) const {
  if (name_or_id.empty()) return default_study();
  for (const auto& study : studies_)
    if (study->name == name_or_id || study->id == name_or_id)
      return study.get();
  return nullptr;
}

const StudyCatalog::Study* StudyCatalog::default_study() const {
  return studies_.empty() ? nullptr : studies_.front().get();
}

StudyCatalog::ArenaStats StudyCatalog::arena_stats() const {
  ArenaStats stats;
  stats.arena_paths = arena_.num_paths();
  for (const auto& study : studies_) stats.sum_study_paths += study->own_paths;
  return stats;
}

std::size_t StudyCatalog::even_quota() const {
  if (studies_.empty() || config_.total_cache_capacity == 0) return 0;
  return config_.total_cache_capacity / studies_.size();
}

void StudyCatalog::rebalance_cache() const {
  if (studies_.empty()) return;
  const std::size_t total = config_.total_cache_capacity;
  if (total == 0) return;

  // The floor cannot exceed an even split, or N floors would overshoot the
  // budget on their own.
  const std::size_t floor =
      std::min(kMinStudyCacheQuota, total / studies_.size());
  const std::size_t spread = total - floor * studies_.size();

  std::vector<double> weight(studies_.size(), 0.0);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < studies_.size(); ++i) {
    weight[i] = studies_[i]->index->cache_stats().hit_rate();
    weight_sum += weight[i];
  }

  for (std::size_t i = 0; i < studies_.size(); ++i) {
    const double share =
        weight_sum == 0.0 ? 1.0 / double(studies_.size())
                          : weight[i] / weight_sum;
    const std::size_t quota =
        floor + static_cast<std::size_t>(double(spread) * share);
    studies_[i]->index->set_cache_capacity(quota);
  }
}

StudyCatalog::CacheBudgetView StudyCatalog::cache_budget() const {
  CacheBudgetView view;
  view.per_study.reserve(studies_.size());
  for (const auto& study : studies_)
    view.per_study.push_back({study->name, study->index->cache_stats()});
  return view;
}

}  // namespace irp
