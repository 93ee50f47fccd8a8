// StudyCatalog: the frozen studies one RouteOracle endpoint serves.
//
// The paper's passive study is re-run across seeds, scenarios, and snapshot
// epochs (§3.1, §4). A catalog loads N >= 1 OracleSnapshot images, tags each
// with a study id, and exposes one OracleIndex per study; OracleService
// always serves a catalog, so a single study is a catalog of one and a
// single TCP endpoint can answer queries against any loaded study. Two
// resources are deliberately shared across studies:
//
//   * One path-table arena. Snapshot epochs of the same topology intern
//     nearly identical AS-path trees; every study's image is decoded
//     straight into one global PathTable (PathTable::intern_flat: tails
//     precede their nodes, so one forward pass over the flat image interns
//     every node and yields its arena id), and route entries get arena ids
//     as they are parsed. Duplicate suffixes across studies collapse to one
//     node, and no study keeps a table of its own.
//   * One classify-cache budget. Each study keeps its own LRU under its own
//     lock (no cross-study contention), but the total entry budget is a
//     catalog-level constant: quotas start as an even split and
//     rebalance_cache() re-weights them by observed per-study hit rates, so
//     a hot epoch absorbs budget from cold ones without any study dropping
//     below kMinStudyCacheQuota. cache_budget() is where the caches'
//     numbers are read: each study's quota, hits, misses, evictions and
//     entries.
//
// Identity: a study id is "<name>@<fnv1a64 of the snapshot image>" — the
// operator-supplied name makes it addressable, the content checksum makes
// it unambiguous across re-converged epochs with the same name. The hash is
// taken over the image bytes as loaded, in the same walk as the payload
// checksum; the loader accepts canonical images only, so these are the
// bytes OracleSnapshot::to_bytes() writes for the study. Lookup accepts the
// bare name, the full id, or "" for the default (first-loaded) study;
// anything else is answered with UnknownStudyError / the wire's
// kUnknownStudy.
//
// A rejected image (bad name, any loader or index error) leaves the catalog
// exactly as it was, arena included.
//
// Thread safety: the catalog is immutable after the last study is added;
// queries and rebalance_cache() may then run concurrently from any thread
// (the only mutable state is inside each study's ClassifyCache, behind
// its own mutex).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/oracle_index.hpp"
#include "util/check.hpp"

namespace irp {

/// Typed "no such study" error: thrown by OracleService::answer and carried
/// on the wire as WireErrorCode::kUnknownStudy.
class UnknownStudyError : public CheckError {
 public:
  explicit UnknownStudyError(std::string_view study)
      : CheckError("unknown study '" + std::string(study) + "'"),
        study_(study) {}
  const std::string& study() const { return study_; }

 private:
  std::string study_;
};

struct StudyCatalogConfig {
  /// Total classify-cache entries shared by every study in the catalog
  /// (each study's quota is derived from this, never set directly). 0
  /// disables caching for all studies.
  std::size_t total_cache_capacity = 8192;
};

/// Immutable-after-load collection of studies sharing one path arena and one
/// classify-cache budget.
class StudyCatalog {
 public:
  /// No study's quota falls below this floor during rebalancing (clamped to
  /// an even split when total/N is smaller).
  static constexpr std::size_t kMinStudyCacheQuota = 64;

  struct Study {
    std::string name;  ///< Operator-supplied; unique within the catalog.
    std::string id;    ///< "<name>@<16-hex content checksum>".
    std::uint32_t ordinal = 0;  ///< Load order; 0 is the default study.
    /// The decoded study. Its route and alternate PathIds index the
    /// catalog's paths(), and its own `paths` table stays empty, so it is
    /// not to be re-encoded with to_bytes().
    OracleSnapshot snapshot;
    std::unique_ptr<OracleIndex> index;
    std::size_t image_bytes = 0;  ///< Serialized snapshot size.
    std::size_t own_paths = 0;    ///< Path nodes in the image.
  };

  explicit StudyCatalog(StudyCatalogConfig config = {});

  StudyCatalog(const StudyCatalog&) = delete;
  StudyCatalog& operator=(const StudyCatalog&) = delete;

  /// Registers the snapshot image `image` under `name` (nonempty, no '='
  /// or '@', unique); the first study added becomes the default. Decodes the
  /// image once, interning its paths into the shared arena, and resets every
  /// study's cache quota to an even split of the budget. Returns the new
  /// study; on CheckError the catalog is unchanged.
  const Study& add_study_bytes(std::string name, std::string_view image);

  /// read_file()s `path` and add_study_bytes() it.
  const Study& add_study_file(std::string name, const std::string& path);

  /// add_study_bytes(name, snapshot.to_bytes()): a decoded snapshot is
  /// re-encoded first, so prefer the byte-level loads where the image is at
  /// hand.
  const Study& add_study(std::string name, const OracleSnapshot& snapshot);

  /// Resolves "" to the default study, otherwise matches a study name or
  /// full id; nullptr when nothing matches.
  const Study* find(std::string_view name_or_id) const;
  const Study* default_study() const;

  std::size_t size() const { return studies_.size(); }
  const std::vector<std::unique_ptr<Study>>& studies() const {
    return studies_;
  }

  /// The shared arena behind every study's OracleIndex::paths().
  const PathTable& paths() const { return arena_; }

  struct ArenaStats {
    std::size_t arena_paths = 0;  ///< Nodes in the shared table.
    std::size_t sum_study_paths = 0;  ///< Sum of pre-merge node counts.
    /// Fraction of per-study nodes deduplicated away by sharing (0 with at
    /// most one study's worth of paths).
    double sharing() const {
      return sum_study_paths == 0
                 ? 0.0
                 : 1.0 - double(arena_paths) / double(sum_study_paths);
    }
  };
  ArenaStats arena_stats() const;

  /// Redistributes the shared cache budget: each study's quota becomes the
  /// floor plus a share of the remainder proportional to its lifetime cache
  /// hit rate (even split while no study has traffic). Trims LRU tails of
  /// shrunken studies immediately. Safe concurrently with queries —
  /// answers never change, only cache latency.
  void rebalance_cache() const;

  /// The configured classify-cache budget, shared by every study. Unlike
  /// cache_budget(), takes no cache lock.
  std::size_t total_cache_capacity() const {
    return config_.total_cache_capacity;
  }

  /// Every study's classify-cache counters, in load order; a study's
  /// current quota is its `stats.capacity`.
  struct CacheBudgetView {
    struct PerStudy {
      std::string name;
      ClassifyCache::Stats stats;
    };
    std::vector<PerStudy> per_study;
  };
  CacheBudgetView cache_budget() const;

 private:
  /// Even split of the budget, respecting the floor where possible.
  std::size_t even_quota() const;

  StudyCatalogConfig config_;
  PathTable arena_;
  std::vector<std::unique_ptr<Study>> studies_;
};

}  // namespace irp
