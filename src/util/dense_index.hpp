// An open-addressing hash index over keys that its owner stores.
//
// The owner keeps its keys in arrays of its own, in insertion order, so a
// key's position there is its dense id (0, 1, 2, ...); DenseIndex maps a
// 64-bit hash to that id. Slots hold 32-bit ids only, the table is at most
// half full, and it grows with the number of distinct keys, never with the
// number of lookups. Used for the flat path sets of the inference corpus
// and for the link keys of one snapshot's inference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace irp {

class DenseIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  /// Number of ids added.
  std::size_t size() const { return size_; }

  /// The id stored under `hash` for which `is_key(id)` holds, or kAbsent.
  template <typename IsKey>
  std::uint32_t find(std::uint64_t hash, IsKey&& is_key) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask; slots_[i] != 0; i = (i + 1) & mask)
      if (is_key(slots_[i] - 1)) return slots_[i] - 1;
    return kAbsent;
  }

  /// Adds id size() under `hash` and returns it; the caller has checked
  /// that its key is absent. Growing re-places every earlier id under
  /// `hash_of(id)`.
  template <typename HashOf>
  std::uint32_t insert(std::uint64_t hash, HashOf&& hash_of) {
    const auto id = static_cast<std::uint32_t>(size_++);
    if (2 * size_ > slots_.size()) {
      slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
      for (std::uint32_t earlier = 0; earlier < id; ++earlier)
        place(earlier, hash_of(earlier));
    }
    place(id, hash);
    return id;
  }

 private:
  void place(std::uint32_t id, std::uint64_t hash) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id + 1;
  }

  std::vector<std::uint32_t> slots_;  ///< Id + 1; 0 = empty.
  std::size_t size_ = 0;
};

}  // namespace irp
