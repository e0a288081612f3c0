// Interning of small owner sets into a pool of distinct sets.
//
// The paper's formats (§2.2, §4.1) map each dimension onto at most NP
// positions, so a run table or a per-dimension segment list holds only a
// handful of distinct owner sets however many runs it has. Tables store each
// distinct set once, in a pool, and address it by a 32-bit id.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

/// Appends sets to `pool` (which must start empty) and returns their ids,
/// handing back the existing id when an equal set is already pooled.
/// Equality is exact `==` (element by element, in order), so two ids are
/// equal iff their sets are. Singletons of a small value — every set a
/// single-owner format yields — are found through a dense per-value index;
/// other sets through a content hash, so each call is O(set size) however
/// many distinct sets the pool holds.
template <class Set>
class SetInterner {
  using Value = typename Set::value_type;

 public:
  explicit SetInterner(std::vector<Set>& pool) : pool_(pool) {}

  std::uint32_t intern(const Set& set) {
    if (set.size() == 1 && is_dense(set[0])) return intern_single(set[0]);
    std::uint64_t h = fnv1a_basis;
    for (Value v : set) h = fnv1a_mix(h, v);
    const auto [first, last] = hashed_.equal_range(h);
    for (auto it = first; it != last; ++it) {
      if (pool_[it->second] == set) return it->second;
    }
    const std::uint32_t id = append(set);
    hashed_.emplace(h, id);
    return id;
  }

  /// intern({value}) without building the set unless it is new.
  std::uint32_t intern_single(Value value) {
    if (!is_dense(value)) return intern(Set{value});
    const std::size_t slot = static_cast<std::size_t>(value);
    if (slot >= dense_.size()) dense_.resize(slot + 1, kAbsent);
    if (dense_[slot] == kAbsent) dense_[slot] = append(Set{value});
    return dense_[slot];
  }

 private:
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();
  // Owner ids and target positions are small; the bound keeps the dense
  // index from growing with a pathological value.
  static constexpr std::int64_t kDenseLimit = 1 << 16;

  static bool is_dense(Value v) {
    return v >= 0 && static_cast<std::int64_t>(v) < kDenseLimit;
  }

  std::uint32_t append(const Set& set) {
    if (pool_.size() >= kAbsent) {
      throw InternalError("owner-set pool exceeds 32-bit ids");
    }
    pool_.push_back(set);
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  std::vector<Set>& pool_;
  std::vector<std::uint32_t> dense_;
  std::unordered_multimap<std::uint64_t, std::uint32_t> hashed_;
};

}  // namespace hpfnt
