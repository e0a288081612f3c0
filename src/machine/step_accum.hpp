// Flat open-addressed accumulators for CommEngine's per-step tallies.
//
// During a step the engine is asked to accumulate into the (src, dst) pair
// once per distinct owner-set pair of each charge walk (exec/pricing.hpp
// sums segment counts per pooled set id first), so the accumulator sees
// O(pairs) calls per walk; a std::map would still pay an O(log P) node
// walk plus an allocation per new pair. These tables are insert-only
// within a step, cleared (capacity kept) at begin_step, and probed with
// linear open addressing — O(1) amortized, no per-step allocations once
// warm. The charge walks' own hashed pair counts
// (core/layout_view.hpp SetPairCounts) use the same table.
//
// end_step needs the entries in sorted key order (its floating-point
// per-processor time accumulation must stay byte-identical to the old
// std::map walk), so the tables hand out a sorted snapshot once per step
// instead of paying for ordering on every accumulate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace hpfnt {

namespace detail {

/// splitmix64 finalizer — cheap, well-mixed hash for 64-bit keys.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t hash_key(ApId p) {
  return mix64(static_cast<std::uint64_t>(p));
}

inline std::uint64_t hash_key(std::uint64_t key) { return mix64(key); }

inline std::uint64_t hash_key(const std::pair<ApId, ApId>& pair) {
  return mix64(static_cast<std::uint64_t>(pair.first) *
                   0x9e3779b97f4a7c15ULL ^
               static_cast<std::uint64_t>(pair.second));
}

}  // namespace detail

/// One step accumulator: maps Key (== comparable, hashable via
/// detail::hash_key) to a default-constructed Payload that accumulate()
/// hands back for in-place updates.
template <typename Key, typename Payload>
class StepAccumTable {
 public:
  struct Cell {
    Key key{};
    Payload payload{};
  };

  /// Find-or-insert; the reference is valid until the next clear/grow.
  Payload& accumulate(const Key& key) {
    if (live_.size() * 4 >= slots_.size() * 3) grow();
    const std::size_t i = probe(key);
    if (!used_[i]) {
      used_[i] = 1;
      live_.push_back(static_cast<std::uint32_t>(i));
      slots_[i] = Cell{key, Payload{}};
    }
    return slots_[i].payload;
  }

  std::size_t size() const noexcept { return live_.size(); }

  /// Entries sorted by key — the deterministic iteration order of the
  /// std::map this table replaced.
  std::vector<Cell> sorted() const {
    std::vector<Cell> out;
    out.reserve(live_.size());
    for (std::uint32_t i : live_) out.push_back(slots_[i]);
    std::sort(out.begin(), out.end(),
              [](const Cell& a, const Cell& b) { return a.key < b.key; });
    return out;
  }

  /// Empties the table but keeps its capacity warm across steps.
  void clear() {
    for (std::uint32_t i : live_) used_[i] = 0;
    live_.clear();
  }

 private:
  std::size_t probe(const Key& key) const {
    std::size_t i = static_cast<std::size_t>(detail::hash_key(key)) & mask_;
    while (used_[i] && !(slots_[i].key == key)) i = (i + 1) & mask_;
    return i;
  }

  void grow() {
    const std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<Cell> old_slots = std::move(slots_);
    std::vector<std::uint32_t> old_live = std::move(live_);
    slots_.assign(cap, Cell{});
    used_.assign(cap, 0);
    live_.clear();
    mask_ = cap - 1;
    for (std::uint32_t i : old_live) {
      const Cell& c = old_slots[i];
      const std::size_t j = probe(c.key);
      used_[j] = 1;
      live_.push_back(static_cast<std::uint32_t>(j));
      slots_[j] = c;
    }
  }

  std::vector<Cell> slots_;
  std::vector<std::uint8_t> used_;
  std::vector<std::uint32_t> live_;
  std::size_t mask_ = 0;
};

/// Per-pair traffic of one step: bytes and element transfers move together.
struct PairTraffic {
  Extent bytes = 0;
  Extent elements = 0;
};

using PairStepTable = StepAccumTable<std::pair<ApId, ApId>, PairTraffic>;
using ApStepTable = StepAccumTable<ApId, Extent>;

}  // namespace hpfnt
