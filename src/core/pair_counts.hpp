// Owner-set counts of sections, composed one dimension at a time — the
// primitive the charge walks (exec/pricing.hpp), storage accounting
// (exec/storage.cpp) and Distribution::same_mapping read.
//
// A kFormats payload's owners are a product (§4.1.1): element i is owned
// by grid(owner_1(i_1), ..., owner_r(i_r)), each factor a function of one
// subscript. So over a rectangular section, the number of positions where
// side a holds owner set A and side b holds owner set B is a sum of
// products of per-dimension pair counts. For each (squeezed) dimension the
// two sides' constant-owner segment lists (DimMapping::segment_list) are
// merged into a small (set a_d, set b_d) count matrix; the Kronecker
// product over dimensions, with each per-dimension tuple composed into an
// owner set (compose_dim_owners) and interned per side, gives the counts
// per owner-set pair — without expanding the sections into run tables.
//
// A CYCLIC(k) dimension is periodic: at stride s its owners repeat every
// k·NP/gcd(|s|, k·NP) positions, so its list covers one period, walked
// whole periods at a time (times a repeat count, plus a prefix). BLOCK,
// VIENNA_BLOCK, GENERAL_BLOCK, collapsed, INDIRECT and user-defined
// dimensions use their plain lists. An identity-aligned kConstructed
// payload resolves to its base (CONSTRUCT(id, δ) = δ, Definition 4).
// Every other payload — a non-identity alignment or a section view — is
// counted from its run tables (core/layout_view.hpp), as is any pair with
// such a side.
//
// The remap's memory gauges need more than counts: MemoryDeltaFold's
// per-processor prefix rise depends on position order. The fold's
// (net, rise) pairs form a monoid — (n₁,r₁)·(n₂,r₂) = (n₁+n₂,
// max(r₁, n₁+r₂)), and m repeats of (n, r) are (m·n, r + max(0, (m−1)·n))
// — so PairCounts folds each dimension's merged list in position order,
// one row pattern per outer tuple of per-dimension pairs, raising whole
// periods to their repeat counts, and yields the same rows the
// position-order walk would.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/distribution.hpp"
#include "core/layout_view.hpp"
#include "core/triplet.hpp"
#include "core/types.hpp"
#include "machine/memory.hpp"

namespace hpfnt {

/// A distribution restricted to a section of its domain: one side of a
/// count. Both pointers must outlive the count built over them.
struct MappedSection {
  const Distribution* dist;
  const std::vector<Triplet>* section;
};

/// Number of positions of a section: the product of its triplets' sizes.
inline Extent section_size(const std::vector<Triplet>& section) {
  Extent size = 1;
  for (const Triplet& t : section) size *= t.size();
  return size;
}

namespace detail {
class FormatsSide;  // a formats side's segment lists and composed sets
}  // namespace detail

/// Positions per owner set of one section: sets()[id] owns counts()[id] of
/// them. Validates the section. `dist` and `section` must outlive the
/// counts when a PairCounts reuses them.
class SectionCounts {
 public:
  SectionCounts(const Distribution& dist, const std::vector<Triplet>& section);
  ~SectionCounts();
  SectionCounts(const SectionCounts&) = delete;
  SectionCounts& operator=(const SectionCounts&) = delete;

  const std::vector<OwnerSet>& sets() const noexcept { return own_; }
  const std::vector<Extent>& counts() const noexcept { return counts_; }

  /// Probes of the segment lists (or the run table) read: a memoized list
  /// reports the probes that built it.
  Extent ownership_queries() const noexcept { return queries_; }

 private:
  friend class PairCounts;

  MappedSection section_;
  std::vector<OwnerSet> own_;
  std::unique_ptr<detail::FormatsSide> side_;  // null when table-counted
  std::vector<Extent> counts_;
  Extent queries_ = 0;
};

/// Positions per (owner set of a, owner set of b) pair of two conforming
/// sections — equal sizes, equal shapes after squeezing unit dimensions;
/// position k of one is position k of the other in Fortran order. With a
/// `fold`, also folds the remap's replica deltas of every position (b's
/// owners not in a's gain `elem_bytes`, a's not in b's lose it) into it in
/// position order, as a per-position walk would. Validates both sections.
class PairCounts {
 public:
  PairCounts(const MappedSection& a, const MappedSection& b,
             MemoryDeltaFold* fold = nullptr, Extent elem_bytes = 0);
  /// The pair counts of a's section and b, reusing a's segment lists and
  /// composed owner sets: an assignment counts its LHS once for all its
  /// operands. `a` must outlive this.
  PairCounts(SectionCounts& a, const MappedSection& b);
  PairCounts(const PairCounts&) = delete;
  PairCounts& operator=(const PairCounts&) = delete;

  /// Calls fn(count, owners_a, owners_b) once per pair with a nonzero
  /// count, in ascending (id a, id b) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (counts_) counts_->for_each(fn);
  }

  /// Probes of the lists (or run tables) read for side a, and for side b.
  Extent queries_a() const noexcept { return queries_a_; }
  Extent queries_b() const noexcept { return queries_b_; }

 private:
  void walk_tables(const MappedSection& a, const MappedSection& b,
                   MemoryDeltaFold* fold, Extent elem_bytes);
  void count_formats(detail::FormatsSide& a, detail::FormatsSide& b,
                     MemoryDeltaFold* fold, Extent elem_bytes);

  std::vector<OwnerSet> own_a_;  // the sides' pools, unless a is reused
  std::vector<OwnerSet> own_b_;
  std::optional<SetPairCounts> counts_;
  Extent queries_a_ = 0;
  Extent queries_b_ = 0;
};

}  // namespace hpfnt
