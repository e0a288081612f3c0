// Owner-set counts of sections, composed one dimension at a time — the
// primitive the charge walks (exec/pricing.hpp), storage accounting,
// checkpoint and recovery (exec/storage.cpp, fault/recovery.cpp) and
// Distribution::same_mapping read, and the composition LayoutView's run
// tables are built from.
//
// Every payload over a section reduces to one normal form: its root
// kFormats payload, plus one feed per root dimension. Definition 4's
// CONSTRUCT(α, δ_B) with §5.1's reduced α (each alignee dimension feeds at
// most one base subscript, images clamped into the base) and §8.1.2's
// section view both act per dimension, so a root dimension is fed by
//   (a) one section dimension, read through a piecewise index map —
//       affine pieces from triplets and linear α, constant pieces from the
//       §5.1 clamp, and a MAX/MIN subscript evaluated one position at a
//       time along that dimension alone;
//   (b) a fixed index (a dummyless base subscript); or
//   (c) a set of indices all owning each element (a "*" base subscript).
// Chains recurse: an orphaned snapshot, an array aligned to a dummy, a view
// of a view. An identity alignment is its base (CONSTRUCT(id, δ) = δ). A
// section dimension that feeds no root dimension (an alignee "*") is
// constant.
//
// A kFormats root's owners are a product (§4.1.1): element i is owned by
// grid(owner_1(i_1), ..., owner_r(i_r)). So over a section, the number of
// positions where side a holds owner set A and side b holds owner set B is
// a sum of products of per-dimension pair counts. Each section dimension
// gets the constant-owner list of its feed: the root's memoized
// DimMapping::segment_list of a single affine piece's image triplet, or
// the pieces' lists joined. For each (squeezed) dimension the two sides'
// lists are merged into a small (set a_d, set b_d) count matrix; the
// Kronecker product over dimensions, with each per-dimension tuple
// composed into an owner set (compose_dim_owners, fixed and replicated
// root dimensions as constant factors) and interned per side, gives the
// counts per owner-set pair — without expanding the sections into run
// tables.
//
// A CYCLIC(k) dimension read through one affine piece is periodic: at
// stride s its owners repeat every k·NP/gcd(|s|, k·NP) positions, so its
// list covers one period, walked whole periods at a time (times a repeat
// count, plus a prefix). Every other list covers its whole dimension.
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

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/distribution.hpp"
#include "core/layout_view.hpp"
#include "core/triplet.hpp"
#include "core/types.hpp"
#include "machine/memory.hpp"
#include "machine/step_accum.hpp"
#include "support/small_vector.hpp"

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

/// Element counts per (id a, id b) pair of two pools of na and nb ids. The
/// ids index two different pools, so equal ids do not mean equal sets. The
/// counts live in a dense na x nb matrix when na * nb <= max(walk, kInline),
/// where `walk` is the producer's own size (at least the adds it makes), so
/// its memory and its scan stay within that size or a small constant (kInline
/// counts are held inline: a small count allocates nothing); otherwise —
/// thousands of distinct user-defined sets — in a hashed table keyed by the
/// packed id pair. The choice is a function of the sizes alone.
class SetPairCounts {
 public:
  static constexpr std::size_t kInline = 256;

  SetPairCounts(std::size_t na, std::size_t nb, std::size_t walk)
      : na_(na),
        nb_(nb),
        dense_(static_cast<std::uint64_t>(na) * nb <= std::max(walk, kInline)) {
    if (dense_) counts_.resize(na * nb, 0);
  }

  /// Whether the counts live in the dense matrix (else the hashed table).
  bool dense() const noexcept { return dense_; }

  /// The count of pair (ia, ib), created at 0.
  Extent& at(std::uint32_t ia, std::uint32_t ib) {
    return dense_ ? counts_[ia * nb_ + ib]
                  : hashed_.accumulate(std::uint64_t{ia} << 32 | ib);
  }

  void add(std::uint32_t ia, std::uint32_t ib, Extent count) {
    at(ia, ib) += count;
  }

  /// Calls fn(count, ia, ib) once per pair with a nonzero count, in
  /// ascending (ia, ib) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!dense_) {
      for (const auto& cell : hashed_.sorted()) {
        if (cell.payload == 0) continue;
        fn(cell.payload, static_cast<std::uint32_t>(cell.key >> 32),
           static_cast<std::uint32_t>(cell.key & 0xffffffffu));
      }
      return;
    }
    std::size_t k = 0;
    for (std::uint32_t ia = 0; ia < na_; ++ia) {
      for (std::uint32_t ib = 0; ib < nb_; ++ib, ++k) {
        if (counts_[k] != 0) fn(counts_[k], ia, ib);
      }
    }
  }

 private:
  std::size_t na_;
  std::size_t nb_;
  bool dense_;
  SmallVector<Extent, kInline> counts_;
  StepAccumTable<std::uint64_t, Extent> hashed_;
};

namespace detail {
class FormatsSide;  // a side's per-dimension lists and composed sets
}  // namespace detail

/// Positions per owner set of one section: sets()[id] owns counts()[id] of
/// them, every count positive. Validates the section. `dist` and `section`
/// must outlive the counts when a PairCounts reuses them.
class SectionCounts {
 public:
  SectionCounts(const Distribution& dist, const std::vector<Triplet>& section);
  ~SectionCounts();
  SectionCounts(const SectionCounts&) = delete;
  SectionCounts& operator=(const SectionCounts&) = delete;

  const std::vector<OwnerSet>& sets() const noexcept { return own_; }
  const std::vector<Extent>& counts() const noexcept { return counts_; }

  /// Probes of the segment lists read: a memoized list reports the probes
  /// that built it.
  Extent ownership_queries() const noexcept { return queries_; }

 private:
  friend class PairCounts;

  std::vector<OwnerSet> own_;
  std::unique_ptr<detail::FormatsSide> side_;
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
    if (!counts_) return;
    counts_->for_each([&](Extent count, std::uint32_t ia, std::uint32_t ib) {
      fn(count, (*pool_a_)[ia], (*pool_b_)[ib]);
    });
  }

  /// Whether the counts live in a dense matrix (SetPairCounts).
  bool dense() const noexcept { return counts_ && counts_->dense(); }

  /// Probes of the lists read for side a, and for side b.
  Extent queries_a() const noexcept { return queries_a_; }
  Extent queries_b() const noexcept { return queries_b_; }

 private:
  void count(detail::FormatsSide& a, detail::FormatsSide& b,
             MemoryDeltaFold* fold, Extent elem_bytes);

  std::vector<OwnerSet> own_a_;  // the sides' pools, unless a is reused
  std::vector<OwnerSet> own_b_;
  const std::vector<OwnerSet>* pool_a_ = &own_a_;
  const std::vector<OwnerSet>* pool_b_ = &own_b_;
  std::optional<SetPairCounts> counts_;
  Extent queries_a_ = 0;
  Extent queries_b_ = 0;
};

namespace detail {

/// LayoutView's table builder: the runs of `section` composed from the
/// same per-dimension lists the counts read (whole lists, no periods),
/// with no per-element probe. `out.section_domain` must be set; the
/// section is validated. With `use_dim_memo`, lists come
/// from (and go to) the root's per-dimension memos and `ownership_queries`
/// counts only the probes this build spent; without, every list is
/// computed afresh and counted.
void build_run_table(const Distribution& dist,
                     const std::vector<Triplet>& section, RunTable& out,
                     bool use_dim_memo);

}  // namespace detail

}  // namespace hpfnt
