// Ownership queries, run-based (the bulk alternative to owners(i)).
//
// The paper's distributions (§2.2, §4.1) are *total index mappings* whose
// formats — BLOCK, CYCLIC(k), GENERAL_BLOCK — are regular enough that the
// owner set is piecewise constant over large contiguous index ranges. A
// LayoutView exposes that structure directly: given a Distribution and a
// triplet-section of its index domain, it yields the maximal runs
//
//     { begin, count, set }
//
// along the first (fastest-varying, Fortran order) dimension over which the
// owner set is constant: `count` section positions from linear position
// `begin`, owned by `sets[set]`. A table pools its distinct owner sets —
// each format maps a dimension onto at most NP positions, so a table of
// thousands of runs holds a handful of sets — and a run names its set by a
// 32-bit id, which keeps a run at 24 bytes. Consumers iterate runs instead
// of elements, so one ownership decision covers a whole contiguous
// segment; the charge walks go one step further and sum segment counts per
// pair of set ids (SetPairCounts), so one priced communication event
// covers every segment of an owner-set pair. parent_index() recovers a
// run's parent-domain indices from its position.
//
// Run tables are computed
//   * analytically for kFormats payloads: each dimension's constant-owner
//     segment list (DimMapping::segment_list — block bounds, cyclic
//     segments, GENERAL_BLOCK bound arrays; memoized per payload per
//     dimension, so sections sharing a dimension triplet share the list)
//     is composed by outer product into runs without any per-element probe,
//     one owner-set composition per distinct per-dimension set tuple of a
//     row,
//   * by composition through the alignment function α for kConstructed
//     (linear α maps a segment of the base's runs back onto the alignee;
//     clamped ends form their own constant runs) — except that an identity
//     α (ALIGN W(I) WITH U(I): CONSTRUCT(id, δ_U) = δ_U) builds nothing:
//     W's view holds the very RunTable object U's view of the same section
//     holds, fetched through U's memo,
//   * by triplet composition (restriction) for kSectionView,
// and are memoized per Distribution payload keyed by the section
// (Distribution::run_memo), so repeated sweeps of the same section are
// free. Distribution::owners(IndexTuple) remains as a thin per-element
// compatibility shim answered from the memoized whole-domain table when one
// exists.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/distribution.hpp"
#include "core/index_domain.hpp"
#include "core/triplet.hpp"
#include "core/types.hpp"
#include "machine/step_accum.hpp"
#include "support/error.hpp"
#include "support/small_vector.hpp"

namespace hpfnt {

/// One maximal constant-owner run of a sectioned distribution. Runs never
/// cross a "row" boundary (a change of the fixed outer dimensions), so a
/// run always describes a 1-D arithmetic index sequence of the parent
/// domain (LayoutView::parent_index).
struct OwnerRun {
  Extent begin = 0;       ///< linear position (0-based, Fortran order) of the
                          ///< run's first element within the section domain
  Extent count = 0;       ///< number of consecutive section elements covered
  std::uint32_t set = 0;  ///< id of the run's owner set in RunTable::sets
};
static_assert(sizeof(OwnerRun) <= 24, "runs stay slim records");

/// A computed run table: the runs partition the section domain's linear
/// positions [0, size) exactly once, in order. `sets` pools the distinct
/// owner sets, exactly as owners(i) yields them; equal ids mean equal sets,
/// and adjacent runs of one row never share an id. `ownership_queries` is
/// the number of per-element payload probes spent building the table — the
/// figure the E1 run-based benchmark compares against a per-element sweep.
/// A table shared by several views (an identity-aligned array and its
/// base) was built once, so each view reports that one build's count.
struct RunTable {
  IndexDomain section_domain;
  std::vector<OwnerRun> runs;
  std::vector<OwnerSet> sets;
  Extent ownership_queries = 0;

  const OwnerSet& owners(const OwnerRun& run) const { return sets[run.set]; }
};

/// The owner set at a linear section position (binary search over runs).
const OwnerSet& owner_set_at(const RunTable& table, Extent linear_pos);

// min_owner / owner_set_contains — the canonical-replica helpers the run
// consumers below rely on — live with OwnerSet in core/types.hpp so layers
// beneath Distribution (processors, dist_format) share one definition.

class LayoutView {
 public:
  /// Builds (or fetches from the distribution's memo) the run table of
  /// `section` — one triplet per dimension of dist.domain(), interpreted
  /// against the domain's index values. Validates the section.
  LayoutView(Distribution dist, std::vector<Triplet> section);

  /// The whole-domain view. Memoizing this also arms the owners() shim.
  static LayoutView whole(const Distribution& dist);

  /// Computes a run table without touching any memo — neither the
  /// distribution's run memo nor the per-dimension segment-list memos
  /// (benchmark use: honest construction cost on every call).
  static RunTable compute(const Distribution& dist,
                          const std::vector<Triplet>& section);

  const Distribution& distribution() const noexcept { return dist_; }
  const std::vector<Triplet>& section() const noexcept { return section_; }
  const RunTable& table() const noexcept { return *table_; }
  const IndexDomain& section_domain() const noexcept {
    return table_->section_domain;
  }
  const std::vector<OwnerRun>& runs() const noexcept { return table_->runs; }
  Extent run_count() const noexcept {
    return static_cast<Extent>(table_->runs.size());
  }
  Extent size() const noexcept { return table_->section_domain.size(); }

  /// Per-element probes spent building the table — once, by whichever
  /// view built it: a memo hit, or an identity-aligned array's view of its
  /// base's table, reports the count of that one build, not probes of its
  /// own.
  Extent ownership_queries() const noexcept {
    return table_->ownership_queries;
  }

  /// The constant owner set of a run of this view.
  const OwnerSet& owners(const OwnerRun& run) const {
    return table_->owners(run);
  }

  /// Owner set of the element at a linear section position.
  const OwnerSet& owner_set_at(Extent linear_pos) const {
    return hpfnt::owner_set_at(*table_, linear_pos);
  }

  /// Parent-domain index of the run's element at `offset` (0-based,
  /// 0 <= offset < run.count), derived from its section position.
  IndexTuple parent_index(const OwnerRun& run, Extent offset) const;

  /// Calls `fn` for every run, in table order.
  template <typename Fn>
  void for_each_run(Fn&& fn) const {
    for (const OwnerRun& r : table_->runs) fn(r);
  }

 private:
  Distribution dist_;
  std::vector<Triplet> section_;
  std::shared_ptr<const RunTable> table_;
};

/// Walks two run tables over the same linear position space in lock step,
/// calling fn(begin, count, id_a, id_b) once per maximal segment on which
/// both owner sets are constant; id_a and id_b are the two runs' set ids,
/// into a.sets and b.sets respectively. The tables must cover the same
/// total size.
template <typename Fn>
void for_each_common_segment_ids(const RunTable& a, const RunTable& b,
                                 Fn&& fn) {
  const Extent total = a.section_domain.size();
  if (total != b.section_domain.size()) {
    throw InternalError("common-segment walk over tables of different sizes");
  }
  std::size_t ia = 0;
  std::size_t ib = 0;
  Extent pos = 0;
  while (pos < total) {
    const OwnerRun& ra = a.runs[ia];
    const OwnerRun& rb = b.runs[ib];
    const Extent end_a = ra.begin + ra.count;
    const Extent end_b = rb.begin + rb.count;
    const Extent end = std::min(end_a, end_b);
    fn(pos, end - pos, ra.set, rb.set);
    pos = end;
    if (pos == end_a) ++ia;
    if (pos == end_b) ++ib;
  }
}

/// for_each_common_segment_ids with the pooled sets in place of the ids:
/// fn(begin, count, owners_a, owners_b) once per common segment.
template <typename Fn>
void for_each_common_segment(const RunTable& a, const RunTable& b, Fn&& fn) {
  for_each_common_segment_ids(a, b, [&](Extent begin, Extent count,
                                        std::uint32_t ia, std::uint32_t ib) {
    fn(begin, count, a.sets[ia], b.sets[ib]);
  });
}

/// Element counts of one table summed per pooled set id: sets[id]'s share
/// of the positions, 0 for a pooled set no run names.
inline SmallVector<Extent, 256> set_counts(const RunTable& table) {
  SmallVector<Extent, 256> sums(table.sets.size(), 0);
  for (const OwnerRun& r : table.runs) sums[r.set] += r.count;
  return sums;
}

/// Element counts summed per (set id in a, set id in b) pair of two tables
/// over one position space. The ids index two different pools, so equal
/// ids do not mean equal sets. The counts live in a dense na x nb matrix
/// when na * nb <= max(runs(a) + runs(b), kInline), so its memory and its
/// scan stay within the walk's own size or a small constant (kInline
/// counts are held inline: a small walk allocates nothing); otherwise —
/// thousands of distinct user-defined sets — in a hashed table keyed by
/// the packed id pair. The choice is a function of the two tables alone.
class SetPairCounts {
 public:
  static constexpr std::size_t kInline = 256;

  SetPairCounts(const RunTable& a, const RunTable& b)
      : a_(&a),
        b_(&b),
        nb_(b.sets.size()),
        dense_(static_cast<std::uint64_t>(a.sets.size()) * nb_ <=
               std::max(a.runs.size() + b.runs.size(), kInline)) {
    if (dense_) counts_.resize(a.sets.size() * nb_, 0);
  }

  /// Whether the counts live in the dense matrix (else the hashed table).
  bool dense() const noexcept { return dense_; }

  void add(std::uint32_t ia, std::uint32_t ib, Extent count) {
    if (dense_) {
      counts_[ia * nb_ + ib] += count;
    } else {
      hashed_.accumulate(std::uint64_t{ia} << 32 | ib) += count;
    }
  }

  /// Calls fn(sum, a.sets[ia], b.sets[ib]) once per pair with a nonzero
  /// sum, in ascending (ia, ib) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    auto emit = [&](std::size_t ia, std::size_t ib, Extent sum) {
      fn(sum, a_->sets[ia], b_->sets[ib]);
    };
    if (dense_) {
      std::size_t k = 0;
      for (std::size_t ia = 0; ia < a_->sets.size(); ++ia) {
        for (std::size_t ib = 0; ib < nb_; ++ib, ++k) {
          if (counts_[k] != 0) emit(ia, ib, counts_[k]);
        }
      }
    } else {
      for (const auto& cell : hashed_.sorted()) {
        emit(cell.key >> 32, cell.key & 0xffffffffu, cell.payload);
      }
    }
  }

 private:
  const RunTable* a_;
  const RunTable* b_;
  std::size_t nb_;
  bool dense_;
  SmallVector<Extent, kInline> counts_;
  StepAccumTable<std::uint64_t, Extent> hashed_;
};

/// Walks two tables (for_each_common_segment_ids) and calls
/// fn(count, owners_a, owners_b) once per distinct owner-set pair with the
/// pair's summed element count, in ascending id order (SetPairCounts) —
/// O(distinct pairs) calls, not O(segments).
template <typename Fn>
void for_each_set_pair(const RunTable& a, const RunTable& b, Fn&& fn) {
  SetPairCounts counts(a, b);
  for_each_common_segment_ids(
      a, b, [&](Extent, Extent count, std::uint32_t ia, std::uint32_t ib) {
        counts.add(ia, ib, count);
      });
  counts.for_each(fn);
}

}  // namespace hpfnt
