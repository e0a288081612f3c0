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
// segment. parent_index() recovers a run's parent-domain indices from its
// position.
//
// Pricing, storage accounting, checkpoint, recovery and same_mapping do
// not build tables: they read per-owner-set-pair counts composed one
// dimension at a time (core/pair_counts.hpp). Tables back the owners()
// shim, the value patches of a recovery that lost every replica, and the
// benchmarks' construction probes.
//
// Every payload kind's table has one builder: the payload reduces to its
// root kFormats payload and one index map per root dimension (the normal
// form of core/pair_counts.hpp: an alignment's α and a section view's
// triplets composed per dimension, §5.1 clamps as constant pieces), and
// the per-dimension constant-owner segment lists of that form
// (DimMapping::segment_list — block bounds, cyclic segments, GENERAL_BLOCK
// bound arrays; memoized per root payload per dimension, so sections
// sharing a dimension's image triplet share the list) are composed by
// outer product into runs, one owner-set composition per distinct
// per-dimension set tuple, without any per-element probe. An identity α
// (ALIGN W(I) WITH U(I): CONSTRUCT(id, δ_U) = δ_U) builds nothing: W's
// view holds the very RunTable object U's view of the same section holds,
// fetched through U's memo. Tables are memoized per Distribution payload
// keyed by the section (Distribution::run_memo), so repeated sweeps of the
// same section are free. Distribution::owners(IndexTuple) remains as a
// thin per-element compatibility shim answered from the memoized
// whole-domain table when one exists.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/distribution.hpp"
#include "core/index_domain.hpp"
#include "core/triplet.hpp"
#include "core/types.hpp"

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
/// owner sets; equal ids mean equal sets, and adjacent runs of one row
/// never share an id. `ownership_queries` is the number of payload probes
/// spent building the table: the probes of the per-dimension segment lists
/// it computed (a memoized list it reuses costs none), one per constant
/// index it looked up, and one for a scalar — the figure the E1 run-based
/// benchmark compares against a per-element sweep. A table shared by
/// several views (an identity-aligned array and its base) was built once,
/// so each view reports that one build's count.
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

  /// Payload probes spent building the table (RunTable::ownership_queries)
  /// — once, by whichever view built it: a memo hit, or an identity-aligned
  /// array's view of its base's table, reports the count of that one
  /// build, not probes of its own.
  Extent ownership_queries() const noexcept {
    return table_->ownership_queries;
  }

  /// The constant owner set of a run of this view.
  const OwnerSet& owners(const OwnerRun& run) const {
    return table_->owners(run);
  }

  /// Parent-domain index of the run's element at `offset` (0-based,
  /// 0 <= offset < run.count), derived from its section position.
  IndexTuple parent_index(const OwnerRun& run, Extent offset) const;

 private:
  Distribution dist_;
  std::vector<Triplet> section_;
  std::shared_ptr<const RunTable> table_;
};

}  // namespace hpfnt
