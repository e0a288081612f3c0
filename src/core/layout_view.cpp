#include "core/layout_view.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "core/alignment.hpp"
#include "core/dist_format.hpp"
#include "core/set_interner.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

namespace {

// "No structural boundary along this dimension": the caller clamps to the
// row remaining. Kept well below the Extent range so span+1 cannot wrap.
constexpr Extent kUnbounded = std::numeric_limits<Extent>::max() / 4;

// Returns how many additional elements beyond idx — stepping idx[dim] by
// `step` each time, all other coordinates fixed — are *guaranteed* to keep
// the owner set unchanged. A sound lower bound: 0 is always safe and is
// what non-linear (MAX/MIN) alignment subscripts report; the run builder's
// probe-and-merge loop restores maximality in that case.
Extent same_owner_span(const Distribution& dist, int dim,
                       const IndexTuple& idx, Index1 step);

// kFormats: only dimension `dim`'s mapping varies, so the span is the rest
// of its constant-owner segment (block, cyclic segment, scanned table run),
// walked at the section's stride.
Extent formats_span(const Distribution& dist, int dim, const IndexTuple& idx,
                    Index1 step) {
  const DimMapping& m = dist.dim_mapping(dim);
  if (m.kind() == FormatKind::kCollapsed) return kUnbounded;
  const Index1 norm =
      idx[static_cast<std::size_t>(dim)] - dist.domain().lower(dim) + 1;
  const auto [seg_lo, seg_hi] = m.segment_range(norm);
  return step > 0 ? (seg_hi - norm) / step : (norm - seg_lo) / (-step);
}

// kConstructed: composition through α (Definition 4). Each base dimension
// driven by alignee dimension `dim` must be linear a*J+b; its contribution
// is constant while the image y stays inside the base segment the recursion
// reports — or, under the §5.1 clamp rule, while y stays beyond the same
// bound. Non-linear (MAX/MIN) subscripts yield no guarantee.
Extent constructed_span(const Distribution& dist, int dim,
                        const IndexTuple& idx, Index1 step) {
  const AlignmentFunction& alpha = dist.alignment();
  const Distribution& base = dist.base();
  const std::vector<AlignmentFunction::BaseDim>& bdims = alpha.base_dims();
  Extent span = kUnbounded;
  bool have_image = false;
  IndexTuple image;
  for (std::size_t bd = 0; bd < bdims.size(); ++bd) {
    const AlignmentFunction::BaseDim& spec = bdims[bd];
    if (spec.kind != AlignmentFunction::BaseDim::Kind::kExpr) continue;
    if (spec.alignee_dim != dim) continue;
    const std::optional<AlignExpr::Linear> lin = spec.expr.linear();
    if (!lin) return 0;
    const Index1 dstep = lin->a * step;
    if (dstep == 0) continue;
    const Index1 y0 = spec.expr.eval(idx[static_cast<std::size_t>(dim)]);
    const Index1 lb = alpha.base_domain().lower(static_cast<int>(bd));
    const Index1 ub = alpha.base_domain().upper(static_cast<int>(bd));
    Extent this_span;
    if (y0 < lb) {
      this_span = dstep > 0 ? (lb - 1 - y0) / dstep : kUnbounded;
    } else if (y0 > ub) {
      this_span = dstep < 0 ? (y0 - ub - 1) / (-dstep) : kUnbounded;
    } else {
      const Extent in_bounds =
          dstep > 0 ? (ub - y0) / dstep : (y0 - lb) / (-dstep);
      if (!have_image) {
        image = alpha.image(idx);
        have_image = true;
      }
      IndexTuple j = image;
      j[bd] = y0;
      this_span = std::min(
          in_bounds, same_owner_span(base, static_cast<int>(bd), j, dstep));
    }
    span = std::min(span, this_span);
    if (span == 0) return 0;
  }
  return span;
}

Extent same_owner_span(const Distribution& dist, int dim,
                       const IndexTuple& idx, Index1 step) {
  switch (dist.kind()) {
    case Distribution::Kind::kFormats:
      return formats_span(dist, dim, idx, step);
    case Distribution::Kind::kConstructed:
      return constructed_span(dist, dim, idx, step);
    case Distribution::Kind::kSectionView: {
      // Restriction: compose the view's triplet into the parent's index
      // space and ask the parent.
      const Distribution& parent = dist.section_parent();
      const std::vector<Triplet>& trips = dist.section_triplets();
      IndexTuple pidx = parent.domain().section_parent_index(trips, idx);
      return same_owner_span(
          parent, dim, pidx,
          trips[static_cast<std::size_t>(dim)].stride() * step);
    }
  }
  return 0;
}

// kFormats run construction by outer-product composition of the payload's
// per-dimension segment lists (DimMapping::segment_list): no per-element
// probe is ever issued — the probes are the per-dimension segment walks,
// shared across every section of the payload that agrees in a dimension's
// triplet. A row's owner sets depend only on the outer dimensions' set ids,
// so each distinct (dim-0 set, outer sets) tuple is composed once per change
// of the outer ids, not once per dim-0 segment.
void build_formats_runs(const Distribution& dist,
                        const std::vector<Triplet>& section, RunTable& out,
                        bool use_dim_memo) {
  const int rank = static_cast<int>(section.size());
  const IndexDomain& domain = dist.domain();
  const ProcessorRef& target = dist.target();

  std::vector<std::shared_ptr<const DimSegmentList>> lists;
  lists.reserve(static_cast<std::size_t>(rank));
  for (int d = 0; d < rank; ++d) {
    const Triplet& t = section[static_cast<std::size_t>(d)];
    const Index1 shift = domain.lower(d) - 1;
    const Triplet norm(t.lower() - shift, t.upper() - shift, t.stride());
    const DimMapping& m = dist.dim_mapping(d);
    if (use_dim_memo) {
      Extent charged = 0;
      lists.push_back(m.segment_list(norm, &charged));
      out.ownership_queries += charged;
    } else {
      auto fresh =
          std::make_shared<const DimSegmentList>(m.compute_segment_list(norm));
      out.ownership_queries += fresh->probes;
      lists.push_back(std::move(fresh));
    }
  }

  // Expand each outer dimension's list into per-position set ids (cheap
  // fill; all probes were spent above).
  std::vector<std::vector<std::uint32_t>> outer_ids(
      static_cast<std::size_t>(rank - 1));
  Extent rows = 1;
  for (int d = 1; d < rank; ++d) {
    auto& ids = outer_ids[static_cast<std::size_t>(d - 1)];
    const Extent len = section[static_cast<std::size_t>(d)].size();
    ids.reserve(static_cast<std::size_t>(len));
    for (const DimSegment& s : lists[static_cast<std::size_t>(d)]->segments) {
      ids.insert(ids.end(), static_cast<std::size_t>(s.count), s.set);
    }
    rows *= len;
  }

  const DimSegmentList& list0 = *lists[0];
  const Extent len0 = section[0].size();
  // Every dim-0 segment of every row opening a run bounds the table.
  out.runs.reserve(list0.segments.size() * static_cast<std::size_t>(rows));

  // Dims contributing a target coordinate, ascending (collapsed dims skip).
  SmallVector<int, kMaxRank> coord_dims;
  for (int d = 0; d < rank; ++d) {
    if (dist.dim_mapping(d).kind() != FormatKind::kCollapsed) {
      coord_dims.push_back(d);
    }
  }

  SetInterner<OwnerSet> pool(out.sets);
  std::vector<std::uint32_t> row_ids(list0.sets.size());
  std::array<const DimOwnerSet*, kMaxRank> dim_sets{};
  SmallVector<std::uint32_t, kMaxRank> cur_outer(
      static_cast<std::size_t>(rank - 1), 0);
  bool row_valid = false;

  SmallVector<Extent, kMaxRank> opos(static_cast<std::size_t>(rank - 1), 0);
  Extent linear = 0;
  while (true) {
    bool changed = !row_valid;
    for (std::size_t o = 0; o + 1 < static_cast<std::size_t>(rank); ++o) {
      const std::uint32_t id =
          outer_ids[o][static_cast<std::size_t>(opos[o])];
      if (id != cur_outer[o]) {
        cur_outer[o] = id;
        changed = true;
      }
    }
    if (changed) {
      for (std::size_t s0 = 0; s0 < list0.sets.size(); ++s0) {
        std::size_t c = 0;
        for (int d : coord_dims) {
          dim_sets[c++] =
              d == 0 ? &list0.sets[s0]
                     : &lists[static_cast<std::size_t>(d)]
                            ->sets[cur_outer[static_cast<std::size_t>(d - 1)]];
        }
        row_ids[s0] = pool.intern(compose_dim_owners(target, dim_sets, c));
      }
      row_valid = true;
    }
    // Emit this row's runs, merging adjacent equal owner sets exactly as
    // the probe-based walk does (distinct per-dimension positions can
    // compose to one owner set, e.g. under a folded oversize arrangement).
    const std::size_t row_first = out.runs.size();
    Extent k = 0;
    for (const DimSegment& s : list0.segments) {
      const std::uint32_t id = row_ids[s.set];
      if (out.runs.size() > row_first && out.runs.back().set == id) {
        out.runs.back().count += s.count;
      } else {
        out.runs.push_back({linear + k, s.count, id});
      }
      k += s.count;
    }
    linear += len0;
    int d = 1;
    for (; d < rank; ++d) {
      Extent& o = opos[static_cast<std::size_t>(d - 1)];
      if (++o < section[static_cast<std::size_t>(d)].size()) break;
      o = 0;
    }
    if (d == rank) break;
  }
  // Merges (rare: only when distinct positions fold onto one owner set)
  // can leave most of the reservation unused.
  if (out.runs.size() * 2 < out.runs.capacity()) out.runs.shrink_to_fit();
}

std::vector<Index1> section_key(const std::vector<Triplet>& section) {
  std::vector<Index1> key;
  key.reserve(section.size() * 3);
  for (const Triplet& t : section) {
    key.push_back(t.lower());
    key.push_back(t.upper());
    key.push_back(t.stride());
  }
  return key;
}

void build_runs(const Distribution& dist, const std::vector<Triplet>& section,
                RunTable& out, bool use_dim_memo) {
  const int rank = static_cast<int>(section.size());
  if (rank == 0) {
    out.sets.push_back(dist.owners_uncached(IndexTuple{}));
    ++out.ownership_queries;
    out.runs.push_back({0, 1, 0});
    return;
  }
  if (out.section_domain.size() == 0) return;
  if (dist.kind() == Distribution::Kind::kFormats) {
    // Analytic composition of the per-dimension segment lists — no
    // per-element probes, and lists are shared across sections.
    build_formats_runs(dist, section, out, use_dim_memo);
    return;
  }

  const Triplet& t0 = section[0];
  const Extent len0 = t0.size();
  SetInterner<OwnerSet> pool(out.sets);

  // Odometer over the outer dimensions' section positions, Fortran order
  // (dimension 1 varies fastest among them; dimension 0 is the run axis).
  SmallVector<Extent, kMaxRank> opos(
      static_cast<std::size_t>(rank - 1), 0);
  IndexTuple idx;
  idx.resize(static_cast<std::size_t>(rank));
  Extent linear = 0;
  while (true) {
    for (int d = 1; d < rank; ++d) {
      idx[static_cast<std::size_t>(d)] =
          section[static_cast<std::size_t>(d)].at(
              opos[static_cast<std::size_t>(d - 1)]);
    }
    // Walk one row: probe at each structural boundary, merge when the probe
    // repeats the open run's owner set (restores maximality where the
    // structural span is conservative, e.g. CYCLIC on one processor).
    const std::size_t row_first = out.runs.size();
    Extent k = 0;
    while (k < len0) {
      idx[0] = t0.at(k);
      const std::uint32_t id = pool.intern(dist.owners_uncached(idx));
      ++out.ownership_queries;
      Extent span = same_owner_span(dist, 0, idx, t0.stride());
      span = std::min(span, len0 - 1 - k);
      if (out.runs.size() > row_first && out.runs.back().set == id) {
        out.runs.back().count += span + 1;
      } else {
        out.runs.push_back({linear + k, span + 1, id});
      }
      k += span + 1;
    }
    linear += len0;
    int d = 1;
    for (; d < rank; ++d) {
      Extent& o = opos[static_cast<std::size_t>(d - 1)];
      if (++o < section[static_cast<std::size_t>(d)].size()) break;
      o = 0;
    }
    if (d == rank) break;
  }
}

}  // namespace

const OwnerSet& owner_set_at(const RunTable& table, Extent linear_pos) {
  auto it = std::upper_bound(
      table.runs.begin(), table.runs.end(), linear_pos,
      [](Extent pos, const OwnerRun& r) { return pos < r.begin; });
  if (it == table.runs.begin()) {
    throw MappingError(cat("position ", linear_pos, " before any run"));
  }
  --it;
  if (linear_pos >= it->begin + it->count) {
    throw MappingError(cat("position ", linear_pos, " beyond the run table"));
  }
  return table.owners(*it);
}

LayoutView::LayoutView(Distribution dist, std::vector<Triplet> section)
    : dist_(std::move(dist)), section_(std::move(section)) {
  dist_.domain().validate_section(section_);
  RunMemo& memo = dist_.run_memo();
  const std::vector<Index1> key = section_key(section_);
  if (std::shared_ptr<const void> hit = memo.lookup(key)) {
    table_ = std::static_pointer_cast<const RunTable>(hit);
    return;
  }
  std::shared_ptr<const RunTable> table;
  if (dist_.kind() == Distribution::Kind::kConstructed &&
      dist_.alignment().is_identity()) {
    // CONSTRUCT(id, δ_B) = δ_B (Definition 4): every element has exactly
    // its base's owners, over the same domain, so the alignee holds the
    // base's table for this section, built or fetched through the base's
    // own memo.
    table = LayoutView(dist_.base(), section_).table_;
  } else {
    // The memoized path also shares the payload's per-dimension segment
    // lists across sections (DimMapping::segment_list). The section was
    // validated above.
    RunTable computed;
    computed.section_domain = dist_.domain().section_domain(section_);
    build_runs(dist_, section_, computed, /*use_dim_memo=*/true);
    table = std::make_shared<RunTable>(std::move(computed));
  }
  memo.insert(key, table, section_ == dist_.domain().dims());
  table_ = std::move(table);
}

LayoutView LayoutView::whole(const Distribution& dist) {
  return LayoutView(dist, dist.domain().dims());
}

RunTable LayoutView::compute(const Distribution& dist,
                             const std::vector<Triplet>& section) {
  dist.domain().validate_section(section);
  RunTable out;
  out.section_domain = dist.domain().section_domain(section);
  build_runs(dist, section, out, /*use_dim_memo=*/false);
  return out;
}

IndexTuple LayoutView::parent_index(const OwnerRun& run, Extent offset) const {
  if (section_.empty()) return IndexTuple{};  // rank-0: the single empty tuple
  return dist_.domain().section_parent_index(
      section_, section_domain().delinearize(run.begin + offset));
}

}  // namespace hpfnt
