#include "exec/overlap.hpp"

#include <algorithm>
#include <map>

#include "core/distribution.hpp"
#include "support/error.hpp"

namespace hpfnt {

Extent ShiftPlan::ghost_of(Index1 p) const {
  Extent total = 0;
  for (const ShiftMessage& msg : messages) {
    if (msg.dst == p) total += msg.count;
  }
  return total;
}

ShiftPlan plan_shift(const DimMapping& m, Extent shift) {
  ShiftPlan plan;
  plan.shift = shift;
  if (shift == 0 || m.n() == 0) return plan;

  std::map<std::pair<Index1, Index1>, Extent> counts;

  if (m.is_contiguous()) {
    // Closed form per destination block: the owner of i reads i+shift; the
    // reads leaving p's block [lo, hi] form the contiguous range
    // [hi+1, hi+shift] (for shift > 0) clipped to [1, n], which is then
    // carved up along the source blocks.
    for (Index1 p = 1; p <= m.np(); ++p) {
      if (m.local_count(p) == 0) continue;
      const auto [lo, hi] = m.block_range(p);
      Index1 first, last;  // the remote source range p must ghost
      if (shift > 0) {
        first = std::max<Index1>(hi + 1, lo + shift);
        last = std::min<Index1>(hi + shift, m.n());
      } else {
        first = std::max<Index1>(lo + shift, 1);
        last = std::min<Index1>(lo - 1, hi + shift);
      }
      Index1 i = first;
      while (i <= last) {
        const Index1 src = m.owner(i);
        const auto [slo, shi] = m.block_range(src);
        const Index1 run_end = std::min<Index1>(last, shi);
        counts[{src, p}] += run_end - i + 1;
        i = run_end + 1;
      }
    }
  } else {
    // Run-based walk for cyclic/irregular mappings: both the reader side
    // (owner of i) and the read side (owner of i+shift) are piecewise
    // constant, so advance one intersected constant-owner segment at a
    // time instead of one element at a time.
    const Index1 first = std::max<Index1>(1, 1 - shift);
    const Index1 last = std::min<Index1>(m.n(), m.n() - shift);
    Index1 i = first;
    while (i <= last) {
      const Index1 dst = m.owner(i);
      const Index1 src = m.owner(i + shift);
      const Index1 dst_end = m.segment_range(i).second;
      const Index1 src_end = m.segment_range(i + shift).second - shift;
      const Index1 end = std::min({last, dst_end, src_end});
      if (src != dst) counts[{src, dst}] += end - i + 1;
      i = end + 1;
    }
  }

  for (const auto& [pair, count] : counts) {
    plan.messages.push_back({pair.first, pair.second, count});
    plan.remote_elements += count;
  }
  return plan;
}

std::vector<OverlapArea> overlap_areas(const DimMapping& m,
                                       const std::vector<Extent>& shifts) {
  if (!m.is_contiguous()) {
    throw InternalError(
        "overlap areas are defined for contiguous (block-family) mappings");
  }
  std::vector<OverlapArea> areas(static_cast<std::size_t>(m.np()));
  for (Extent shift : shifts) {
    ShiftPlan plan = plan_shift(m, shift);
    // A ghost range may be carved across several source blocks; the area a
    // destination needs for this shift is the *sum* of its incoming counts,
    // and across shifts of the same sign the ranges nest, so take the max.
    std::vector<Extent> ghost(static_cast<std::size_t>(m.np()), 0);
    for (const ShiftMessage& msg : plan.messages) {
      ghost[static_cast<std::size_t>(msg.dst - 1)] += msg.count;
    }
    for (Index1 p = 1; p <= m.np(); ++p) {
      OverlapArea& area = areas[static_cast<std::size_t>(p - 1)];
      if (shift > 0) {
        area.right = std::max(area.right, ghost[static_cast<std::size_t>(p - 1)]);
      } else {
        area.left = std::max(area.left, ghost[static_cast<std::size_t>(p - 1)]);
      }
    }
  }
  return areas;
}

std::optional<std::vector<Extent>> section_shift(
    const std::vector<Triplet>& from, const std::vector<Triplet>& to) {
  if (from.size() != to.size()) return std::nullopt;
  std::vector<Extent> shifts(from.size(), 0);
  for (std::size_t d = 0; d < from.size(); ++d) {
    const Triplet& a = from[d];
    const Triplet& b = to[d];
    // The element sets are {lower + k*stride : k < size}, so equal strides
    // and sizes make `to` the translate of `from` by the lower-bound delta.
    if (a.stride() != b.stride() || a.size() != b.size()) return std::nullopt;
    shifts[d] = b.lower() - a.lower();
  }
  return shifts;
}

bool shadow_covers(const Distribution& lhs_dist, const Distribution& leaf_dist,
                   const std::vector<Extent>& shifts,
                   const std::vector<ShadowWidth>& shadow) {
  // The coverage argument needs the reader of index i and the owner of the
  // operand element i+shift to live on the SAME mapping: then every remote
  // read is at distance |shift| beyond the reader's own block, i.e. inside
  // a ghost region of at least that width. An identity alignment is its
  // base's mapping (CONSTRUCT(id, δ) = δ); other aligned/constructed or
  // section-view payloads fall back to the sync phase.
  const Distribution& lhs = resolve_identity(lhs_dist);
  const Distribution& leaf = resolve_identity(leaf_dist);
  if (lhs.kind() != Distribution::Kind::kFormats ||
      leaf.kind() != Distribution::Kind::kFormats) {
    return false;
  }
  if (!lhs.structurally_equal(leaf)) return false;
  for (std::size_t d = 0; d < shifts.size(); ++d) {
    const Extent shift = shifts[d];
    if (shift == 0) continue;
    const DimMapping& m = lhs.dim_mapping(static_cast<int>(d));
    // A collapsed dimension is not distributed: shifts along it never
    // leave the owner, so they are covered with no shadow at all.
    if (m.kind() == FormatKind::kCollapsed) continue;
    if (!m.is_contiguous()) return false;
    const Extent left = d < shadow.size() ? shadow[d].left : 0;
    const Extent right = d < shadow.size() ? shadow[d].right : 0;
    if (shift > 0 ? right < shift : left < -shift) return false;
  }
  return true;
}

CommClass classify_operand_comm(const Distribution& lhs,
                                const std::vector<Triplet>& lhs_section,
                                const Distribution& leaf,
                                const std::vector<Triplet>& leaf_section,
                                const std::vector<ShadowWidth>& shadow) {
  const std::optional<std::vector<Extent>> shifts =
      section_shift(lhs_section, leaf_section);
  if (!shifts) return CommClass::kSync;
  bool shifted = false;
  for (Extent sft : *shifts) shifted |= (sft != 0);
  if (!shifted) {
    // The identical section on an identical mapping (an identity
    // alignment being its base's): the owner of each LHS element owns the
    // operand element, so every read is local. On any other mapping some
    // reads may cross processors synchronously.
    return resolve_identity(lhs).structurally_equal(resolve_identity(leaf))
               ? CommClass::kLocal
               : CommClass::kSync;
  }
  return shadow_covers(lhs, leaf, *shifts, shadow) ? CommClass::kPosted
                                                   : CommClass::kSync;
}

std::vector<OverlapArea> shadow_areas(const DimMapping& m, Extent left,
                                      Extent right) {
  if (!m.is_contiguous()) {
    throw InternalError(
        "shadow areas are defined for contiguous (block-family) mappings");
  }
  std::vector<OverlapArea> areas(static_cast<std::size_t>(m.np()));
  for (Index1 p = 1; p <= m.np(); ++p) {
    if (m.local_count(p) == 0) continue;
    const auto [lo, hi] = m.block_range(p);
    OverlapArea& area = areas[static_cast<std::size_t>(p - 1)];
    area.left = std::min<Extent>(left, lo - 1);
    area.right = std::min<Extent>(right, m.n() - hi);
  }
  return areas;
}

}  // namespace hpfnt
