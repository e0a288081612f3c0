#include "core/layout_view.hpp"

#include <algorithm>

#include "core/pair_counts.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

namespace {

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
  const Distribution& resolved = resolve_identity(dist_);
  if (&resolved != &dist_) {
    // CONSTRUCT(id, δ_B) = δ_B (Definition 4): every element has exactly
    // its base's owners, over the same domain, so the alignee holds the
    // base's table for this section, built or fetched through the base's
    // own memo.
    table = LayoutView(resolved, section_).table_;
  } else {
    // The memoized path also shares the root's per-dimension segment
    // lists across sections (DimMapping::segment_list). The section was
    // validated above.
    RunTable computed;
    computed.section_domain = dist_.domain().section_domain(section_);
    detail::build_run_table(dist_, section_, computed, /*use_dim_memo=*/true);
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
  detail::build_run_table(dist, section, out, /*use_dim_memo=*/false);
  return out;
}

IndexTuple LayoutView::parent_index(const OwnerRun& run, Extent offset) const {
  if (section_.empty()) return IndexTuple{};  // rank-0: the single empty tuple
  return dist_.domain().section_parent_index(
      section_, section_domain().delinearize(run.begin + offset));
}

}  // namespace hpfnt
