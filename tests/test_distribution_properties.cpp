// Property suites over full multi-dimensional Distributions (§2.2): the
// laws that must hold for every format pair, target shape and lower bound —
// totality, partition, count consistency, section-view composition, and
// equivalence with the formats' INDIRECT (table) materialization.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/distribution.hpp"

namespace hpfnt {
namespace {

DistFormat format_of(int which) {
  switch (which) {
    case 0:
      return DistFormat::block();
    case 1:
      return DistFormat::vienna_block();
    case 2:
      return DistFormat::cyclic(1);
    case 3:
      return DistFormat::cyclic(3);
    case 4:
      return DistFormat::general_block({3, 3, 9});
    default:
      return DistFormat::collapsed();
  }
}

// (format dim 1, format dim 2, lower-bound offset)
using Params = std::tuple<int, int, int>;

class DistributionLaws : public ::testing::TestWithParam<Params> {
 protected:
  DistributionLaws() : ps_(16) {
    ps_.declare("Q", IndexDomain::of_extents({16}));
    ps_.declare("G", IndexDomain::of_extents({4, 4}));
  }

  Distribution build() {
    const auto [f1, f2, lb] = GetParam();
    domain_ = IndexDomain{Dim(lb, lb + 11), Dim(lb, lb + 9)};
    DistFormat a = format_of(f1);
    DistFormat b = format_of(f2);
    const int distributed =
        (a.is_collapsed() ? 0 : 1) + (b.is_collapsed() ? 0 : 1);
    ProcessorRef target =
        distributed == 2
            ? ProcessorRef(ps_.find("G"))
            : (distributed == 1
                   ? ProcessorRef(ps_.find("Q"),
                                  {TargetSub::range(Triplet(1, 4))})
                   : ProcessorRef(ps_.find("Q"), {TargetSub::at(3)}));
    return Distribution::formats(domain_, {a, b}, target);
  }

  ProcessorSpace ps_;
  IndexDomain domain_;
};

TEST_P(DistributionLaws, TotalityAndSingleOwnership) {
  // §2.2: total function into non-empty owner sets; these formats never
  // replicate, so owner sets are singletons.
  Distribution d = build();
  domain_.for_each([&](const IndexTuple& idx) {
    OwnerSet owners = d.owners(idx);
    ASSERT_EQ(owners.size(), 1u);
    ASSERT_GE(owners[0], 0);
    ASSERT_LT(owners[0], 16);
  });
}

TEST_P(DistributionLaws, LocalCountsPartitionTheDomain) {
  Distribution d = build();
  Extent total = 0;
  for (ApId p = 0; p < 16; ++p) total += d.local_count(p);
  EXPECT_EQ(total, domain_.size());
}

TEST_P(DistributionLaws, ForEachOwnedAgreesWithOwners) {
  Distribution d = build();
  std::set<Extent> seen;
  for (ApId p = 0; p < 16; ++p) {
    Extent count = 0;
    d.for_each_owned(p, [&](const IndexTuple& idx) {
      ASSERT_TRUE(d.is_owner(p, idx));
      ASSERT_TRUE(seen.insert(domain_.linearize(idx)).second);
      ++count;
    });
    ASSERT_EQ(count, d.local_count(p));
  }
  EXPECT_EQ(static_cast<Extent>(seen.size()), domain_.size());
}

TEST_P(DistributionLaws, MaterializationPreservesEverything) {
  // Materialize every distributed dimension's owner map as an INDIRECT
  // table over the same target: the table-valued format must reproduce the
  // mapping element-wise and every processor's local count.
  Distribution d = build();
  std::vector<DistFormat> tables;
  for (int dim = 0; dim < domain_.rank(); ++dim) {
    const DistFormat& f = d.format_list()[static_cast<std::size_t>(dim)];
    if (f.is_collapsed()) {
      tables.push_back(f);
      continue;
    }
    std::vector<Extent> map;
    for (Index1 i = 1; i <= domain_.extent(dim); ++i) {
      map.push_back(d.dim_mapping(dim).owners(i).front());
    }
    tables.push_back(DistFormat::indirect(std::move(map)));
  }
  Distribution frozen = Distribution::formats(domain_, tables, d.target());
  EXPECT_TRUE(frozen.same_mapping(d));
  for (ApId p = 0; p < 16; ++p) {
    EXPECT_EQ(frozen.local_count(p), d.local_count(p));
  }
}

TEST_P(DistributionLaws, SectionViewComposesWithParent) {
  // view.owners(k) == parent.owners(section(k)), for a strided section.
  Distribution d = build();
  std::vector<Triplet> section{
      Triplet(domain_.lower(0) + 1, domain_.upper(0), 2),
      Triplet(domain_.lower(1), domain_.upper(1), 3)};
  Distribution view = Distribution::section_view(d, section);
  view.domain().for_each([&](const IndexTuple& pos) {
    IndexTuple parent = domain_.section_parent_index(section, pos);
    ASSERT_EQ(view.owners(pos), d.owners(parent));
  });
  // And a section of the section composes again.
  std::vector<Triplet> inner{Triplet(1, view.domain().upper(0), 2),
                             Triplet(1, view.domain().upper(1))};
  Distribution view2 = Distribution::section_view(view, inner);
  view2.domain().for_each([&](const IndexTuple& pos) {
    IndexTuple mid = view.domain().section_parent_index(inner, pos);
    ASSERT_EQ(view2.owners(pos), view.owners(mid));
  });
}

TEST_P(DistributionLaws, ConstructedIdentityEqualsBase) {
  // CONSTRUCT(identity, δ) is element-wise the same mapping as δ.
  Distribution d = build();
  AlignmentFunction identity =
      AlignmentFunction::identity(domain_, domain_);
  Distribution derived = Distribution::constructed(identity, d);
  EXPECT_TRUE(derived.same_mapping(d));
}

std::vector<Params> all_params() {
  std::vector<Params> params;
  for (int f1 = 0; f1 < 6; ++f1) {
    for (int f2 = 0; f2 < 6; ++f2) {
      for (int lb : {-3, 1}) {
        params.emplace_back(f1, f2, lb);
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributionLaws, ::testing::ValuesIn(all_params()),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "f" + std::to_string(std::get<0>(info.param)) + "g" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) < 0 ? "_neg" : "_one");
    });

}  // namespace
}  // namespace hpfnt
