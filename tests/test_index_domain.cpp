#include "core/index_domain.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/error.hpp"

namespace hpfnt {
namespace {

IndexTuple idx(std::initializer_list<Index1> values) {
  IndexTuple t;
  for (Index1 v : values) t.push_back(v);
  return t;
}

TEST(IndexDomain, RankZeroHasExactlyOneElement) {
  // §2.2: scalars are rank-0 arrays with a one-element index domain.
  IndexDomain d;
  EXPECT_EQ(d.rank(), 0);
  EXPECT_EQ(d.size(), 1);
  EXPECT_FALSE(d.empty());
  EXPECT_TRUE(d.contains(IndexTuple{}));
}

TEST(IndexDomain, DimBuilderMatchesFortranDeclaration) {
  IndexDomain d{Dim(0, 10), Dim(1, 5)};  // A(0:10, 1:5)
  EXPECT_EQ(d.rank(), 2);
  EXPECT_EQ(d.extent(0), 11);
  EXPECT_EQ(d.extent(1), 5);
  EXPECT_EQ(d.size(), 55);
  EXPECT_EQ(d.lower(0), 0);
  EXPECT_EQ(d.upper(1), 5);
}

TEST(IndexDomain, OfExtentsUsesLowerBoundOne) {
  IndexDomain d = IndexDomain::of_extents({4, 3});
  EXPECT_EQ(d.lower(0), 1);
  EXPECT_EQ(d.upper(0), 4);
  EXPECT_EQ(d.size(), 12);
}

TEST(IndexDomain, StandardRequiresStrideOne) {
  EXPECT_TRUE((IndexDomain{Dim(0, 9), Dim(1, 3)}).is_standard());
  IndexDomain strided(std::vector<Triplet>{Triplet(1, 9, 2)});
  EXPECT_FALSE(strided.is_standard());
}

TEST(IndexDomain, ContainsChecksEveryDimension) {
  IndexDomain d{Dim(0, 4), Dim(1, 3)};
  EXPECT_TRUE(d.contains(idx({0, 1})));
  EXPECT_TRUE(d.contains(idx({4, 3})));
  EXPECT_FALSE(d.contains(idx({5, 1})));
  EXPECT_FALSE(d.contains(idx({0, 0})));
  EXPECT_FALSE(d.contains(idx({0})));  // rank mismatch
}

TEST(IndexDomain, LinearizeIsFortranColumnMajor) {
  IndexDomain d{Dim(1, 3), Dim(1, 2)};
  // Fortran order: (1,1) (2,1) (3,1) (1,2) (2,2) (3,2)
  EXPECT_EQ(d.linearize(idx({1, 1})), 0);
  EXPECT_EQ(d.linearize(idx({2, 1})), 1);
  EXPECT_EQ(d.linearize(idx({3, 1})), 2);
  EXPECT_EQ(d.linearize(idx({1, 2})), 3);
  EXPECT_EQ(d.linearize(idx({3, 2})), 5);
}

TEST(IndexDomain, LinearizeRespectsLowerBounds) {
  IndexDomain d{Dim(0, 2), Dim(-1, 0)};
  EXPECT_EQ(d.linearize(idx({0, -1})), 0);
  EXPECT_EQ(d.linearize(idx({2, 0})), 5);
}

TEST(IndexDomain, DelinearizeInvertsLinearize) {
  IndexDomain d{Dim(0, 3), Dim(1, 4), Dim(-2, -1)};
  for (Extent pos = 0; pos < d.size(); ++pos) {
    EXPECT_EQ(d.linearize(d.delinearize(pos)), pos);
  }
  EXPECT_THROW(d.delinearize(d.size()), MappingError);
  EXPECT_THROW(d.delinearize(-1), MappingError);
}

TEST(IndexDomain, LinearizeOutsideThrows) {
  IndexDomain d{Dim(1, 3)};
  EXPECT_THROW(d.linearize(idx({4})), MappingError);
}

TEST(IndexDomain, ForEachVisitsAllInFortranOrder) {
  IndexDomain d{Dim(1, 2), Dim(1, 2)};
  std::vector<IndexTuple> seen;
  d.for_each([&](const IndexTuple& i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], idx({1, 1}));
  EXPECT_EQ(seen[1], idx({2, 1}));  // first dimension varies fastest
  EXPECT_EQ(seen[2], idx({1, 2}));
  EXPECT_EQ(seen[3], idx({2, 2}));
}

TEST(IndexDomain, ForEachRankZeroVisitsOnce) {
  IndexDomain d;
  int count = 0;
  d.for_each([&](const IndexTuple& i) {
    EXPECT_EQ(i.size(), 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(IndexDomain, ForEachEmptyDomainVisitsNothing) {
  IndexDomain d{Dim(1, 0)};
  int count = 0;
  d.for_each([&](const IndexTuple&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(IndexDomain, SizeThatOverflowsAnExtentIsRejected) {
  // 4e9 * 4e9 = 1.6e19 > 2^63 - 1: every constructor refuses it.
  EXPECT_THROW((IndexDomain{Dim(4000000000), Dim(4000000000)}),
               ConformanceError);
  EXPECT_THROW(IndexDomain::of_extents({4000000000, 4000000000}),
               ConformanceError);
  EXPECT_THROW(IndexDomain({Triplet(1, 3037000500), Triplet(1, 3037000500)}),
               ConformanceError);
  // 2e9 * 2e9 = 4e18 still fits.
  EXPECT_EQ((IndexDomain{Dim(2000000000), Dim(2000000000)}).size(),
            4000000000000000000);
  // An empty dimension makes the domain empty, whatever the others hold.
  const IndexDomain empty{Dim(4000000000), Dim(4000000000), Dim(1, 0)};
  EXPECT_EQ(empty.size(), 0);
  EXPECT_TRUE(empty.empty());
}

TEST(IndexDomain, SectionDomainIsStandard) {
  IndexDomain d{Dim(1, 1000)};
  IndexDomain view = d.section_domain({Triplet(2, 996, 2)});
  EXPECT_EQ(view.rank(), 1);
  EXPECT_EQ(view.lower(0), 1);
  EXPECT_EQ(view.upper(0), 498);  // 498 elements in 2:996:2
}

TEST(IndexDomain, SectionParentIndexMapsBack) {
  IndexDomain d{Dim(1, 1000)};
  std::vector<Triplet> s{Triplet(2, 996, 2)};
  EXPECT_EQ(d.section_parent_index(s, idx({1})), idx({2}));
  EXPECT_EQ(d.section_parent_index(s, idx({2})), idx({4}));
  EXPECT_EQ(d.section_parent_index(s, idx({498})), idx({996}));
  EXPECT_THROW(d.section_parent_index(s, idx({499})), MappingError);
}

TEST(IndexDomain, SectionValidationRejectsEscapes) {
  IndexDomain d{Dim(1, 10), Dim(1, 10)};
  EXPECT_THROW(d.validate_section({Triplet(0, 5), Triplet(1, 10)}),
               MappingError);
  EXPECT_THROW(d.validate_section({Triplet(1, 11), Triplet(1, 10)}),
               MappingError);
  EXPECT_THROW(d.validate_section({Triplet(1, 10)}), MappingError);  // rank
  EXPECT_NO_THROW(d.validate_section({Triplet(1, 10), Triplet(10, 1, -3)}));
}

TEST(IndexDomain, TwoDimensionalSectionRoundTrip) {
  IndexDomain d{Dim(0, 9), Dim(0, 9)};
  std::vector<Triplet> s{Triplet(1, 9, 2), Triplet(0, 8, 4)};
  IndexDomain view = d.section_domain(s);
  EXPECT_EQ(view.extent(0), 5);
  EXPECT_EQ(view.extent(1), 3);
  EXPECT_EQ(d.section_parent_index(s, idx({1, 1})), idx({1, 0}));
  EXPECT_EQ(d.section_parent_index(s, idx({5, 3})), idx({9, 8}));
}

TEST(IndexDomain, ToStringRendering) {
  EXPECT_EQ((IndexDomain{Dim(0, 10), Dim(1, 5)}).to_string(), "(0:10, 1:5)");
  EXPECT_EQ(IndexDomain().to_string(), "()");
}

TEST(IndexDomain, EqualityIsStructural) {
  EXPECT_EQ((IndexDomain{Dim(1, 5)}), (IndexDomain{Dim(1, 5)}));
  EXPECT_NE((IndexDomain{Dim(1, 5)}), (IndexDomain{Dim(0, 4)}));
}

}  // namespace
}  // namespace hpfnt
