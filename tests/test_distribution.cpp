#include "core/distribution.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/error.hpp"
#include "replicate_all.hpp"

namespace hpfnt {
namespace {

IndexTuple idx(std::initializer_list<Index1> values) {
  IndexTuple t;
  for (Index1 v : values) t.push_back(v);
  return t;
}

class DistributionTest : public ::testing::Test {
 protected:
  DistributionTest() : ps_(32) {
    ps_.declare("PR", IndexDomain::of_extents({4, 8}));
    ps_.declare("Q", IndexDomain::of_extents({16}));
  }
  ProcessorSpace ps_;
};

TEST_F(DistributionTest, OneDimBlock) {
  // !HPF$ DISTRIBUTE A(BLOCK) onto Q(16), A(1:64): blocks of 4.
  Distribution d = Distribution::formats(
      IndexDomain{Dim(1, 64)}, {DistFormat::block()},
      ProcessorRef(ps_.find("Q")));
  EXPECT_EQ(d.kind(), Distribution::Kind::kFormats);
  EXPECT_FALSE(d.replicates());
  EXPECT_EQ(d.first_owner(idx({1})), 0);
  EXPECT_EQ(d.first_owner(idx({4})), 0);
  EXPECT_EQ(d.first_owner(idx({5})), 1);
  EXPECT_EQ(d.first_owner(idx({64})), 15);
  EXPECT_EQ(d.local_count(0), 4);
  EXPECT_EQ(d.local_count(15), 4);
}

TEST_F(DistributionTest, TwoDimBlockCyclicOnGrid) {
  // DISTRIBUTE A(BLOCK, CYCLIC) TO PR(4,8), A(1:8, 1:16).
  Distribution d = Distribution::formats(
      IndexDomain{Dim(1, 8), Dim(1, 16)},
      {DistFormat::block(), DistFormat::cyclic()},
      ProcessorRef(ps_.find("PR")));
  // Row i -> PR row ceil(i/2); column j -> PR column ((j-1) mod 8)+1.
  // PR(r,c) is AP (r-1) + (c-1)*4 (column-major EQUIVALENCE layout).
  EXPECT_EQ(d.first_owner(idx({1, 1})), 0);
  EXPECT_EQ(d.first_owner(idx({3, 1})), 1);
  EXPECT_EQ(d.first_owner(idx({1, 2})), 4);
  EXPECT_EQ(d.first_owner(idx({1, 9})), 0);  // column 9 cycles back
  EXPECT_EQ(d.first_owner(idx({8, 16})), 3 + 7 * 4);
}

TEST_F(DistributionTest, CollapsedDimensionStaysLocal) {
  // DISTRIBUTE E(BLOCK, :) — §4 example.
  Distribution d = Distribution::formats(
      IndexDomain{Dim(1, 16), Dim(1, 10)},
      {DistFormat::block(), DistFormat::collapsed()},
      ProcessorRef(ps_.find("Q")));
  // Whole rows travel together: owner independent of second subscript.
  for (Index1 j = 1; j <= 10; ++j) {
    EXPECT_EQ(d.first_owner(idx({5, j})), d.first_owner(idx({5, 1})));
  }
  EXPECT_EQ(d.local_count(0), 10);  // 1 row block x 10 columns
}

TEST_F(DistributionTest, FormatCountMustMatchRank) {
  EXPECT_THROW(Distribution::formats(IndexDomain{Dim(1, 8), Dim(1, 8)},
                                     {DistFormat::block()},
                                     ProcessorRef(ps_.find("Q"))),
               ConformanceError);
}

TEST_F(DistributionTest, TargetRankMustMatchDistributedDims) {
  // Two distributed dims onto rank-1 Q: non-conforming (§4.1).
  EXPECT_THROW(
      Distribution::formats(IndexDomain{Dim(1, 8), Dim(1, 8)},
                            {DistFormat::block(), DistFormat::block()},
                            ProcessorRef(ps_.find("Q"))),
      ConformanceError);
  // One distributed dim onto rank-2 PR: also non-conforming.
  EXPECT_THROW(
      Distribution::formats(IndexDomain{Dim(1, 8), Dim(1, 8)},
                            {DistFormat::block(), DistFormat::collapsed()},
                            ProcessorRef(ps_.find("PR"))),
      ConformanceError);
}

TEST_F(DistributionTest, DistributionToProcessorSection) {
  // §4 example: DISTRIBUTE B(CYCLIC) TO Q(1:NOP:2).
  Distribution d = Distribution::formats(
      IndexDomain{Dim(1, 16)}, {DistFormat::cyclic()},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 16, 2))}));
  // Owners round-robin over the odd processors Q(1), Q(3), ... = AP 0,2,...
  EXPECT_EQ(d.first_owner(idx({1})), 0);
  EXPECT_EQ(d.first_owner(idx({2})), 2);
  EXPECT_EQ(d.first_owner(idx({8})), 14);
  EXPECT_EQ(d.first_owner(idx({9})), 0);
  // Even processors own nothing.
  EXPECT_EQ(d.local_count(1), 0);
  EXPECT_EQ(d.local_count(0), 2);
}

TEST_F(DistributionTest, LowerBoundsAreNormalized) {
  // U(0:9) BLOCK over 5 procs: indices 0..9 -> blocks of 2.
  Distribution d = Distribution::formats(
      IndexDomain{Dim(0, 9)}, {DistFormat::block()},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 5))}));
  EXPECT_EQ(d.first_owner(idx({0})), 0);
  EXPECT_EQ(d.first_owner(idx({1})), 0);
  EXPECT_EQ(d.first_owner(idx({2})), 1);
  EXPECT_EQ(d.first_owner(idx({9})), 4);
}

TEST_F(DistributionTest, ScalarToScalarArrangement) {
  ProcessorSpace ps(8, ScalarPlacement::kReplicated);
  const auto& ctl = ps.declare_scalar("CTL");
  Distribution d =
      Distribution::formats(IndexDomain(), {}, ProcessorRef(ctl));
  OwnerSet owners = d.owners(IndexTuple{});
  EXPECT_EQ(owners.size(), 8u);  // replicated scalar
  EXPECT_TRUE(d.replicates());
}

TEST_F(DistributionTest, ForEachOwnedMatchesOwners) {
  Distribution d = Distribution::formats(
      IndexDomain{Dim(1, 10), Dim(1, 6)},
      {DistFormat::cyclic(2), DistFormat::block()},
      ProcessorRef(ps_.find("PR"), {TargetSub::range(Triplet(1, 4)),
                                    TargetSub::range(Triplet(1, 3))}));
  std::set<std::pair<Index1, Index1>> seen;
  Extent total = 0;
  for (ApId p = 0; p < 32; ++p) {
    Extent count = 0;
    d.for_each_owned(p, [&](const IndexTuple& i) {
      EXPECT_TRUE(d.is_owner(p, i));
      seen.insert({i[0], i[1]});
      ++count;
    });
    EXPECT_EQ(count, d.local_count(p));
    total += count;
  }
  EXPECT_EQ(total, 60);
  EXPECT_EQ(seen.size(), 60u);
}

TEST_F(DistributionTest, SectionViewRenumbersAndDelegates) {
  // The §8.1.2 case: A(1:1000) CYCLIC(3), section A(2:996:2).
  ProcessorSpace ps(16);
  const auto& q = ps.declare("Q16", IndexDomain::of_extents({16}));
  Distribution parent = Distribution::formats(
      IndexDomain{Dim(1, 1000)}, {DistFormat::cyclic(3)}, ProcessorRef(q));
  Distribution view =
      Distribution::section_view(parent, {Triplet(2, 996, 2)});
  EXPECT_EQ(view.kind(), Distribution::Kind::kSectionView);
  EXPECT_EQ(view.domain(), (IndexDomain{Dim(1, 498)}));
  // X(k) lives where A(2k) lives.
  for (Index1 k : {1, 2, 3, 100, 498}) {
    EXPECT_EQ(view.owners(idx({k})), parent.owners(idx({2 * k})));
  }
}

TEST_F(DistributionTest, ReplicatedEverywhere) {
  Distribution d = replicated_over(
      IndexDomain{Dim(1, 4)},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))}));
  EXPECT_TRUE(d.replicates());
  for (Index1 i = 1; i <= 4; ++i) {
    EXPECT_EQ(d.owners(idx({i})).size(), 4u);
  }
  EXPECT_EQ(d.local_count(0), 4);
  EXPECT_EQ(d.local_count(3), 4);
}

TEST_F(DistributionTest, SameMappingDetectsEquivalentDifferentSpecs) {
  // BLOCK and VIENNA_BLOCK coincide when NP | N.
  ProcessorRef q4(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))});
  Distribution a = Distribution::formats(IndexDomain{Dim(1, 16)},
                                         {DistFormat::block()}, q4);
  Distribution b = Distribution::formats(IndexDomain{Dim(1, 16)},
                                         {DistFormat::vienna_block()}, q4);
  EXPECT_TRUE(a.same_mapping(b));
  EXPECT_FALSE(a.structurally_equal(b));  // different format specs
  EXPECT_TRUE(a.structurally_equal(a));
}

TEST_F(DistributionTest, StructuralEqualityChecksUserFormatContent) {
  // DistFormat compares user-defined formats by name only; two same-named
  // functions can map differently, and structurally_equal gates whether a
  // call-site remap is skipped (DataEnv::call), so it must confirm the
  // bound owner content — directly and through a section view.
  ProcessorRef q4(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))});
  auto on = [&](Index1 p) {
    return Distribution::formats(
        IndexDomain{Dim(1, 8)},
        {DistFormat::user_defined("f",
                                  [p](Index1, Extent, Extent) {
                                    DimOwnerSet owners;
                                    owners.push_back(p);
                                    return owners;
                                  })},
        q4);
  };
  const Distribution f1 = on(1);
  const Distribution f1_again = on(1);
  const Distribution f2 = on(2);  // same name, different mapping
  EXPECT_TRUE(f1.structurally_equal(f1_again));
  EXPECT_FALSE(f1.structurally_equal(f2));
  EXPECT_FALSE(f1.same_mapping(f2));

  const std::vector<Triplet> window{Triplet(2, 8, 2)};
  EXPECT_TRUE(Distribution::section_view(f1, window)
                  .structurally_equal(
                      Distribution::section_view(f1_again, window)));
  EXPECT_FALSE(Distribution::section_view(f1, window)
                   .structurally_equal(
                       Distribution::section_view(f2, window)));
}

TEST_F(DistributionTest, SameMappingDetectsDifference) {
  ProcessorRef q4(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))});
  Distribution a = Distribution::formats(IndexDomain{Dim(1, 10)},
                                         {DistFormat::block()}, q4);
  Distribution b = Distribution::formats(IndexDomain{Dim(1, 10)},
                                         {DistFormat::vienna_block()}, q4);
  EXPECT_FALSE(a.same_mapping(b));  // 10 over 4: ceil-blocks differ
}

TEST_F(DistributionTest, UserDefinedDimReplicationReachesOwnerSets) {
  DistFormat f = DistFormat::user_defined(
      "both_ends", [](Index1 i, Extent n, Extent np) {
        DimOwnerSet owners;
        owners.push_back((i - 1) % np + 1);
        if (i == 1 || i == n) {
          owners.push_back(np);  // boundary elements also on the last proc
        }
        return owners;
      });
  Distribution d = Distribution::formats(
      IndexDomain{Dim(1, 8)}, {f},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))}));
  EXPECT_TRUE(d.replicates());
  OwnerSet first = d.owners(idx({1}));
  EXPECT_EQ(first.size(), 2u);
  OwnerSet inner = d.owners(idx({2}));
  EXPECT_EQ(inner.size(), 1u);
}

TEST_F(DistributionTest, InvalidDistributionThrowsOnUse) {
  Distribution d;
  EXPECT_FALSE(d.valid());
  EXPECT_THROW(d.domain(), InternalError);
}

}  // namespace
}  // namespace hpfnt
