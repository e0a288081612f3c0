// CONSTRUCT (Definition 4) and its collocation guarantee (§2.3): "if i is an
// index of A which is mapped to an index j of B via the alignment function
// α, then A(i) and B(j) are guaranteed to reside in the same processor under
// any given distribution for B." The property suite sweeps alignments x base
// distributions and checks exactly that.
#include "core/construct.hpp"

#include <gtest/gtest.h>
#include <cstdint>
#include <string>

#include <vector>

#include "support/error.hpp"

namespace hpfnt {
namespace {

IndexTuple idx(std::initializer_list<Index1> values) {
  IndexTuple t;
  for (Index1 v : values) t.push_back(v);
  return t;
}

class ConstructTest : public ::testing::Test {
 protected:
  ConstructTest() : ps_(16) {
    ps_.declare("Q", IndexDomain::of_extents({16}));
    ps_.declare("G", IndexDomain::of_extents({4, 4}));
  }
  ProcessorSpace ps_;
};

TEST_F(ConstructTest, ShiftAlignmentFollowsBase) {
  // B(1:16) BLOCK over Q(1:4); A(I) WITH B(I+1) for A(1:15).
  Distribution delta_b = Distribution::formats(
      IndexDomain{Dim(1, 16)}, {DistFormat::block()},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))}));
  AlignSpec spec({AligneeSub::dummy(0, "I")},
                 {BaseSub::of_expr(AlignExpr::dummy(0) + 1)});
  AlignmentFunction alpha =
      spec.reduce(IndexDomain{Dim(1, 15)}, IndexDomain{Dim(1, 16)});
  Distribution delta_a = Distribution::constructed(alpha, delta_b);
  EXPECT_EQ(delta_a.kind(), Distribution::Kind::kConstructed);
  // A(4) sits with B(5): block 2 -> AP 1.
  EXPECT_EQ(delta_a.first_owner(idx({4})), 1);
  EXPECT_EQ(delta_a.first_owner(idx({3})), delta_b.first_owner(idx({4})));
}

TEST_F(ConstructTest, ReplicationMakesUnionOfOwners) {
  // A(:) WITH D(:,*): A(i) must be everywhere row i of D is.
  Distribution delta_d = Distribution::formats(
      IndexDomain{Dim(1, 8), Dim(1, 4)},
      {DistFormat::block(), DistFormat::block()},
      ProcessorRef(ps_.find("G")));
  AlignSpec spec({AligneeSub::colon()}, {BaseSub::colon(), BaseSub::star()});
  AlignmentFunction alpha = spec.reduce(IndexDomain{Dim(1, 8)},
                                        delta_d.domain());
  Distribution delta_a = Distribution::constructed(alpha, delta_d);
  EXPECT_TRUE(delta_a.replicates());
  // Row 1 of D spans all 4 column-blocks of the grid: 4 owners.
  EXPECT_EQ(delta_a.owners(idx({1})).size(), 4u);
}

TEST_F(ConstructTest, CollapsedAxisUnaffectedByExtraDims) {
  // B(:,*) WITH E(:): every (j1, j2) sits where E(j1) sits.
  Distribution delta_e = Distribution::formats(
      IndexDomain{Dim(1, 8)}, {DistFormat::cyclic()},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))}));
  AlignSpec spec({AligneeSub::colon(), AligneeSub::star()},
                 {BaseSub::colon()});
  AlignmentFunction alpha = spec.reduce(
      IndexDomain{Dim(1, 8), Dim(1, 3)}, IndexDomain{Dim(1, 8)});
  Distribution delta_b = Distribution::constructed(alpha, delta_e);
  for (Index1 j2 = 1; j2 <= 3; ++j2) {
    EXPECT_EQ(delta_b.first_owner(idx({5, j2})),
              delta_e.first_owner(idx({5})));
  }
}

TEST_F(ConstructTest, DomainMismatchThrows) {
  Distribution delta_b = Distribution::formats(
      IndexDomain{Dim(1, 16)}, {DistFormat::block()},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))}));
  AlignmentFunction alpha = AlignmentFunction::identity(
      IndexDomain{Dim(1, 8)}, IndexDomain{Dim(1, 8)});  // base domain 1:8
  EXPECT_THROW(Distribution::constructed(alpha, delta_b), ConformanceError);
}

// --- The collocation property, swept over alignments and distributions ------

// gtest has no printer for this struct, so it prints the raw bytes of each
// case into the test names that ctest registers. The case therefore holds no
// pointer: the high bits of a pointer move from run to run under address-space
// randomisation, and the registered names would move with them. `key` is a
// fixed value per alignment that keeps the names the sweep was first
// registered under.
struct CollocationCase {
  std::uint64_t key;
  int alignment;     // 0 identity, 1 shift, 2 stride-embed, 3 replicate,
                     // 4 collapse, 5 reversal, 6 truncated (MAX/MIN)
  int distribution;  // 0 block, 1 vienna, 2 cyclic1, 3 cyclic3, 4 gblock
};

constexpr const char* kAlignmentNames[] = {
    "identity", "shift", "stride", "replicate", "collapse", "reversal",
    "truncated"};

class CollocationLaw : public ::testing::TestWithParam<CollocationCase> {
 protected:
  CollocationLaw() : ps_(8) {
    ps_.declare("Q", IndexDomain::of_extents({8}));
  }

  Distribution base_distribution(const IndexDomain& domain) {
    ProcessorRef q(ps_.find("Q"));
    switch (GetParam().distribution) {
      case 0:
        return Distribution::formats(domain, {DistFormat::block()}, q);
      case 1:
        return Distribution::formats(domain, {DistFormat::vienna_block()}, q);
      case 2:
        return Distribution::formats(domain, {DistFormat::cyclic()}, q);
      case 3:
        return Distribution::formats(domain, {DistFormat::cyclic(3)}, q);
      default:
        return Distribution::formats(
            domain, {DistFormat::general_block({5, 9, 9, 17, 20, 28, 30})},
            q);
    }
  }

  ProcessorSpace ps_;
};

TEST_P(CollocationLaw, HoldsUnderEveryBaseDistribution) {
  const IndexDomain base_domain{Dim(1, 32)};
  Distribution delta_b = base_distribution(base_domain);

  AlignExpr i = AlignExpr::dummy(0);
  std::optional<AlignSpec> spec;
  IndexDomain alignee_domain{Dim(1, 16)};
  switch (GetParam().alignment) {
    case 0:
      spec.emplace(std::vector<AligneeSub>{AligneeSub::dummy(0, "I")},
                   std::vector<BaseSub>{BaseSub::of_expr(i)});
      break;
    case 1:
      spec.emplace(std::vector<AligneeSub>{AligneeSub::dummy(0, "I")},
                   std::vector<BaseSub>{BaseSub::of_expr(i + 7)});
      break;
    case 2:
      spec.emplace(std::vector<AligneeSub>{AligneeSub::dummy(0, "I")},
                   std::vector<BaseSub>{BaseSub::of_expr(i * 2 - 1)});
      break;
    case 3:  // replication needs a 2-D base; reshape the case
      break;
    case 4:
      break;
    case 5:
      spec.emplace(std::vector<AligneeSub>{AligneeSub::dummy(0, "I")},
                   std::vector<BaseSub>{BaseSub::of_expr(-i + 17)});
      break;
    default:
      spec.emplace(std::vector<AligneeSub>{AligneeSub::dummy(0, "I")},
                   std::vector<BaseSub>{BaseSub::of_expr(
                       AlignExpr::min(AlignExpr::max(i * 2 - 8,
                                                     AlignExpr::constant(1)),
                                      AlignExpr::constant(32)))});
      break;
  }

  AlignmentFunction alpha =
      spec ? spec->reduce(alignee_domain, base_domain)
           : AlignmentFunction::identity(alignee_domain,
                                         base_domain);  // placeholder
  if (GetParam().alignment == 3) {
    // A(I) WITH B2(I, *) over an 8x4 base distributed (BLOCK, BLOCK) cannot
    // reuse delta_b; build the 2-D variant here.
    ProcessorSpace grid(8);
    grid.declare("G", IndexDomain::of_extents({4, 2}));
    IndexDomain b2{Dim(1, 16), Dim(1, 4)};
    Distribution delta_b2 = Distribution::formats(
        b2, {DistFormat::block(), DistFormat::block()},
        ProcessorRef(grid.find("G")));
    AlignSpec rep({AligneeSub::dummy(0, "I")},
                  {BaseSub::of_expr(i), BaseSub::star()});
    AlignmentFunction a2 = rep.reduce(alignee_domain, b2);
    Distribution derived = Distribution::constructed(a2, delta_b2);
    EXPECT_FALSE(
        find_collocation_violation(a2, delta_b2, derived).has_value());
    return;
  }
  if (GetParam().alignment == 4) {
    AlignSpec col({AligneeSub::colon(), AligneeSub::star()},
                  {BaseSub::colon()});
    IndexDomain two{Dim(1, 16), Dim(1, 3)};
    AlignmentFunction a2 = col.reduce(two, base_domain);
    Distribution derived = Distribution::constructed(a2, delta_b);
    EXPECT_FALSE(
        find_collocation_violation(a2, delta_b, derived).has_value());
    return;
  }

  Distribution derived = Distribution::constructed(alpha, delta_b);
  EXPECT_FALSE(
      find_collocation_violation(alpha, delta_b, derived).has_value());
}

std::vector<CollocationCase> all_cases() {
  std::vector<CollocationCase> cases;
  const std::uint64_t keys[] = {0x47E1, 0x47EA, 0x47F0, 0x47F7,
                                0x4801, 0x480A, 0x4813};
  for (int a = 0; a < 7; ++a) {
    for (int d = 0; d < 5; ++d) {
      cases.push_back({keys[a], a, d});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollocationLaw, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<CollocationCase>& info) {
      return std::string(kAlignmentNames[info.param.alignment]) + "_dist" +
             std::to_string(info.param.distribution);
    });

TEST_F(ConstructTest, ViolationDetectorFindsBrokenMappings) {
  // Build a deliberately wrong derived distribution and check the detector
  // reports it.
  Distribution delta_b = Distribution::formats(
      IndexDomain{Dim(1, 8)}, {DistFormat::block()},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))}));
  AlignmentFunction alpha = AlignmentFunction::identity(
      IndexDomain{Dim(1, 8)}, IndexDomain{Dim(1, 8)});
  // Rotated INDIRECT map: element k claims position k mod 4 + 1, where
  // B(k) does not live.
  std::vector<Extent> wrong;
  for (Index1 k = 1; k <= 8; ++k) wrong.push_back(k % 4 + 1);
  Distribution bogus = Distribution::formats(
      IndexDomain{Dim(1, 8)}, {DistFormat::indirect(std::move(wrong))},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))}));
  EXPECT_TRUE(find_collocation_violation(alpha, delta_b, bogus).has_value());
}

}  // namespace
}  // namespace hpfnt
