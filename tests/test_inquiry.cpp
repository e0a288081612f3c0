// Inquiry functions (§8.1.2/§8.2): a callee (or tool) can observe every
// aspect of any mapping — format-based, derived, or section-view — without
// naming it syntactically.
#include "core/inquiry.hpp"

#include <gtest/gtest.h>

namespace hpfnt {
namespace {

IndexTuple idx(std::initializer_list<Index1> values) {
  IndexTuple t;
  for (Index1 v : values) t.push_back(v);
  return t;
}

class InquiryTest : public ::testing::Test {
 protected:
  InquiryTest() : ps_(16), env_(ps_) {
    ps_.declare("Q", IndexDomain::of_extents({16}));
    ps_.declare("G", IndexDomain::of_extents({4, 4}));
  }
  ProcessorSpace ps_;
  DataEnv env_;
};

TEST_F(InquiryTest, FormatDistributionFullyDescribed) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 32), Dim(1, 8), Dim(1, 4)});
  env_.distribute(a,
                  {DistFormat::cyclic(5), DistFormat::block(),
                   DistFormat::collapsed()},
                  ProcessorRef(ps_.find("G")));
  DistributionInfo info = inquire_distribution(env_.distribution_of(a));
  EXPECT_EQ(info.kind, Distribution::Kind::kFormats);
  EXPECT_EQ(info.rank, 3);
  EXPECT_FALSE(info.replicated);
  ASSERT_EQ(info.dim_kinds.size(), 3u);
  EXPECT_EQ(info.dim_kinds[0], DimKind::kCyclic);
  EXPECT_EQ(info.cyclic_k[0], 5);
  EXPECT_EQ(info.dim_kinds[1], DimKind::kBlock);
  EXPECT_EQ(info.cyclic_k[1], 0);
  EXPECT_EQ(info.dim_kinds[2], DimKind::kCollapsed);
  EXPECT_EQ(info.target, "G");
}

TEST_F(InquiryTest, EveryFormatKindRoundTrips) {
  struct Case {
    DistFormat format;
    DimKind expected;
  };
  const Case cases[] = {
      {DistFormat::block(), DimKind::kBlock},
      {DistFormat::vienna_block(), DimKind::kViennaBlock},
      {DistFormat::general_block({4, 8, 8, 12, 12, 14, 15, 15, 15, 16, 16,
                                  16, 16, 16, 16}),
       DimKind::kGeneralBlock},
      {DistFormat::cyclic(7), DimKind::kCyclic},
      {DistFormat::indirect(std::vector<Extent>(16, 1)), DimKind::kIndirect},
  };
  int counter = 0;
  for (const Case& c : cases) {
    DistArray& a = env_.real("ARR" + std::to_string(counter++),
                             IndexDomain{Dim(1, 16)});
    env_.distribute(a, {c.format}, ProcessorRef(ps_.find("Q")));
    DistributionInfo info = inquire_distribution(env_.distribution_of(a));
    EXPECT_EQ(info.dim_kinds[0], c.expected) << dim_kind_name(c.expected);
  }
}

TEST_F(InquiryTest, DerivedMappingsReportDerived) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 32)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 32)});
  env_.distribute(a, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  env_.align(b, a, AlignSpec::colons(1));
  DistributionInfo info = inquire_distribution(env_.distribution_of(b));
  EXPECT_EQ(info.kind, Distribution::Kind::kConstructed);
  EXPECT_EQ(info.dim_kinds[0], DimKind::kDerived);
  EXPECT_TRUE(info.target.empty());
}

TEST_F(InquiryTest, ReplicationVisible) {
  DistArray& d = env_.real("D", IndexDomain{Dim(1, 8), Dim(1, 4)});
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 8)});
  env_.distribute(d, {DistFormat::block(), DistFormat::block()},
                  ProcessorRef(ps_.find("G")));
  env_.align(a, d,
             AlignSpec({AligneeSub::colon()},
                       {BaseSub::colon(), BaseSub::star()}));
  DistributionInfo info = inquire_distribution(env_.distribution_of(a));
  EXPECT_TRUE(info.replicated);
  AlignmentInfo align = inquire_alignment(env_, a);
  EXPECT_TRUE(align.is_aligned);
  EXPECT_TRUE(align.replicated);
  EXPECT_EQ(align.base_name, "D");
  EXPECT_NE(align.function.find("*"), std::string::npos);
}

TEST_F(InquiryTest, AlignmentFunctionRendering) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 16)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 8)});
  env_.distribute(a, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  AlignExpr i = AlignExpr::dummy(0);
  env_.align(b, a,
             AlignSpec({AligneeSub::dummy(0, "I")},
                       {BaseSub::of_expr(i * 2 - 1)}));
  AlignmentInfo info = inquire_alignment(env_, b);
  EXPECT_EQ(info.function, "((J1*2-1))");
}

TEST_F(InquiryTest, SectionViewDescription) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 100)});
  env_.distribute(a, {DistFormat::cyclic(3)}, ProcessorRef(ps_.find("Q")));
  Distribution view = Distribution::section_view(env_.distribution_of(a),
                                                 {Triplet(2, 96, 2)});
  DistributionInfo info = inquire_distribution(view);
  EXPECT_EQ(info.kind, Distribution::Kind::kSectionView);
  EXPECT_NE(info.description.find("SECTION"), std::string::npos);
  EXPECT_NE(info.description.find("CYCLIC(3)"), std::string::npos);
}

TEST_F(InquiryTest, OwnersOfMatchesDistribution) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 32)});
  env_.distribute(a, {DistFormat::cyclic()}, ProcessorRef(ps_.find("Q")));
  Distribution d = env_.distribution_of(a);
  // δ(i) (§2.2), the primitive every other inquiry reduces to: CYCLIC over
  // Q(16) places A(i) on AP (i-1) mod 16 alone.
  for (Index1 i : {1, 7, 17, 32}) {
    EXPECT_EQ(d.owners(idx({i})), (OwnerSet{static_cast<ApId>((i - 1) % 16)}));
  }
  EXPECT_EQ(number_of_processors(ps_), 16);
}

}  // namespace
}  // namespace hpfnt
