// Systematic failure injection: every conformance rule the model enforces
// must reject the violating program with the right exception type — never
// crash, never silently accept. Messages are spot-checked for the paper
// reference they carry.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/construct.hpp"
#include "core/data_env.hpp"
#include "directives/interp.hpp"
#include "hpf/hpf_model.hpp"
#include "support/error.hpp"

namespace hpfnt {
namespace {

class ConformanceTest : public ::testing::Test {
 protected:
  ConformanceTest() : ps_(16), env_(ps_) {
    ps_.declare("Q", IndexDomain::of_extents({16}));
    ps_.declare("G", IndexDomain::of_extents({4, 4}));
  }
  ProcessorSpace ps_;
  DataEnv env_;
};

// --- §4.1: distribution format rules -----------------------------------------

TEST_F(ConformanceTest, FormatListLengthMustEqualRank) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 8), Dim(1, 8)});
  EXPECT_THROW(env_.distribute(a, {DistFormat::block()},
                               ProcessorRef(ps_.find("Q"))),
               ConformanceError);
}

TEST_F(ConformanceTest, TargetRankMustMatchNonCollapsedCount) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 8), Dim(1, 8)});
  EXPECT_THROW(
      env_.distribute(a, {DistFormat::block(), DistFormat::block()},
                      ProcessorRef(ps_.find("Q"))),
      ConformanceError);
}

TEST_F(ConformanceTest, GeneralBlockBoundViolations) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 20)});
  // Too few bounds for NP=16.
  EXPECT_THROW(env_.distribute(a, {DistFormat::general_block({5, 10})},
                               ProcessorRef(ps_.find("Q"))),
               ConformanceError);
}

TEST_F(ConformanceTest, EmptyProcessorSectionRejected) {
  EXPECT_THROW(
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(5, 4))}),
      ConformanceError);
}

// --- §2.4: alignment forest constraints -----------------------------------------

TEST_F(ConformanceTest, ChainAlignmentRejected) {
  // The model's height-1 restriction: aligning to a secondary fails.
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 8)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 8)});
  DistArray& c = env_.real("C", IndexDomain{Dim(1, 8)});
  env_.align(b, a, AlignSpec::colons(1));
  try {
    env_.align(c, b, AlignSpec::colons(1));
    FAIL() << "expected ConformanceError";
  } catch (const ConformanceError& e) {
    EXPECT_NE(std::string(e.what()).find("§2.4"), std::string::npos);
  }
}

TEST_F(ConformanceTest, SelfAlignmentRejected) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 8)});
  EXPECT_THROW(env_.align(a, a, AlignSpec::colons(1)), ConformanceError);
}

TEST_F(ConformanceTest, TwoMappingDirectivesRejected) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 8)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 8)});
  env_.align(a, b, AlignSpec::colons(1));
  EXPECT_THROW(env_.align(a, b, AlignSpec::colons(1)), ConformanceError);
}

// --- §4.2 / §5.2: dynamic directives ------------------------------------------

TEST_F(ConformanceTest, RedistributeNonDynamicCarriesSection) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 8)});
  try {
    env_.redistribute(a, {DistFormat::cyclic()}, ProcessorRef(ps_.find("Q")));
    FAIL() << "expected ConformanceError";
  } catch (const ConformanceError& e) {
    EXPECT_NE(std::string(e.what()).find("DYNAMIC"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("§4.2"), std::string::npos);
  }
}

TEST_F(ConformanceTest, RealignToUncreatedBaseRejected) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 8)});
  DistArray& b = env_.declare_allocatable("B", ElemType::kReal, 1);
  env_.dynamic(a);
  EXPECT_THROW(env_.realign(a, b, AlignSpec::colons(1)), ConformanceError);
}

// --- §5.1: alignment reduction rules ---------------------------------------------

TEST_F(ConformanceTest, SkewAlignmentRejected) {
  // ALIGN A(I,J) WITH B(I+J, 1) uses two dummies in one subscript.
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 4), Dim(1, 4)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 16), Dim(1, 4)});
  AlignExpr skew = AlignExpr::dummy(0) + AlignExpr::dummy(1);
  EXPECT_THROW(
      env_.align(a, b,
                 AlignSpec({AligneeSub::dummy(0, "I"), AligneeSub::dummy(1, "J")},
                           {BaseSub::of_expr(skew),
                            BaseSub::of_expr(AlignExpr::constant(1))})),
      ConformanceError);
}

TEST_F(ConformanceTest, AligneeLargerThanTripletRejected) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 10)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 10)});
  EXPECT_THROW(
      env_.align(a, b,
                 AlignSpec({AligneeSub::colon()},
                           {BaseSub::of_triplet(Triplet(1, 9, 2))})),
      ConformanceError);
}

// --- §6: allocatables ---------------------------------------------------------------

TEST_F(ConformanceTest, Section6Violations) {
  DistArray& alloc = env_.declare_allocatable("AL", ElemType::kReal, 1);
  DistArray& local = env_.real("L", IndexDomain{Dim(1, 8)});
  // Non-allocatable aligned to allocatable in the specification part.
  try {
    env_.align(local, alloc, AlignSpec::colons(1));
    FAIL() << "expected ConformanceError";
  } catch (const ConformanceError& e) {
    EXPECT_NE(std::string(e.what()).find("§6"), std::string::npos);
  }
  // Using an unallocated allocatable.
  EXPECT_THROW(env_.distribution_of(alloc), ConformanceError);
  EXPECT_THROW(env_.deallocate(alloc), ConformanceError);
  // ALLOCATE of a non-allocatable.
  EXPECT_THROW(env_.allocate(local, IndexDomain{Dim(1, 8)}),
               ConformanceError);
}

// --- §7: procedures -------------------------------------------------------------------

TEST_F(ConformanceTest, UncreatedActualRejected) {
  DistArray& alloc = env_.declare_allocatable("AL", ElemType::kReal, 1);
  ProcedureSig sub{"SUB", {DummySpec{"X", ElemType::kReal,
                                     DummyMapping::inherit(), false}}};
  EXPECT_THROW(env_.call(sub, {ActualArg::whole(alloc.id())}),
               ConformanceError);
}

TEST_F(ConformanceTest, SectionOutsideActualRejected) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 100)});
  ProcedureSig sub{"SUB", {DummySpec{"X", ElemType::kReal,
                                     DummyMapping::inherit(), false}}};
  EXPECT_THROW(
      env_.call(sub, {ActualArg::of_section(a.id(), {Triplet(50, 150)})}),
      MappingError);
}

// --- §8: the template model's own restrictions --------------------------------------

TEST_F(ConformanceTest, HpfTemplateRestrictionsCiteSection8) {
  hpf::HpfModel model(ps_);
  try {
    model.declare_allocatable_template("T", 2);
    FAIL() << "expected ConformanceError";
  } catch (const ConformanceError& e) {
    EXPECT_NE(std::string(e.what()).find("§8.2"), std::string::npos);
  }
}

// --- directive front end ---------------------------------------------------------------

TEST_F(ConformanceTest, InterpreterErrorsKeepEnvironmentUsable) {
  dir::Interpreter in(ps_);
  in.run("REAL A(64)\n!HPF$ DISTRIBUTE A(BLOCK) TO Q\n");
  EXPECT_THROW(in.run("!HPF$ DISTRIBUTE A(CYCLIC) TO Q\n"),
               ConformanceError);  // second mapping directive
  // The environment survives and still answers queries.
  EXPECT_EQ(in.env().distribution_of("A").format_list()[0],
            DistFormat::block());
  // Unknown array in a directive.
  EXPECT_THROW(in.run("!HPF$ DYNAMIC NOPE\n"), ConformanceError);
  // Unknown processor arrangement.
  EXPECT_THROW(in.run("REAL B(8)\n!HPF$ DISTRIBUTE B(BLOCK) TO NOWHERE\n"),
               ConformanceError);
}

TEST_F(ConformanceTest, DirectiveErrorsArePositioned) {
  dir::Interpreter in(ps_);
  try {
    in.run("REAL A(64)\n!HPF$ DISTRIBUTE A(BOGUS)\n");
    FAIL() << "expected DirectiveError";
  } catch (const DirectiveError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_GT(e.column(), 1);
  }
}

// A shadow wider than its dimension names elements that do not exist: it
// is refused where the widths meet the extents — at SHADOW for a created
// array, at ALLOCATE for an allocatable — and the message is located.
TEST_F(ConformanceTest, ShadowWiderThanItsExtentRejected) {
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 10), Dim(1, 4)});
  EXPECT_THROW(a.set_shadow({{0, 11}, {0, 0}}), ConformanceError);
  EXPECT_THROW(a.set_shadow({{0, 0}, {5, 0}}), ConformanceError);
  EXPECT_THROW(a.set_shadow({{INT64_MAX, INT64_MAX}, {0, 0}}),
               ConformanceError);
  EXPECT_FALSE(a.has_shadow());  // a refused declaration leaves none
  EXPECT_NO_THROW(a.set_shadow({{10, 10}, {4, 4}}));  // the extent is legal

  dir::Interpreter in(ps_);
  in.run(
      "REAL,ALLOCATABLE(:) :: B\n"
      "!HPF$ SHADOW B(3:3)\n");  // no extent yet: accepted here
  in.run("ALLOCATE(B(3))\n");
  in.run("DEALLOCATE(B)\n");
  try {
    in.run("ALLOCATE(B(2))\n");
    FAIL() << "expected ConformanceError";
  } catch (const ConformanceError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.message(),
              "SHADOW width 3 of dimension 1 of 'B' exceeds its extent 2");
  }
  EXPECT_FALSE(in.env().find("B").is_created());
}

TEST_F(ConformanceTest, MixedDummyLocalDeclarationRejected) {
  dir::Interpreter in(ps_);
  in.run(
      "REAL A(64)\n"
      "SUBROUTINE S(X)\n"
      "REAL X(:), LOCALV(8)\n"  // mixes a dummy and a local
      "END\n");
  EXPECT_THROW(in.run("CALL S(A)\n"), DirectiveError);
}

}  // namespace
}  // namespace hpfnt
