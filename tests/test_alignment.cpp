// Tests for the §5.1 ALIGN reduction and the resulting alignment functions,
// including both worked examples from the paper.
#include "core/alignment.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "support/error.hpp"

namespace hpfnt {
namespace {

IndexTuple idx(std::initializer_list<Index1> values) {
  IndexTuple t;
  for (Index1 v : values) t.push_back(v);
  return t;
}

// --- Paper example 1 (§5.1): ALIGN A(:) WITH D(:,*) -------------------------

TEST(AlignmentPaperExamples, ReplicateAcrossColumns) {
  // REAL A(1:N), D(1:N,1:M); ALIGN A(:) WITH D(:,*)
  // "aligns a copy of A with every column of D":
  // alpha(J) = {(J,k) | 1 <= k <= M}.
  const Extent n = 6, m = 4;
  AlignSpec spec({AligneeSub::colon()}, {BaseSub::colon(), BaseSub::star()});
  AlignmentFunction alpha =
      spec.reduce(IndexDomain{Dim(1, n)}, IndexDomain{Dim(1, n), Dim(1, m)});
  EXPECT_TRUE(alpha.replicates());
  EXPECT_EQ(alpha.image_count(), m);
  std::set<std::pair<Index1, Index1>> images;
  alpha.for_each_image(idx({3}), [&](const IndexTuple& j) {
    images.insert({j[0], j[1]});
  });
  EXPECT_EQ(images.size(), static_cast<std::size_t>(m));
  for (Index1 k = 1; k <= m; ++k) {
    EXPECT_TRUE(images.count({3, k})) << "missing (3," << k << ")";
  }
}

// --- Paper example 2 (§5.1): ALIGN B(:,*) WITH E(:) --------------------------

TEST(AlignmentPaperExamples, CollapseSecondAxis) {
  // REAL B(1:N,1:M), E(1:N); ALIGN B(:,*) WITH E(:)
  // alpha(J1,J2) = {(J1)} for all J2: the second axis is collapsed.
  const Extent n = 5, m = 3;
  AlignSpec spec({AligneeSub::colon(), AligneeSub::star()},
                 {BaseSub::colon()});
  AlignmentFunction alpha =
      spec.reduce(IndexDomain{Dim(1, n), Dim(1, m)}, IndexDomain{Dim(1, n)});
  EXPECT_FALSE(alpha.replicates());
  EXPECT_EQ(alpha.image_count(), 1);
  for (Index1 j2 = 1; j2 <= m; ++j2) {
    EXPECT_EQ(alpha.image(idx({2, j2})), idx({2}));
  }
}

// --- The Thole staggered-grid alignments (§8.1.1), dummy expressions --------

TEST(AlignmentTholeExample, StaggeredGridExpressions) {
  // ALIGN P(I,J) WITH T(2*I-1, 2*J-1) against T(0:2N, 0:2N).
  const Extent n = 4;
  AlignExpr i = AlignExpr::dummy(0);
  AlignExpr j = AlignExpr::dummy(1);
  AlignSpec spec({AligneeSub::dummy(0, "I"), AligneeSub::dummy(1, "J")},
                 {BaseSub::of_expr(i * 2 - 1), BaseSub::of_expr(j * 2 - 1)});
  AlignmentFunction alpha = spec.reduce(
      IndexDomain{Dim(1, n), Dim(1, n)},
      IndexDomain{Dim(0, 2 * n), Dim(0, 2 * n)});
  EXPECT_EQ(alpha.image(idx({1, 1})), idx({1, 1}));
  EXPECT_EQ(alpha.image(idx({2, 3})), idx({3, 5}));
  EXPECT_EQ(alpha.image(idx({n, n})), idx({2 * n - 1, 2 * n - 1}));
}

// --- Reduction transformations -----------------------------------------------

TEST(AlignSpecReduce, ColonMatchesTripletInOrder) {
  // ALIGN X(:) WITH A(2:10:2) — transformation 1 of §5.1:
  // J ranges over [1:5], mapped to (J-1)*2 + 2.
  AlignSpec spec({AligneeSub::colon()},
                 {BaseSub::of_triplet(Triplet(2, 10, 2))});
  AlignmentFunction alpha =
      spec.reduce(IndexDomain{Dim(1, 5)}, IndexDomain{Dim(1, 10)});
  EXPECT_EQ(alpha.image(idx({1})), idx({2}));
  EXPECT_EQ(alpha.image(idx({3})), idx({6}));
  EXPECT_EQ(alpha.image(idx({5})), idx({10}));
}

TEST(AlignSpecReduce, ColonRespectsAligneeLowerBound) {
  // Alignee domain 0:4 -> first element 0 maps to the triplet's start.
  AlignSpec spec({AligneeSub::colon()},
                 {BaseSub::of_triplet(Triplet(3, 11, 2))});
  AlignmentFunction alpha =
      spec.reduce(IndexDomain{Dim(0, 4)}, IndexDomain{Dim(1, 11)});
  EXPECT_EQ(alpha.image(idx({0})), idx({3}));
  EXPECT_EQ(alpha.image(idx({4})), idx({11}));
}

TEST(AlignSpecReduce, ExtentFitCheck) {
  // §5.1: U_i - L_i + 1 <= MAX((UT-LT+ST)/ST, 0) must hold.
  AlignSpec spec({AligneeSub::colon()},
                 {BaseSub::of_triplet(Triplet(1, 8, 2))});  // 4 positions
  EXPECT_NO_THROW(spec.reduce(IndexDomain{Dim(1, 4)}, IndexDomain{Dim(1, 8)}));
  EXPECT_THROW(spec.reduce(IndexDomain{Dim(1, 5)}, IndexDomain{Dim(1, 8)}),
               ConformanceError);
}

TEST(AlignSpecReduce, ColonCountMustMatchTripletCount) {
  AlignSpec too_few({AligneeSub::colon(), AligneeSub::colon()},
                    {BaseSub::colon(), BaseSub::of_expr(AlignExpr::constant(1))});
  EXPECT_THROW(too_few.reduce(IndexDomain{Dim(1, 4), Dim(1, 4)},
                              IndexDomain{Dim(1, 4), Dim(1, 4)}),
               ConformanceError);
}

TEST(AlignSpecReduce, StarInBaseReplicates) {
  AlignSpec spec({AligneeSub::dummy(0, "I")},
                 {BaseSub::of_expr(AlignExpr::dummy(0)), BaseSub::star()});
  AlignmentFunction alpha =
      spec.reduce(IndexDomain{Dim(1, 3)}, IndexDomain{Dim(1, 3), Dim(1, 7)});
  EXPECT_TRUE(alpha.replicates());
  EXPECT_EQ(alpha.image_count(), 7);
}

TEST(AlignSpecReduce, DummylessExprBecomesConstant) {
  // ALIGN V(I) WITH M(I, 3): every element on column 3.
  AlignSpec spec({AligneeSub::dummy(0, "I")},
                 {BaseSub::of_expr(AlignExpr::dummy(0)),
                  BaseSub::of_expr(AlignExpr::constant(3))});
  AlignmentFunction alpha =
      spec.reduce(IndexDomain{Dim(1, 4)}, IndexDomain{Dim(1, 4), Dim(1, 5)});
  EXPECT_EQ(alpha.image(idx({2})), idx({2, 3}));
}

TEST(AlignSpecReduce, RepeatedDummyInAligneeThrows) {
  AlignSpec spec({AligneeSub::dummy(0, "I"), AligneeSub::dummy(0, "I")},
                 {BaseSub::of_expr(AlignExpr::dummy(0)), BaseSub::colon()});
  EXPECT_THROW(spec.reduce(IndexDomain{Dim(1, 4), Dim(1, 4)},
                           IndexDomain{Dim(1, 4), Dim(1, 4)}),
               ConformanceError);
}

TEST(AlignSpecReduce, DummyInTwoBaseSubscriptsThrows) {
  // §5.1: each J_i may occur in at most one y_j (no skew alignments).
  AlignSpec spec({AligneeSub::dummy(0, "I")},
                 {BaseSub::of_expr(AlignExpr::dummy(0)),
                  BaseSub::of_expr(AlignExpr::dummy(0) + 1)});
  EXPECT_THROW(
      spec.reduce(IndexDomain{Dim(1, 4)}, IndexDomain{Dim(1, 4), Dim(1, 5)}),
      ConformanceError);
}

TEST(AlignSpecReduce, UndeclaredDummyThrows) {
  AlignSpec spec({AligneeSub::dummy(0, "I")},
                 {BaseSub::of_expr(AlignExpr::dummy(7))});
  EXPECT_THROW(spec.reduce(IndexDomain{Dim(1, 4)}, IndexDomain{Dim(1, 4)}),
               ConformanceError);
}

TEST(AlignSpecReduce, SubscriptRankChecks) {
  AlignSpec spec({AligneeSub::colon()}, {BaseSub::colon()});
  EXPECT_THROW(spec.reduce(IndexDomain{Dim(1, 4), Dim(1, 4)},
                           IndexDomain{Dim(1, 4)}),
               ConformanceError);
  EXPECT_THROW(spec.reduce(IndexDomain{Dim(1, 4)},
                           IndexDomain{Dim(1, 4), Dim(1, 4)}),
               ConformanceError);
}

TEST(AlignSpecReduce, BaseTripletMustStayInside) {
  AlignSpec spec({AligneeSub::colon()},
                 {BaseSub::of_triplet(Triplet(0, 8, 2))});
  EXPECT_THROW(spec.reduce(IndexDomain{Dim(1, 4)}, IndexDomain{Dim(1, 8)}),
               ConformanceError);
}

// --- Bounds policy ------------------------------------------------------------

TEST(AlignmentBounds, ClampPolicyTruncates) {
  // ALIGN G(I) WITH H(I-1): image of I=1 would be 0, clamped to 1 (§5.1's
  // "ŷ = MIN(Uj, y)" rule applied at both ends).
  AlignSpec spec({AligneeSub::dummy(0, "I")},
                 {BaseSub::of_expr(AlignExpr::dummy(0) - 1)});
  AlignmentFunction alpha = spec.reduce(
      IndexDomain{Dim(1, 5)}, IndexDomain{Dim(1, 5)}, AlignBoundsPolicy::kClamp);
  EXPECT_EQ(alpha.image(idx({1})), idx({1}));  // clamped
  EXPECT_EQ(alpha.image(idx({2})), idx({1}));
  EXPECT_EQ(alpha.image(idx({5})), idx({4}));
}

TEST(AlignmentBounds, StrictPolicyThrows) {
  AlignSpec spec({AligneeSub::dummy(0, "I")},
                 {BaseSub::of_expr(AlignExpr::dummy(0) - 1)});
  AlignmentFunction alpha =
      spec.reduce(IndexDomain{Dim(1, 5)}, IndexDomain{Dim(1, 5)},
                  AlignBoundsPolicy::kStrict);
  EXPECT_THROW(alpha.image(idx({1})), ConformanceError);
  EXPECT_EQ(alpha.image(idx({2})), idx({1}));
}

TEST(AlignmentBounds, MaxMinAvoidTruncationErrors) {
  // The paper's motivation for MAX/MIN: write the truncation explicitly.
  AlignExpr i = AlignExpr::dummy(0);
  AlignSpec spec({AligneeSub::dummy(0, "I")},
                 {BaseSub::of_expr(AlignExpr::max(i - 1, AlignExpr::constant(1)))});
  AlignmentFunction alpha =
      spec.reduce(IndexDomain{Dim(1, 5)}, IndexDomain{Dim(1, 5)},
                  AlignBoundsPolicy::kStrict);
  EXPECT_EQ(alpha.image(idx({1})), idx({1}));  // no violation now
}

// --- Identity helper -----------------------------------------------------------

TEST(AlignmentFunctionApi, IdentityAlignsElementwise) {
  AlignmentFunction alpha = AlignmentFunction::identity(
      IndexDomain{Dim(1, 4), Dim(1, 3)}, IndexDomain{Dim(1, 4), Dim(1, 3)});
  EXPECT_EQ(alpha.image(idx({2, 3})), idx({2, 3}));
  EXPECT_FALSE(alpha.replicates());
}

TEST(AlignmentFunctionApi, IdentityAcrossDifferentLowerBounds) {
  // U(0:10) aligned to T(5:15) elementwise-by-position.
  AlignmentFunction alpha = AlignmentFunction::identity(
      IndexDomain{Dim(0, 10)}, IndexDomain{Dim(5, 15)});
  EXPECT_EQ(alpha.image(idx({0})), idx({5}));
  EXPECT_EQ(alpha.image(idx({10})), idx({15}));
}

TEST(AlignmentFunctionApi, ImageOutsideDomainThrows) {
  AlignmentFunction alpha = AlignmentFunction::identity(
      IndexDomain{Dim(1, 4)}, IndexDomain{Dim(1, 4)});
  EXPECT_THROW(alpha.image(idx({5})), MappingError);
}

TEST(AlignmentFunctionApi, AligneeDimensionInTwoBaseDimensionsThrows) {
  // §5.1's reduced form, enforced where every alignment function is built
  // (not only by AlignSpec::reduce): alignee dimension 0 cannot feed base
  // dimensions 0 and 1, or the mapping would not be a per-dimension
  // product of the base's.
  std::vector<AlignmentFunction::BaseDim> dims(2);
  for (AlignmentFunction::BaseDim& d : dims) {
    d.kind = AlignmentFunction::BaseDim::Kind::kExpr;
    d.alignee_dim = 0;
  }
  dims[0].expr = AlignExpr::dummy(0);
  dims[1].expr = AlignExpr::dummy(0) + 1;
  EXPECT_THROW(AlignmentFunction(IndexDomain{Dim(1, 4)},
                                 IndexDomain{Dim(1, 4), Dim(1, 5)}, dims),
               ConformanceError);
  // Feeding one base dimension, with the other replicated, is the reduced
  // form.
  dims[1].kind = AlignmentFunction::BaseDim::Kind::kReplicated;
  EXPECT_NO_THROW(AlignmentFunction(IndexDomain{Dim(1, 4)},
                                    IndexDomain{Dim(1, 4), Dim(1, 5)}, dims));
}

TEST(AlignmentFunctionApi, Rendering) {
  AlignSpec spec({AligneeSub::dummy(0, "I")},
                 {BaseSub::of_expr(AlignExpr::dummy(0) * 2), BaseSub::star()});
  EXPECT_EQ(spec.to_string(), "(I) WITH (I*2,*)");
  AlignmentFunction alpha =
      spec.reduce(IndexDomain{Dim(1, 3)}, IndexDomain{Dim(1, 6), Dim(1, 2)});
  EXPECT_EQ(alpha.to_string(), "(J1*2,*)");
}

}  // namespace
}  // namespace hpfnt
