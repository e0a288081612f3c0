#include "core/processors.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/error.hpp"

namespace hpfnt {
namespace {

IndexTuple idx(std::initializer_list<Index1> values) {
  IndexTuple t;
  for (Index1 v : values) t.push_back(v);
  return t;
}

TEST(ProcessorSpace, RejectsEmptyMachine) {
  EXPECT_THROW(ProcessorSpace(0), ConformanceError);
}

TEST(ProcessorSpace, DeclareAndFindCaseInsensitive) {
  ProcessorSpace ps(32);
  ps.declare("PR", IndexDomain::of_extents({32}));
  EXPECT_TRUE(ps.has("pr"));
  EXPECT_EQ(ps.find("Pr").name(), "PR");
  EXPECT_THROW(ps.find("Q"), ConformanceError);
}

TEST(ProcessorSpace, DuplicateDeclarationThrows) {
  ProcessorSpace ps(32);
  ps.declare("PR", IndexDomain::of_extents({4}));
  EXPECT_THROW(ps.declare("pr", IndexDomain::of_extents({8})),
               ConformanceError);
}

TEST(ProcessorSpace, OversizeStrictThrows) {
  ProcessorSpace ps(16);
  EXPECT_THROW(ps.declare("BIG", IndexDomain::of_extents({17})),
               ConformanceError);
  EXPECT_NO_THROW(ps.declare("OK", IndexDomain::of_extents({16})));
}

TEST(ProcessorSpace, OversizeFoldWraps) {
  ProcessorSpace ps(4, ScalarPlacement::kControlProcessor,
                    OversizePolicy::kFold);
  const ProcessorArrangement& big =
      ps.declare("BIG", IndexDomain::of_extents({6}));
  EXPECT_EQ(big.ap_of(idx({5})), 0);  // 5th element (0-based 4) folds to 0
  EXPECT_EQ(big.ap_of(idx({6})), 1);
}

TEST(ProcessorSpace, EmptyArrangementRejected) {
  ProcessorSpace ps(8);
  EXPECT_THROW(ps.declare("E", IndexDomain{Dim(1, 0)}), ConformanceError);
}

TEST(ProcessorArrangement, EquivalenceStyleDefaultAssociation) {
  // §3: arrangements are storage-associated with AP like EQUIVALENCE; by
  // default both start at abstract processor 0 and therefore share.
  ProcessorSpace ps(32);
  const auto& pr = ps.declare("PR", IndexDomain::of_extents({4, 8}));
  const auto& q = ps.declare("Q", IndexDomain::of_extents({16}));
  EXPECT_EQ(pr.ap_of(idx({1, 1})), 0);
  EXPECT_EQ(q.ap_of(idx({1})), 0);  // shares abstract processor 0 with PR(1,1)
  // Column-major linearization: PR(2,1) is AP 1, PR(1,2) is AP 4.
  EXPECT_EQ(pr.ap_of(idx({2, 1})), 1);
  EXPECT_EQ(pr.ap_of(idx({1, 2})), 4);
  EXPECT_EQ(q.ap_of(idx({5})), 4);  // Q(5) shares with PR(1,2)
}

TEST(ProcessorArrangement, ExplicitOffsetAssociation) {
  ProcessorSpace ps(32);
  const auto& shifted = ps.declare_at("S", IndexDomain::of_extents({8}), 16);
  EXPECT_EQ(shifted.ap_of(idx({1})), 16);
  EXPECT_EQ(shifted.ap_of(idx({8})), 23);
}

TEST(ProcessorArrangement, IndexOfApInverts) {
  ProcessorSpace ps(32);
  const auto& pr = ps.declare("PR", IndexDomain::of_extents({4, 8}));
  IndexTuple out;
  ASSERT_TRUE(pr.index_of_ap(9, out));
  EXPECT_EQ(pr.ap_of(out), 9);
  EXPECT_FALSE(pr.index_of_ap(32, out));
}

TEST(ScalarArrangement, ControlProcessorPlacement) {
  ProcessorSpace ps(8, ScalarPlacement::kControlProcessor);
  const auto& s = ps.declare_scalar("S");
  EXPECT_TRUE(s.is_scalar());
  OwnerSet owners = s.owners_of(IndexTuple{});
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners[0], 0);
}

TEST(ScalarArrangement, ReplicatedPlacement) {
  // §3: data on a scalar arrangement "may be replicated over all
  // processors".
  ProcessorSpace ps(8, ScalarPlacement::kReplicated);
  const auto& s = ps.declare_scalar("S");
  OwnerSet owners = s.owners_of(IndexTuple{});
  EXPECT_EQ(owners.size(), 8u);
}

TEST(ScalarArrangement, CanonicalApIsMinimumOwner) {
  // The canonical replica of a replicated owner set is everywhere the
  // *minimum* owner (ROADMAP rule: owner sets are not sorted in general,
  // so owners.front() is not a correct replica choice). ap_of/ap_at must
  // report min(owners_of), whatever order the set arrives in — today
  // kReplicated yields ascending sets, so this fixes the rule against any
  // future placement policy that does not.
  ProcessorSpace ps(8, ScalarPlacement::kReplicated);
  const auto& s = ps.declare_scalar("S");
  const OwnerSet owners = s.owners_of(IndexTuple{});
  ASSERT_EQ(owners.size(), 8u);
  EXPECT_EQ(s.ap_of(IndexTuple{}), min_owner(owners));
  ProcessorRef ref(s);
  EXPECT_EQ(ref.ap_at(IndexTuple{}), min_owner(owners));
}

TEST(ScalarArrangement, ArbitraryPlacementIsStable) {
  ProcessorSpace ps(8, ScalarPlacement::kArbitrary);
  const auto& s = ps.declare_scalar("S");
  OwnerSet a = s.owners_of(IndexTuple{});
  OwnerSet b = s.owners_of(IndexTuple{});
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_GE(a[0], 0);
  EXPECT_LT(a[0], 8);
}

TEST(ProcessorRef, WholeArrangement) {
  ProcessorSpace ps(32);
  const auto& pr = ps.declare("PR", IndexDomain::of_extents({4, 8}));
  ProcessorRef ref(pr);
  EXPECT_EQ(ref.rank(), 2);
  EXPECT_EQ(ref.size(), 32);
  EXPECT_EQ(ref.to_string(), "PR");
  EXPECT_EQ(ref.ap_at(idx({1, 1})), 0);
  EXPECT_EQ(ref.ap_at(idx({4, 8})), 31);
}

TEST(ProcessorRef, SectionSelectsStridedSubset) {
  // §4 example: DISTRIBUTE B(CYCLIC) TO Q(1:NOP:2).
  ProcessorSpace ps(16);
  const auto& q = ps.declare("Q", IndexDomain::of_extents({16}));
  ProcessorRef ref(q, {TargetSub::range(Triplet(1, 16, 2))});
  EXPECT_EQ(ref.rank(), 1);
  EXPECT_EQ(ref.size(), 8);
  EXPECT_EQ(ref.ap_at(idx({1})), 0);
  EXPECT_EQ(ref.ap_at(idx({2})), 2);   // Q(3)
  EXPECT_EQ(ref.ap_at(idx({8})), 14);  // Q(15)
  EXPECT_EQ(ref.to_string(), "Q(1:16:2)");
}

TEST(ProcessorRef, ScalarSubscriptReducesRank) {
  ProcessorSpace ps(32);
  const auto& pr = ps.declare("PR", IndexDomain::of_extents({4, 8}));
  ProcessorRef ref(pr, {TargetSub::at(2), TargetSub::range(Triplet(1, 8))});
  EXPECT_EQ(ref.rank(), 1);
  EXPECT_EQ(ref.size(), 8);
  EXPECT_EQ(ref.ap_at(idx({1})), 1);      // PR(2,1)
  EXPECT_EQ(ref.ap_at(idx({2})), 5);      // PR(2,2)
  EXPECT_EQ(ref.to_string(), "PR(2, 1:8)");
}

TEST(ProcessorRef, SectionValidation) {
  ProcessorSpace ps(16);
  const auto& q = ps.declare("Q", IndexDomain::of_extents({16}));
  EXPECT_THROW(ProcessorRef(q, {TargetSub::range(Triplet(0, 8))}),
               ConformanceError);
  EXPECT_THROW(ProcessorRef(q, {TargetSub::range(Triplet(1, 17))}),
               ConformanceError);
  EXPECT_THROW(ProcessorRef(q, {TargetSub::at(17)}), ConformanceError);
  EXPECT_THROW(ProcessorRef(q, {TargetSub::range(Triplet(5, 4))}),
               ConformanceError);
  EXPECT_THROW(ProcessorRef(
                   q, {TargetSub::at(1), TargetSub::at(1)}),  // rank mismatch
               ConformanceError);
}

TEST(ProcessorRef, AllApsCoversSectionExactly) {
  ProcessorSpace ps(16);
  const auto& q = ps.declare("Q", IndexDomain::of_extents({16}));
  ProcessorRef ref(q, {TargetSub::range(Triplet(3, 9, 3))});  // Q(3),Q(6),Q(9)
  std::vector<ApId> aps = ref.all_aps();
  std::set<ApId> unique(aps.begin(), aps.end());
  EXPECT_EQ(unique, (std::set<ApId>{2, 5, 8}));
}

TEST(ProcessorRef, OutOfRangePositionThrows) {
  ProcessorSpace ps(16);
  const auto& q = ps.declare("Q", IndexDomain::of_extents({16}));
  ProcessorRef ref(q, {TargetSub::range(Triplet(1, 16, 2))});
  EXPECT_THROW(ref.ap_at(idx({0})), MappingError);
  EXPECT_THROW(ref.ap_at(idx({9})), MappingError);
}

TEST(ProcessorRef, EqualityComparesArrangementAndSection) {
  ProcessorSpace ps(16);
  const auto& q = ps.declare("Q", IndexDomain::of_extents({16}));
  const auto& r = ps.declare("R", IndexDomain::of_extents({16}));
  EXPECT_EQ(ProcessorRef(q), ProcessorRef(q));
  EXPECT_NE(ProcessorRef(q), ProcessorRef(r));
  EXPECT_NE(ProcessorRef(q),
            ProcessorRef(q, {TargetSub::range(Triplet(1, 8))}));
}

}  // namespace
}  // namespace hpfnt
