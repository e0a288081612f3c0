// Overlap analysis: the analytic shift plans must predict the executor's
// measured transfers EXACTLY, for every format and shift — plan == measure
// is the property that makes the planner usable as a cost model.
#include "exec/overlap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "exec/assign.hpp"
#include "support/error.hpp"

namespace hpfnt {
namespace {

TEST(OverlapPlan, BlockShiftOneIsOneElementPerBoundary) {
  DimMapping m = DimMapping::bind(DistFormat::block(), 64, 8);
  ShiftPlan plan = plan_shift(m, 1);
  // 7 interior boundaries, one ghost element each, from right neighbor.
  EXPECT_EQ(plan.remote_elements, 7);
  ASSERT_EQ(plan.messages.size(), 7u);
  for (const ShiftMessage& msg : plan.messages) {
    EXPECT_EQ(msg.src, msg.dst + 1);
    EXPECT_EQ(msg.count, 1);
  }
}

TEST(OverlapPlan, NegativeShiftMirrors) {
  DimMapping m = DimMapping::bind(DistFormat::block(), 64, 8);
  ShiftPlan plan = plan_shift(m, -1);
  EXPECT_EQ(plan.remote_elements, 7);
  for (const ShiftMessage& msg : plan.messages) {
    EXPECT_EQ(msg.src, msg.dst - 1);
  }
}

TEST(OverlapPlan, ZeroShiftIsEmpty) {
  DimMapping m = DimMapping::bind(DistFormat::block(), 64, 8);
  ShiftPlan plan = plan_shift(m, 0);
  EXPECT_EQ(plan.remote_elements, 0);
  EXPECT_TRUE(plan.messages.empty());
}

TEST(OverlapPlan, ShiftLargerThanBlockCrossesTwoSources) {
  // Blocks of 8; shift 10 reaches into two neighbors.
  DimMapping m = DimMapping::bind(DistFormat::block(), 64, 8);
  ShiftPlan plan = plan_shift(m, 10);
  // Every element's read is remote: 64 - 10 in-range reads, all remote.
  EXPECT_EQ(plan.remote_elements, 54);
  // Destination 1 ghosts from sources 2 and 3.
  Extent from2 = 0, from3 = 0;
  for (const ShiftMessage& msg : plan.messages) {
    if (msg.dst == 1 && msg.src == 2) from2 = msg.count;
    if (msg.dst == 1 && msg.src == 3) from3 = msg.count;
  }
  EXPECT_EQ(from2, 6);
  EXPECT_EQ(from3, 2);
}

TEST(OverlapPlan, CyclicShiftMakesEverythingRemote) {
  DimMapping m = DimMapping::bind(DistFormat::cyclic(), 64, 8);
  ShiftPlan plan = plan_shift(m, 1);
  EXPECT_EQ(plan.remote_elements, 63);  // every in-range read crosses
}

TEST(OverlapAreas, ThreePointStencilOnBlocks) {
  DimMapping m = DimMapping::bind(DistFormat::block(), 64, 8);
  std::vector<OverlapArea> areas = overlap_areas(m, {-1, 1});
  // Interior processors ghost one element on each side; the ends only one.
  EXPECT_EQ(areas[0].left, 0);
  EXPECT_EQ(areas[0].right, 1);
  EXPECT_EQ(areas[3].left, 1);
  EXPECT_EQ(areas[3].right, 1);
  EXPECT_EQ(areas[7].left, 1);
  EXPECT_EQ(areas[7].right, 0);
}

TEST(OverlapAreas, WideStencilWidensOverlap) {
  DimMapping m = DimMapping::bind(DistFormat::block(), 64, 8);
  std::vector<OverlapArea> areas = overlap_areas(m, {-3, -1, 1, 2});
  EXPECT_EQ(areas[3].left, 3);
  EXPECT_EQ(areas[3].right, 2);
}

TEST(OverlapAreas, NonContiguousRejected) {
  DimMapping m = DimMapping::bind(DistFormat::cyclic(), 64, 8);
  EXPECT_THROW(overlap_areas(m, {1}), InternalError);
}

// Differential oracle for a shift plan: walk every in-range element read
// i -> i+shift and re-derive remote counts and distinct (src, dst) pairs
// from per-element owner() probes — the definitionally correct answer the
// analytic plan must reproduce.
void expect_plan_matches_element_walk(const DimMapping& m, Extent shift) {
  ShiftPlan plan = plan_shift(m, shift);
  Extent remote = 0;
  std::map<std::pair<Index1, Index1>, Extent> pairs;
  for (Index1 i = 1; i <= static_cast<Index1>(m.n()); ++i) {
    const Index1 j = i + shift;
    if (j < 1 || j > static_cast<Index1>(m.n())) continue;
    const Index1 dst = m.owner(i);
    const Index1 src = m.owner(j);
    if (src == dst) continue;
    ++remote;
    ++pairs[{src, dst}];
  }
  EXPECT_EQ(plan.remote_elements, remote) << "shift " << shift;
  ASSERT_EQ(plan.messages.size(), pairs.size()) << "shift " << shift;
  for (const ShiftMessage& msg : plan.messages) {
    auto it = pairs.find({msg.src, msg.dst});
    ASSERT_NE(it, pairs.end())
        << "unexpected pair " << msg.src << "->" << msg.dst;
    EXPECT_EQ(msg.count, it->second)
        << "pair " << msg.src << "->" << msg.dst << " shift " << shift;
  }
}

TEST(OverlapPlan, CyclicNegativeShiftsMatchElementWalk) {
  DimMapping m = DimMapping::bind(DistFormat::cyclic(5), 96, 8);
  for (Extent shift : {-1, -4, -5, -12, -40}) {
    expect_plan_matches_element_walk(m, shift);
  }
}

TEST(OverlapPlan, GeneralBlockNegativeShiftsMatchElementWalk) {
  DimMapping m = DimMapping::bind(
      DistFormat::general_block({10, 11, 30, 48, 48, 60, 77}), 96, 8);
  for (Extent shift : {-1, -3, -17, -25}) {
    expect_plan_matches_element_walk(m, shift);
  }
}

TEST(OverlapAreas, GeneralBlockNegativeShiftsMatchOwnedRanges) {
  // Differential: with uneven (including single-element and empty) blocks,
  // each position's ghost areas must equal the per-shift count of in-range
  // reads landing outside its owned interval — maxed across shifts of the
  // same sign, exactly as the shift plans deliver them.
  const Extent n = 96;
  DimMapping m = DimMapping::bind(
      DistFormat::general_block({10, 11, 30, 48, 48, 60, 77}), n, 8);
  const std::vector<Extent> shifts = {-3, -1, 2};
  std::vector<OverlapArea> areas = overlap_areas(m, shifts);
  ASSERT_EQ(areas.size(), 8u);
  for (Index1 p = 1; p <= 8; ++p) {
    const OverlapArea& area = areas[static_cast<std::size_t>(p - 1)];
    if (m.local_count(p) == 0) {
      EXPECT_EQ(area.left, 0);
      EXPECT_EQ(area.right, 0);
      continue;
    }
    const auto [lo, hi] = m.block_range(p);
    Extent left = 0, right = 0;
    for (Extent s : shifts) {
      Extent below = 0, above = 0;
      for (Index1 i = lo; i <= hi; ++i) {
        const Index1 j = i + s;
        if (j < 1 || j > n) continue;  // out-of-range reads do not ghost
        if (j < lo) ++below;
        if (j > hi) ++above;
      }
      left = std::max(left, below);
      right = std::max(right, above);
    }
    EXPECT_EQ(area.left, left) << "position " << p;
    EXPECT_EQ(area.right, right) << "position " << p;
  }
}

// --- the plan == measure property ----------------------------------------------

class PlanMeasureLaw
    : public ::testing::TestWithParam<std::tuple<int, Extent>> {};

TEST_P(PlanMeasureLaw, PlanPredictsMeasuredTransfersExactly) {
  const int which = std::get<0>(GetParam());
  const Extent shift = std::get<1>(GetParam());
  const Extent n = 96;
  const Extent procs = 8;

  DistFormat fmt = [&] {
    switch (which) {
      case 0:
        return DistFormat::block();
      case 1:
        return DistFormat::vienna_block();
      case 2:
        return DistFormat::cyclic(1);
      case 3:
        return DistFormat::cyclic(5);
      default:
        return DistFormat::general_block({10, 11, 30, 48, 48, 60, 77});
    }
  }();
  DimMapping m = DimMapping::bind(fmt, n, procs);
  ShiftPlan plan = plan_shift(m, shift);

  // Measure: B(i) = A(i+shift) on identically mapped arrays.
  Machine machine(procs);
  ProcessorSpace ps(procs);
  const ProcessorArrangement& q = ps.declare("Q", IndexDomain::of_extents({procs}));
  DataEnv env(ps);
  DistArray& a = env.real("A", IndexDomain{Dim(1, n)});
  DistArray& b = env.real("B", IndexDomain{Dim(1, n)});
  env.distribute(a, {fmt}, ProcessorRef(q));
  env.distribute(b, {fmt}, ProcessorRef(q));
  ProgramState state(machine);
  state.create(env, a);
  state.create(env, b);

  const Index1 lhs_lo = shift > 0 ? 1 : 1 - shift;
  const Index1 lhs_hi = shift > 0 ? n - shift : n;
  AssignResult r =
      assign(state, env, b, {Triplet(lhs_lo, lhs_hi)},
             SecExpr::section(a, {Triplet(lhs_lo + shift, lhs_hi + shift)}));

  EXPECT_EQ(r.step.element_transfers, plan.remote_elements);
  EXPECT_EQ(r.step.messages, static_cast<Extent>(plan.messages.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanMeasureLaw,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values<Extent>(-17, -5, -1, 1, 2, 5, 12,
                                                 40)),
    [](const ::testing::TestParamInfo<std::tuple<int, Extent>>& info) {
      const Extent s = std::get<1>(info.param);
      return "fmt" + std::to_string(std::get<0>(info.param)) + "_shift" +
             (s < 0 ? "m" + std::to_string(-s) : std::to_string(s));
    });

// --- section_shift / shadow_covers / classify_operand_comm -------------------
// The documented operand-classification API (exec/overlap.hpp): the static
// analyzer consumes exactly these predicates, so their contract is checked
// here and the composition law is checked against its components.

TEST(SectionShift, DetectsPureTranslates) {
  auto s = section_shift({Triplet(2, 63)}, {Triplet(1, 62)});
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ((*s)[0], -1);
  s = section_shift({Triplet(2, 63)}, {Triplet(3, 64)});
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ((*s)[0], 1);
  s = section_shift({Triplet(2, 63)}, {Triplet(2, 63)});
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ((*s)[0], 0);
  // Per-dimension independence in rank 2.
  s = section_shift({Triplet(1, 8), Triplet(2, 9)},
                    {Triplet(3, 10), Triplet(2, 9)});
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ((*s)[0], 2);
  EXPECT_EQ((*s)[1], 0);
}

TEST(SectionShift, RejectsNonTranslates) {
  // Different extent: not a shift.
  EXPECT_FALSE(section_shift({Triplet(1, 8)}, {Triplet(1, 7)}).has_value());
  // Different stride: not a shift.
  EXPECT_FALSE(
      section_shift({Triplet(1, 8, 1)}, {Triplet(1, 15, 2)}).has_value());
  // Rank mismatch: not a shift.
  EXPECT_FALSE(
      section_shift({Triplet(1, 8)}, {Triplet(1, 8), Triplet(1, 1)})
          .has_value());
}

class ClassifyTest : public ::testing::Test {
 protected:
  ClassifyTest() : ps_(8) {
    q_ = &ps_.declare("Q", IndexDomain::of_extents({8}));
  }

  Distribution block1d() const {
    return Distribution::formats(IndexDomain{Dim(1, 64)},
                                 {DistFormat::block()}, ProcessorRef(*q_));
  }
  Distribution cyclic1d() const {
    return Distribution::formats(IndexDomain{Dim(1, 64)},
                                 {DistFormat::cyclic()}, ProcessorRef(*q_));
  }
  Distribution block_collapsed() const {
    return Distribution::formats(IndexDomain{Dim(1, 16), Dim(1, 16)},
                                 {DistFormat::block(), DistFormat::collapsed()},
                                 ProcessorRef(*q_));
  }

  ProcessorSpace ps_;
  const ProcessorArrangement* q_ = nullptr;
};

TEST_F(ClassifyTest, ShadowCoversContract) {
  const Distribution d = block1d();
  const std::vector<ShadowWidth> one{{1, 1}};
  EXPECT_TRUE(shadow_covers(d, d, {1}, one));
  EXPECT_TRUE(shadow_covers(d, d, {-1}, one));
  EXPECT_TRUE(shadow_covers(d, d, {0}, one));
  // No declared widths, or zero widths: a nonzero shift is uncovered.
  EXPECT_FALSE(shadow_covers(d, d, {1}, {}));
  EXPECT_FALSE(shadow_covers(d, d, {1}, {{0, 0}}));
  // Sidedness matters: left width covers negative shifts only.
  EXPECT_TRUE(shadow_covers(d, d, {-1}, {{1, 0}}));
  EXPECT_FALSE(shadow_covers(d, d, {1}, {{1, 0}}));
  // The width is a per-side capacity, not a parity rule.
  EXPECT_FALSE(shadow_covers(d, d, {2}, one));
  EXPECT_TRUE(shadow_covers(d, d, {2}, {{0, 2}}));
  // Structural mismatch between the mappings defeats any shadow.
  EXPECT_FALSE(shadow_covers(block1d(), cyclic1d(), {1}, one));
}

TEST_F(ClassifyTest, ShadowCoversCollapsedDimensionNeedsNoWidths) {
  // A shift along an undistributed dimension never leaves the processor.
  const Distribution d = block_collapsed();
  EXPECT_TRUE(shadow_covers(d, d, {0, 3}, {}));
  EXPECT_FALSE(shadow_covers(d, d, {1, 0}, {}));  // distributed dim: needs width
  EXPECT_TRUE(shadow_covers(d, d, {1, 3}, {{1, 1}, {0, 0}}));
}

TEST_F(ClassifyTest, ClassifyLocalPostedSync) {
  const Distribution d = block1d();
  const std::vector<Triplet> lhs{Triplet(2, 63)};
  const std::vector<ShadowWidth> one{{1, 1}};
  EXPECT_EQ(classify_operand_comm(d, lhs, d, {Triplet(2, 63)}, one),
            CommClass::kLocal);
  EXPECT_EQ(classify_operand_comm(d, lhs, d, {Triplet(1, 62)}, one),
            CommClass::kPosted);
  EXPECT_EQ(classify_operand_comm(d, lhs, d, {Triplet(3, 64)}, one),
            CommClass::kPosted);
  // Shift exceeds shadow: blocks.
  EXPECT_EQ(classify_operand_comm(d, lhs, d, {Triplet(4, 65 - 2)}, one),
            CommClass::kSync);
  // No shadow at all: blocks.
  EXPECT_EQ(classify_operand_comm(d, lhs, d, {Triplet(1, 62)}, {}),
            CommClass::kSync);
  // Not a translate (extent change): blocks.
  EXPECT_EQ(classify_operand_comm(d, lhs, d, {Triplet(1, 1)}, one),
            CommClass::kSync);
  // Zero shift on structurally different mappings is NOT local.
  EXPECT_EQ(
      classify_operand_comm(block1d(), lhs, cyclic1d(), {Triplet(2, 63)}, one),
      CommClass::kSync);
}

TEST_F(ClassifyTest, ClassifyComposesFromItsComponents) {
  // The composition law the analyzer relies on: classify_operand_comm is
  // exactly section_shift + structurally_equal + shadow_covers glued
  // together, for every combination in this sweep.
  const Distribution dists[] = {block1d(), cyclic1d()};
  const std::vector<Triplet> lhs{Triplet(3, 60)};
  const std::vector<Triplet> rhss[] = {
      {Triplet(3, 60)}, {Triplet(2, 59)}, {Triplet(5, 62)},
      {Triplet(1, 58)}, {Triplet(3, 30, 2)}};
  const std::vector<std::vector<ShadowWidth>> shadows = {
      {}, {{0, 0}}, {{1, 1}}, {{2, 2}}};
  for (const Distribution& ld : dists) {
    for (const Distribution& rd : dists) {
      for (const auto& rhs : rhss) {
        for (const auto& sh : shadows) {
          const CommClass got = classify_operand_comm(ld, lhs, rd, rhs, sh);
          const auto shift = section_shift(lhs, rhs);
          CommClass want = CommClass::kSync;
          if (shift.has_value()) {
            const bool zero = std::all_of(shift->begin(), shift->end(),
                                          [](Extent s) { return s == 0; });
            if (zero && ld.structurally_equal(rd)) {
              want = CommClass::kLocal;
            } else if (!zero && shadow_covers(ld, rd, *shift, sh)) {
              want = CommClass::kPosted;
            }
          }
          EXPECT_EQ(got, want);
        }
      }
    }
  }
}

TEST(ClassifyDifferential, ExecutorPostedBitsMatchClassification) {
  // Record-time ground truth: AssignResult::posted_leaves must equal the
  // static classification for covered, uncovered, and unshifted operands.
  const Extent n = 64;
  const Extent procs = 8;
  Machine machine(procs);
  ProcessorSpace ps(procs);
  const ProcessorArrangement& q =
      ps.declare("Q", IndexDomain::of_extents({procs}));
  DataEnv env(ps);
  DistArray& a = env.real("A", IndexDomain{Dim(1, n)});
  DistArray& b = env.real("B", IndexDomain{Dim(1, n)});
  DistArray& c = env.real("C", IndexDomain{Dim(1, n)});
  env.distribute(a, {DistFormat::block()}, ProcessorRef(q));
  env.distribute(b, {DistFormat::block()}, ProcessorRef(q));
  env.distribute(c, {DistFormat::block()}, ProcessorRef(q));
  a.set_shadow({{1, 1}});  // A covers shift 1; C declares nothing
  ProgramState state(machine);
  state.create(env, a);
  state.create(env, b);
  state.create(env, c);

  // B(2:63) = A(1:62) + A(2:63) + C(3:64): posted, local, sync.
  const std::vector<Triplet> lhs{Triplet(2, 63)};
  SecExpr rhs = SecExpr::section(a, {Triplet(1, 62)}) +
                SecExpr::section(a, {Triplet(2, 63)}) +
                SecExpr::section(c, {Triplet(3, 64)});
  AssignResult r = assign(state, env, b, lhs, rhs);
  ASSERT_EQ(r.posted_leaves.size(), 3u);

  const std::vector<SecLeaf> leaves = rhs.leaves();
  ASSERT_EQ(leaves.size(), 3u);
  const CommClass expect[] = {CommClass::kPosted, CommClass::kLocal,
                              CommClass::kSync};
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const CommClass cls = classify_operand_comm(
        env.distribution_of("B"), lhs, state.layout(leaves[l].array),
        *leaves[l].section, state.shadow_of(leaves[l].array));
    EXPECT_EQ(cls, expect[l]) << "leaf " << l;
    EXPECT_EQ(static_cast<bool>(r.posted_leaves[l]), cls == CommClass::kPosted)
        << "leaf " << l;
  }
}

}  // namespace
}  // namespace hpfnt
