// Differential tests of the segment-vectorized evaluation engine:
//
//  * SegmentIter / segment_list (core/index_domain.hpp) must enumerate
//    exactly the section's parent linear positions, in Fortran order, as
//    maximal flat strided segments;
//  * SecProgram (exec/section_expr.hpp) must match the per-element
//    reference oracle eval_serial value-for-value; and
//  * assign with EvalEngine::kSegment must match EvalEngine::kElement
//    stat-for-stat (byte-identical StepStats) and value-for-value, over
//    randomized triplet sections (ascending, strided, and descending),
//    unit-dimension broadcast leaves, scalar constants, and
//    nested-alignment operands.
//
// These run under the ASan+UBSan CI job like the rest of the suite, so the
// raw-span kernels and the scratch arena stay leak- and UB-clean.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/data_env.hpp"
#include "exec/assign.hpp"
#include "support/rng.hpp"

namespace hpfnt {
namespace {

// --- SegmentIter ------------------------------------------------------------

// Reference: the section's parent linear positions in Fortran order.
std::vector<Extent> reference_positions(const IndexDomain& domain,
                                        const std::vector<Triplet>& section) {
  std::vector<Extent> out;
  domain.section_domain(section).for_each([&](const IndexTuple& pos) {
    out.push_back(
        domain.linearize(domain.section_parent_index(section, pos)));
  });
  return out;
}

std::vector<Extent> segment_positions(const IndexDomain& domain,
                                      const std::vector<Triplet>& section) {
  std::vector<Extent> out;
  for_each_segment(domain, section, [&](const FlatSegment& seg) {
    EXPECT_GT(seg.count, 0);
    for (Extent k = 0; k < seg.count; ++k) {
      out.push_back(seg.base + k * seg.stride);
    }
  });
  return out;
}

TEST(SegmentIter, WholeContiguousSectionIsOneSegment) {
  const IndexDomain domain{Dim(1, 8), Dim(0, 3), Dim(1, 5)};
  const std::vector<FlatSegment> segs =
      segment_list(domain, domain.dims());
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].base, 0);
  EXPECT_EQ(segs[0].count, domain.size());
  EXPECT_EQ(segs[0].stride, 1);
}

TEST(SegmentIter, ColumnSectionFlattensToOneStridedSegment) {
  // A(3, :) of A(1:8, 1:5): five elements, one per row, pitch 8 apart.
  const IndexDomain domain{Dim(1, 8), Dim(1, 5)};
  const std::vector<FlatSegment> segs =
      segment_list(domain, {Triplet::single(3), Triplet(1, 5)});
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].base, 2);
  EXPECT_EQ(segs[0].count, 5);
  EXPECT_EQ(segs[0].stride, 8);
}

TEST(SegmentIter, DescendingSectionHasNegativeStride) {
  const IndexDomain domain{Dim(1, 10)};
  const std::vector<FlatSegment> segs =
      segment_list(domain, {Triplet(9, 1, -2)});
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].base, 8);
  EXPECT_EQ(segs[0].count, 5);
  EXPECT_EQ(segs[0].stride, -2);
}

TEST(SegmentIter, RankZeroDomainIsOneElement) {
  const IndexDomain domain;
  const std::vector<FlatSegment> segs = segment_list(domain, {});
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].base, 0);
  EXPECT_EQ(segs[0].count, 1);
}

TEST(SegmentIter, EmptySectionYieldsNoSegments) {
  const IndexDomain domain{Dim(1, 6), Dim(1, 4)};
  EXPECT_TRUE(
      segment_list(domain, {Triplet(5, 2), Triplet(1, 4)}).empty());
}

TEST(SegmentIter, RandomizedSectionsEnumerateExactPositions) {
  Rng rng(20260729);
  for (int trial = 0; trial < 300; ++trial) {
    const int rank = static_cast<int>(rng.uniform(1, 3));
    std::vector<Triplet> dims;
    std::vector<Triplet> section;
    for (int d = 0; d < rank; ++d) {
      const Index1 lower = rng.uniform(-3, 3);
      const Index1 upper = lower + rng.uniform(0, 9);
      dims.emplace_back(lower, upper);
      // Random sub-triplet: sometimes unit, sometimes strided, sometimes
      // descending.
      const Extent extent = upper - lower + 1;
      const Index1 a = lower + rng.uniform(0, extent - 1);
      const Index1 b = lower + rng.uniform(0, extent - 1);
      Index1 stride = rng.uniform(1, 3);
      if (a > b) stride = -stride;
      if (a == b) stride = 1;
      section.emplace_back(a, b, stride);
    }
    const IndexDomain domain(dims);
    EXPECT_EQ(segment_positions(domain, section),
              reference_positions(domain, section))
        << "domain " << domain.to_string();
  }
}

TEST(SegmentIter, SegmentsAreMaximal) {
  // Adjacent segments must not be mergeable: that would mean the iterator
  // broke a run it was supposed to extend.
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const int rank = static_cast<int>(rng.uniform(1, 3));
    std::vector<Triplet> dims;
    std::vector<Triplet> section;
    for (int d = 0; d < rank; ++d) {
      const Index1 upper = rng.uniform(2, 9);
      dims.emplace_back(1, upper);
      const Index1 a = rng.uniform(1, upper);
      const Index1 b = a + rng.uniform(0, upper - a);
      section.emplace_back(a, b, rng.uniform(1, 2));
    }
    const IndexDomain domain(dims);
    const std::vector<FlatSegment> segs = segment_list(domain, section);
    for (std::size_t i = 1; i < segs.size(); ++i) {
      const FlatSegment& p = segs[i - 1];
      const FlatSegment& c = segs[i];
      const bool continues =
          c.base == p.base + p.count * p.stride &&
          (c.count == 1 || p.count == 1 || c.stride == p.stride);
      EXPECT_FALSE(continues)
          << "segments " << i - 1 << " and " << i << " should have merged";
    }
  }
}

// --- SecProgram vs the element oracle ---------------------------------------

// One environment, two program states: `seg` runs EvalEngine::kSegment,
// `ele` runs EvalEngine::kElement. ArrayIds are shared, so storage can be
// compared bytewise.
struct TwinRig {
  TwinRig()
      : machine(12),
        ps(12),
        env((ps.declare("P", IndexDomain::of_extents({12})), ps)),
        seg(machine),
        ele(machine) {}

  void create_both(const DistArray& arr, std::uint64_t fill_seed) {
    seg.create(env, arr);
    ele.create(env, arr);
    Rng rng(fill_seed);
    // Same deterministic fill on both states.
    std::vector<double> values(
        static_cast<std::size_t>(arr.domain().size()));
    for (double& v : values) v = rng.uniform01() * 8.0 - 4.0;
    std::size_t at = 0;
    auto fn = [&](const IndexTuple&) { return values[at++]; };
    seg.fill(arr.id(), fn);
    at = 0;
    ele.fill(arr.id(), fn);
  }

  // Runs the same assignment through both engines and requires
  // byte-identical statistics and storage.
  void check_assign(const DistArray& lhs,
                    const std::vector<Triplet>& lhs_section,
                    const SecExpr& rhs) {
    const AssignResult rs =
        assign(seg, env, lhs, lhs_section, rhs, "seg", EvalEngine::kSegment);
    const AssignResult re =
        assign(ele, env, lhs, lhs_section, rhs, "ele", EvalEngine::kElement);
    EXPECT_EQ(rs.step.messages, re.step.messages);
    EXPECT_EQ(rs.step.bytes, re.step.bytes);
    EXPECT_EQ(rs.step.element_transfers, re.step.element_transfers);
    EXPECT_EQ(rs.step.flops, re.step.flops);
    EXPECT_EQ(std::memcmp(&rs.step.time_us, &re.step.time_us,
                          sizeof(double)),
              0);
    EXPECT_EQ(rs.elements, re.elements);
    EXPECT_EQ(rs.local_reads, re.local_reads);
    EXPECT_EQ(std::memcmp(seg.values_span(lhs.id()), ele.values_span(lhs.id()),
                          sizeof(double) * static_cast<std::size_t>(
                                               seg.values_count(lhs.id()))),
              0)
        << "stored values diverged for " << lhs.name();
  }

  Machine machine;
  ProcessorSpace ps;
  DataEnv env;
  ProgramState seg;
  ProgramState ele;
};

TEST(SecProgramDifferential, StencilOverBlockSections) {
  TwinRig rig;
  const Extent n = 40;
  DistArray& a = rig.env.real("A", IndexDomain{Dim(1, n), Dim(1, n)});
  DistArray& b = rig.env.real("B", IndexDomain{Dim(1, n), Dim(1, n)});
  const ProcessorRef procs(rig.ps.find("P"));
  rig.env.distribute(a, {DistFormat::block(), DistFormat::collapsed()}, procs);
  rig.env.distribute(b, {DistFormat::block(), DistFormat::collapsed()}, procs);
  rig.create_both(a, 1);
  rig.create_both(b, 2);
  const Triplet inner(2, n - 1);
  SecExpr rhs = (SecExpr::section(a, {Triplet(1, n - 2), inner}) +
                 SecExpr::section(a, {Triplet(3, n), inner}) +
                 SecExpr::section(a, {inner, Triplet(1, n - 2)}) +
                 SecExpr::section(a, {inner, Triplet(3, n)})) *
                0.25;
  rig.check_assign(b, {inner, inner}, rhs);
}

TEST(SecProgramDifferential, UnitDimensionLeavesBroadcastAndSplat) {
  TwinRig rig;
  const Extent n = 24;
  DistArray& a = rig.env.real("A", IndexDomain{Dim(1, n)});
  DistArray& d = rig.env.real("D", IndexDomain{Dim(1, n), Dim(1, 6)});
  DistArray& s = rig.env.real("S", IndexDomain{Dim(1, n), Dim(1, 6)});
  const ProcessorRef procs(rig.ps.find("P"));
  rig.env.distribute(a, {DistFormat::cyclic(2)}, procs);
  rig.env.distribute(d, {DistFormat::block(), DistFormat::collapsed()}, procs);
  rig.env.distribute(s, {DistFormat::block(), DistFormat::collapsed()}, procs);
  rig.create_both(a, 3);
  rig.create_both(d, 4);
  rig.create_both(s, 5);
  // D(:,j) conforms with A(:) (unit dimension squeezed out).
  SecExpr rhs = SecExpr::section(d, {Triplet(1, n), Triplet::single(3)}) *
                    2.0 +
                SecExpr::whole(a);
  rig.check_assign(a, {Triplet(1, n)}, rhs);
  // An all-unit-dimension leaf has an empty squeezed shape: the single
  // element S(5, 2) splats (stride-0 operand) over the whole LHS section.
  SecExpr splat =
      SecExpr::section(s, {Triplet::single(5), Triplet::single(2)}) * 2.0 +
      1.0;
  rig.check_assign(a, {Triplet(2, n - 1, 2)}, splat);
}

TEST(SecProgramDifferential, ScalarConstantRhsBroadcasts) {
  TwinRig rig;
  const Extent n = 30;
  DistArray& a = rig.env.real("A", IndexDomain{Dim(1, n)});
  rig.env.distribute(a, {DistFormat::block()},
                     ProcessorRef(rig.ps.find("P")));
  rig.create_both(a, 6);
  // Shapeless RHS: every LHS element receives the folded constant.
  SecExpr rhs = SecExpr::constant(3.0) * 0.5 + 1.25;
  rig.check_assign(a, {Triplet(2, n - 1, 3)}, rhs);
}

TEST(SecProgramDifferential, NestedAlignmentOperands) {
  TwinRig rig;
  const Extent n = 32;
  DistArray& a = rig.env.real("A", IndexDomain{Dim(1, n)});
  DistArray& b = rig.env.real("B", IndexDomain{Dim(1, n)});
  DistArray& c = rig.env.real("C", IndexDomain{Dim(1, n)});
  const ProcessorRef procs(rig.ps.find("P"));
  rig.env.distribute(a, {DistFormat::block()}, procs);
  // Two derived operands over one base: an identity ALIGN and a shifted
  // one whose α clamps at the upper edge (§5.1) — their layouts are
  // CONSTRUCT(α, δ_A) payloads, so the engine evaluates through
  // kConstructed distributions while pricing composes through α.
  rig.env.align(b, a, AlignSpec::colons(1));
  rig.env.align(c, a,
                AlignSpec({AligneeSub::dummy(0, "I")},
                          {BaseSub::of_expr(AlignExpr::dummy(0) + 1)}));
  rig.create_both(a, 7);
  rig.create_both(b, 8);
  rig.create_both(c, 9);
  SecExpr rhs = (SecExpr::whole(b) - SecExpr::whole(c)) /
                    SecExpr::constant(4.0) +
                2.0 * SecExpr::whole(a);
  rig.check_assign(a, {Triplet(1, n)}, rhs);
}

TEST(SecProgramDifferential, RandomizedTripletSections) {
  TwinRig rig;
  const Extent rows = 18;
  const Extent cols = 14;
  const IndexDomain domain{Dim(1, rows), Dim(1, cols)};
  DistArray& x = rig.env.real("X", IndexDomain{Dim(1, rows), Dim(1, cols)});
  DistArray& y = rig.env.real("Y", IndexDomain{Dim(1, rows), Dim(1, cols)});
  rig.ps.declare("G", IndexDomain::of_extents({3, 4}));
  const ProcessorRef grid(rig.ps.find("G"));
  rig.env.distribute(x, {DistFormat::block(), DistFormat::cyclic(1)}, grid);
  rig.env.distribute(y, {DistFormat::cyclic(3), DistFormat::block()}, grid);
  rig.create_both(x, 10);
  rig.create_both(y, 11);
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    // Random conforming shape, random placements of it inside X and Y
    // (including descending source triplets).
    const Extent h = rng.uniform(1, 6);
    const Extent w = rng.uniform(1, 5);
    auto place = [&](Extent extent, Extent span) {
      const Index1 stride = rng.uniform(1, 2);
      const Index1 max_lo = extent - (span - 1) * stride;
      const Index1 lo = rng.uniform(1, max_lo > 1 ? max_lo : 1);
      const Index1 hi = lo + (span - 1) * stride;
      if (span > 1 && rng.uniform(0, 3) == 0) {
        return Triplet(hi, lo, -stride);  // descending
      }
      return Triplet(lo, hi, stride);
    };
    const std::vector<Triplet> lhs_sec = {place(rows, h), place(cols, w)};
    const std::vector<Triplet> src1 = {place(rows, h), place(cols, w)};
    const std::vector<Triplet> src2 = {place(rows, h), place(cols, w)};
    SecExpr rhs =
        SecExpr::section(y, src1) * 0.75 + SecExpr::section(x, src2);
    rig.check_assign(x, lhs_sec, rhs);
  }
}

TEST(SecProgramDifferential, ProgramEvalMatchesEvalSerialDirectly) {
  TwinRig rig;
  const Extent n = 21;
  DistArray& a = rig.env.real("A", IndexDomain{Dim(0, n)});
  rig.env.distribute(a, {DistFormat::block()},
                     ProcessorRef(rig.ps.find("P")));
  rig.create_both(a, 13);
  SecExpr expr = (SecExpr::section(a, {Triplet(0, n - 1)}) *
                  SecExpr::section(a, {Triplet(1, n)})) +
                 (-0.5);
  const Extent total = n;
  std::vector<double> out(static_cast<std::size_t>(total));
  expr.program().eval(rig.seg, rig.seg.scratch(), total, out.data());
  for (Extent k = 0; k < total; ++k) {
    IndexTuple pos;
    pos.push_back(k + 1);
    EXPECT_EQ(out[static_cast<std::size_t>(k)],
              expr.eval_serial(rig.seg, pos))
        << "position " << k;
  }
}

// --- Fused leaf opcodes ------------------------------------------------------

// Operand placements of a 16-element leaf inside the 1-D array X(1:40):
// unit stride, stride 2, descending (negative stride), and a single
// element that broadcasts as a stride-0 operand.
enum class Placement { kUnit, kStrided, kNegative, kBroadcast };

std::vector<Triplet> place(Placement p, Index1 shift) {
  switch (p) {
    case Placement::kUnit:
      return {Triplet(1 + shift, 16 + shift)};
    case Placement::kStrided:
      return {Triplet(1 + shift, 31 + shift, 2)};
    case Placement::kNegative:
      return {Triplet(38 - shift, 8 - shift, -2)};
    case Placement::kBroadcast:
      return {Triplet::single(7 + shift)};
  }
  return {};
}

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::kUnit: return "unit";
    case Placement::kStrided: return "strided";
    case Placement::kNegative: return "negative";
    case Placement::kBroadcast: return "broadcast";
  }
  return "?";
}

SecExpr apply_op(char op, SecExpr a, SecExpr b) {
  switch (op) {
    case '+': return std::move(a) + std::move(b);
    case '-': return std::move(a) - std::move(b);
    case '*': return std::move(a) * std::move(b);
    default: return std::move(a) / std::move(b);
  }
}

// Evaluates `expr` over `total` positions through the compiled program and
// requires every value to be byte-equal to the per-element oracle, and the
// program's leaves to be SecExpr::leaves() in content and order.
void expect_matches_oracle(const ProgramState& state, ScratchArena& arena,
                           const SecExpr& expr, Extent total,
                           const std::string& what) {
  const SecProgram& prog = expr.program();
  const std::vector<SecLeaf> tree_leaves = expr.leaves();
  ASSERT_EQ(prog.leaves().size(), tree_leaves.size()) << what;
  for (std::size_t l = 0; l < tree_leaves.size(); ++l) {
    EXPECT_EQ(prog.leaves()[l].array, tree_leaves[l].array) << what;
    EXPECT_EQ(prog.leaves()[l].section, tree_leaves[l].section) << what;
  }
  std::vector<double> out(static_cast<std::size_t>(total));
  prog.eval(state, arena, total, out.data());
  for (Extent k = 0; k < total; ++k) {
    IndexTuple pos;
    pos.push_back(k + 1);
    const double want = expr.eval_serial(state, pos);
    const double got = out[static_cast<std::size_t>(k)];
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << what << " at position " << k << ": " << got << " vs " << want;
  }
}

struct FusedRig {
  FusedRig() {
    x = &rig.env.real("X", IndexDomain{Dim(1, 40)});
    y = &rig.env.real("Y", IndexDomain{Dim(1, 40)});
    const ProcessorRef procs(rig.ps.find("P"));
    rig.env.distribute(*x, {DistFormat::block()}, procs);
    rig.env.distribute(*y, {DistFormat::cyclic(3)}, procs);
    rig.create_both(*x, 31);
    rig.create_both(*y, 32);
  }

  SecExpr leaf(const DistArray& a, Placement p, Index1 shift) const {
    return SecExpr::section(a, place(p, shift));
  }

  TwinRig rig;
  DistArray* x = nullptr;
  DistArray* y = nullptr;
};

constexpr char kOps[] = {'+', '-', '*', '/'};
constexpr Placement kPlacements[] = {Placement::kUnit, Placement::kStrided,
                                     Placement::kNegative,
                                     Placement::kBroadcast};

TEST(SecProgramFusedOps, LeafOpLeafMatchesEvalSerial) {
  FusedRig f;
  for (char op : kOps) {
    for (Placement pa : kPlacements) {
      for (Placement pb : kPlacements) {
        const SecExpr e =
            apply_op(op, f.leaf(*f.x, pa, 0), f.leaf(*f.y, pb, 1));
        expect_matches_oracle(
            f.rig.seg, f.rig.seg.scratch(), e, 16,
            std::string("X ") + op + " Y, " + placement_name(pa) + "/" +
                placement_name(pb));
      }
    }
  }
}

TEST(SecProgramFusedOps, ExprOpLeafAndLeafOpExprMatchEvalSerial) {
  FusedRig f;
  for (char op : kOps) {
    for (Placement p : kPlacements) {
      // A register-resident left operand (an expression over unit leaves)
      // combined with a leaf read in place, in both operand orders.
      const SecExpr inner = f.leaf(*f.y, Placement::kUnit, 2) * 1.5 -
                            f.leaf(*f.x, Placement::kUnit, 3);
      const SecExpr left = apply_op(op, inner, f.leaf(*f.x, p, 0));
      expect_matches_oracle(f.rig.seg, f.rig.seg.scratch(), left, 16,
                            std::string("expr ") + op + " leaf, " +
                                placement_name(p));
      const SecExpr right = apply_op(op, f.leaf(*f.x, p, 0), inner);
      expect_matches_oracle(f.rig.seg, f.rig.seg.scratch(), right, 16,
                            std::string("leaf ") + op + " expr, " +
                                placement_name(p));
    }
  }
}

TEST(SecProgramFusedOps, ConstOpLeafAndLeafOpConstMatchEvalSerial) {
  FusedRig f;
  for (char op : kOps) {
    for (Placement p : kPlacements) {
      const SecExpr c = SecExpr::constant(-2.75);
      expect_matches_oracle(f.rig.seg, f.rig.seg.scratch(),
                            apply_op(op, c, f.leaf(*f.y, p, 0)), 16,
                            std::string("const ") + op + " leaf, " +
                                placement_name(p));
      expect_matches_oracle(f.rig.seg, f.rig.seg.scratch(),
                            apply_op(op, f.leaf(*f.y, p, 0), c), 16,
                            std::string("leaf ") + op + " const, " +
                                placement_name(p));
    }
  }
}

TEST(SecProgramFusedOps, LeafOrderSurvivesMixedFusion) {
  // A tree mixing every fused form: the compiled leaves must be the tree's
  // leaves in evaluation order (the executor prices operands by index).
  FusedRig f;
  const SecExpr a = f.leaf(*f.x, Placement::kUnit, 0);
  const SecExpr b = f.leaf(*f.y, Placement::kStrided, 1);
  const SecExpr c = f.leaf(*f.x, Placement::kNegative, 2);
  const SecExpr d = f.leaf(*f.y, Placement::kBroadcast, 3);
  const SecExpr e = (a - (b * c)) / (d + a) - SecExpr::constant(3.0) / c;
  const std::vector<SecLeaf> leaves = e.program().leaves();
  ASSERT_EQ(leaves.size(), 6u);
  const std::vector<std::vector<Triplet>> want = {
      place(Placement::kUnit, 0),     place(Placement::kStrided, 1),
      place(Placement::kNegative, 2), place(Placement::kBroadcast, 3),
      place(Placement::kUnit, 0),     place(Placement::kNegative, 2)};
  const std::vector<ArrayId> arrays = {f.x->id(), f.y->id(), f.x->id(),
                                       f.y->id(), f.x->id(), f.x->id()};
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    EXPECT_EQ(*leaves[l].section, want[l]) << "leaf " << l;
    EXPECT_EQ(leaves[l].array, arrays[l]) << "leaf " << l;
  }
  expect_matches_oracle(f.rig.seg, f.rig.seg.scratch(), e, 16, "mixed tree");
}

TEST(SecProgramFusedOps, JacobiRightHandSideNeedsNoRegisterFile) {
  // (L + L + L + L) * 0.25 compiles to LL, L, L, MulC: the only live
  // register is the output, so no leaf is ever copied into scratch.
  FusedRig f;
  auto leaf = [&](Index1 shift) {
    return f.leaf(*f.x, Placement::kUnit, shift);
  };
  const SecExpr jacobi = (leaf(0) + leaf(2) + leaf(1) + leaf(3)) * 0.25;
  EXPECT_EQ(jacobi.program().depth(), 1);
  expect_matches_oracle(f.rig.seg, f.rig.seg.scratch(), jacobi, 16, "jacobi");
}

}  // namespace
}  // namespace hpfnt
