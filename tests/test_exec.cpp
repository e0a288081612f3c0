// The owner-computes executor end to end: storage, assignments verified
// against serial references, remap movement, argument passing, and the
// collocation claims the paper's model rests on.
#include <gtest/gtest.h>

#include <cmath>

#include "exec/assign.hpp"
#include "exec/redistribute_exec.hpp"
#include "exec/stencil.hpp"
#include "support/error.hpp"
#include "replicate_all.hpp"

namespace hpfnt {
namespace {

IndexTuple idx(std::initializer_list<Index1> values) {
  IndexTuple t;
  for (Index1 v : values) t.push_back(v);
  return t;
}

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : machine_(8), ps_(8), env_(ps_) {
    ps_.declare("Q", IndexDomain::of_extents({8}));
  }
  Machine machine_;
  ProcessorSpace ps_;
  DataEnv env_;
};

TEST_F(ExecTest, StorageLifecycleAndMemoryAccounting) {
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 64)});
  env_.distribute(a, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  state.create(env_, a);
  EXPECT_TRUE(state.exists(a.id()));
  // 64 reals of 4 bytes over 8 processors: 32 bytes each.
  for (ApId p = 0; p < 8; ++p) EXPECT_EQ(state.memory().bytes_on(p), 32);
  state.destroy(a);
  EXPECT_FALSE(state.exists(a.id()));
  EXPECT_EQ(state.memory().total_bytes(), 0);
}

TEST_F(ExecTest, ReplicatedStorageChargesEveryOwner) {
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 8)});
  // Replicate A over all 8 processors.
  state.create_with(a, replicated_over(a.domain(), ProcessorRef(ps_.find("Q"))));
  EXPECT_EQ(state.memory().total_bytes(), 8 * 8 * 4);
}

TEST_F(ExecTest, FillAndChecksum) {
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 10)});
  state.create(env_, a);
  state.fill(a.id(), [](const IndexTuple& i) {
    return static_cast<double>(i[0]);
  });
  EXPECT_DOUBLE_EQ(state.checksum(a.id()), 55.0);
  EXPECT_DOUBLE_EQ(state.value(a.id(), idx({7})), 7.0);
}

TEST_F(ExecTest, AssignMatchesSerialReference) {
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 40)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 40)});
  env_.distribute(a, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  env_.distribute(b, {DistFormat::cyclic(3)}, ProcessorRef(ps_.find("Q")));
  state.create(env_, a);
  state.create(env_, b);
  state.fill(a.id(), [](const IndexTuple& i) {
    return std::sin(static_cast<double>(i[0]));
  });

  // B(2:39) = A(1:38) * 2 + A(3:40)
  SecExpr rhs = SecExpr::section(a, {Triplet(1, 38)}) * 2.0 +
                SecExpr::section(a, {Triplet(3, 40)});
  AssignResult r = assign(state, env_, b, {Triplet(2, 39)}, rhs);
  EXPECT_EQ(r.elements, 38);

  // Serial reference on a fresh state.
  ProgramState ref(machine_);
  ref.create(env_, a);
  ref.create(env_, b);
  ref.fill(a.id(), [](const IndexTuple& i) {
    return std::sin(static_cast<double>(i[0]));
  });
  assign_serial(ref, b, {Triplet(2, 39)}, rhs);
  for (Index1 i = 1; i <= 40; ++i) {
    EXPECT_DOUBLE_EQ(state.value(b.id(), idx({i})), ref.value(b.id(), idx({i})))
        << "i=" << i;
  }
}

TEST_F(ExecTest, ScalarSectionBroadcastAssign) {
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 40)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 40)});
  env_.distribute(a, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  env_.distribute(b, {DistFormat::cyclic(3)}, ProcessorRef(ps_.find("Q")));
  state.create(env_, a);
  state.create(env_, b);
  state.fill(a.id(), [](const IndexTuple& i) {
    return std::sin(static_cast<double>(i[0]));
  });

  // B = A(7:7) * 2 — the squeezed RHS shape is empty, so the single source
  // element broadcasts over the whole LHS (one read per LHS element).
  SecExpr rhs = SecExpr::section(a, {Triplet(7, 7)}) * 2.0;
  AssignResult r = assign(state, env_, b, {Triplet(1, 40)}, rhs, "broadcast");
  EXPECT_EQ(r.elements, 40);
  const double expected = 2.0 * std::sin(7.0);
  for (Index1 i = 1; i <= 40; ++i) {
    EXPECT_DOUBLE_EQ(state.value(b.id(), idx({i})), expected) << "i=" << i;
  }

  // Each LHS element whose computing owner does not hold A(7) pays one
  // remote read of the broadcast element.
  const Distribution& da = env_.distribution_of(a);
  const Distribution& db = env_.distribution_of(b);
  const OwnerSet source_owners = da.owners_uncached(idx({7}));
  Extent expected_remote = 0;
  for (Index1 i = 1; i <= 40; ++i) {
    ApId p = db.first_owner(idx({i}));
    bool collocated = false;
    for (ApId q : source_owners) collocated = collocated || q == p;
    if (!collocated) ++expected_remote;
  }
  EXPECT_EQ(r.step.element_transfers, expected_remote);
}

TEST_F(ExecTest, OverlappingSelfAssignmentUsesRhsSnapshot) {
  // A(2:10) = A(1:9): Fortran evaluates the RHS first.
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 10)});
  env_.distribute(a, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  state.create(env_, a);
  state.fill(a.id(), [](const IndexTuple& i) {
    return static_cast<double>(i[0]);
  });
  assign(state, env_, a, {Triplet(2, 10)},
         SecExpr::section(a, {Triplet(1, 9)}));
  for (Index1 i = 2; i <= 10; ++i) {
    EXPECT_DOUBLE_EQ(state.value(a.id(), idx({i})),
                     static_cast<double>(i - 1));
  }
}

TEST_F(ExecTest, CollocatedOperandsMoveNothing) {
  // §1: "an operation on two or more data objects is likely to be carried
  // out much faster if they all reside in the same processor."
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 64)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 64)});
  DistArray& c = env_.real("C", IndexDomain{Dim(1, 64)});
  env_.distribute(a, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  env_.align(b, a, AlignSpec::colons(1));
  env_.align(c, a, AlignSpec::colons(1));
  state.create(env_, a);
  state.create(env_, b);
  state.create(env_, c);
  AssignResult r = assign(state, env_, c,
                          SecExpr::whole(a) + SecExpr::whole(b));
  EXPECT_EQ(r.step.messages, 0);
  EXPECT_EQ(r.step.bytes, 0);
  EXPECT_DOUBLE_EQ(r.remote_read_fraction, 0.0);
}

TEST_F(ExecTest, MisalignedOperandsPayMessages) {
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 64)});
  DistArray& c = env_.real("C", IndexDomain{Dim(1, 64)});
  env_.distribute(a, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  env_.distribute(c, {DistFormat::cyclic()}, ProcessorRef(ps_.find("Q")));
  state.create(env_, a);
  state.create(env_, c);
  AssignResult r = assign(state, env_, c, SecExpr::whole(a));
  EXPECT_GT(r.step.messages, 0);
  EXPECT_GT(r.remote_read_fraction, 0.5);  // cyclic vs block: mostly remote
}

TEST_F(ExecTest, RemapMovesExactlyTheChangedElements) {
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 16)});
  env_.distribute(a, {DistFormat::block()},
                  ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))}));
  env_.dynamic(a);
  state.create(env_, a);
  state.fill(a.id(), [](const IndexTuple& i) {
    return static_cast<double>(i[0] * i[0]);
  });
  // BLOCK over 4 -> CYCLIC over 4: element i stays home iff
  // block owner (i-1)/4 == cyclic owner (i-1)%4, i.e. for i=1,6,11,16.
  std::vector<RemapEvent> events = env_.redistribute(
      a, {DistFormat::cyclic()},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))}));
  std::vector<StepStats> steps = apply_remaps(state, env_, events);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].element_transfers, 12);  // 16 - 4 stay-at-home
  // Values survive the move.
  for (Index1 i = 1; i <= 16; ++i) {
    EXPECT_DOUBLE_EQ(state.value(a.id(), idx({i})),
                     static_cast<double>(i * i));
  }
  // Storage layout now follows the new mapping: an assignment targeted at
  // the cyclic layout is local.
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 16)});
  env_.distribute(b, {DistFormat::cyclic()},
                  ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))}));
  state.create(env_, b);
  AssignResult r = assign(state, env_, b, SecExpr::whole(a));
  EXPECT_EQ(r.step.messages, 0);
}

TEST_F(ExecTest, RedistributeBaseMovesAligneesToo) {
  // §4.2: B aligned to A follows A's redistribution — and that movement is
  // real data movement.
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 16)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 16)});
  ProcessorRef q4(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))});
  env_.distribute(a, {DistFormat::block()}, q4);
  env_.align(b, a, AlignSpec::colons(1));
  env_.dynamic(a);
  state.create(env_, a);
  state.create(env_, b);
  std::vector<RemapEvent> events =
      env_.redistribute(a, {DistFormat::cyclic()}, q4);
  ASSERT_EQ(events.size(), 2u);
  std::vector<StepStats> steps = apply_remaps(state, env_, events);
  EXPECT_EQ(steps[0].element_transfers, steps[1].element_transfers);
  // After the move, A and B are still collocated.
  AssignResult r = assign(state, env_, b, SecExpr::whole(a));
  EXPECT_EQ(r.step.messages, 0);
}

TEST_F(ExecTest, InheritedArgumentCopiesAreFree) {
  // §8.1.2: a dummy that inherits its distribution costs nothing to pass.
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 1000)});
  env_.distribute(a, {DistFormat::cyclic(3)}, ProcessorRef(ps_.find("Q")));
  state.create(env_, a);
  state.fill(a.id(), [](const IndexTuple& i) {
    return static_cast<double>(i[0]);
  });

  ProcedureSig sub{"SUB", {DummySpec{"X", ElemType::kReal,
                                     DummyMapping::inherit(), false}}};
  CallFrame frame = env_.call(
      sub, {ActualArg::of_section(a.id(), {Triplet(2, 996, 2)})});
  std::vector<StepStats> in = enter_call(state, env_, frame);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].messages, 0);  // inherited: all copies processor-local
  const DistArray& x = frame.callee->find("X");
  EXPECT_DOUBLE_EQ(state.value(x.id(), idx({5})), 10.0);  // X(5) = A(10)

  // Callee modifies X; copy-out restores into A's section, again free.
  assign(state, *frame.callee, x, SecExpr::whole(x) * 2.0);
  std::vector<StepStats> out = exit_call(state, env_, frame);
  EXPECT_EQ(out[0].messages, 0);
  EXPECT_DOUBLE_EQ(state.value(a.id(), idx({10})), 20.0);
  EXPECT_DOUBLE_EQ(state.value(a.id(), idx({11})), 11.0);  // untouched
}

TEST_F(ExecTest, ExplicitDummyDistributionPaysBothWays) {
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 1000)});
  env_.distribute(a, {DistFormat::cyclic(3)}, ProcessorRef(ps_.find("Q")));
  state.create(env_, a);
  ProcedureSig sub{
      "SUB",
      {DummySpec{"X", ElemType::kReal,
                 DummyMapping::explicit_dist({DistFormat::block()},
                                             ProcessorRef(ps_.find("Q"))),
                 false}}};
  CallFrame frame = env_.call(
      sub, {ActualArg::of_section(a.id(), {Triplet(2, 996, 2)})});
  std::vector<StepStats> in = enter_call(state, env_, frame);
  EXPECT_GT(in[0].messages, 0);
  EXPECT_GT(in[0].bytes, 0);
  std::vector<StepStats> out = exit_call(state, env_, frame);
  EXPECT_GT(out[0].messages, 0);
}

TEST_F(ExecTest, JacobiMatchesSerialAndScalesComm) {
  ProgramState state(machine_);
  const Extent n = 24;
  DistArray& a = env_.real("A", IndexDomain{Dim(1, n), Dim(1, n)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, n), Dim(1, n)});
  ProcessorRef grid = env_.default_target(2);
  env_.distribute(a, {DistFormat::block(), DistFormat::block()}, grid);
  env_.distribute(b, {DistFormat::block(), DistFormat::block()}, grid);
  state.create(env_, a);
  state.create(env_, b);
  auto init = [n](const IndexTuple& i) {
    return (i[0] == 1 || i[0] == n || i[1] == 1 || i[1] == n) ? 100.0 : 0.0;
  };
  state.fill(a.id(), init);
  state.fill(b.id(), init);

  SweepStats s = jacobi(state, env_, a, b, n, 4);
  EXPECT_EQ(s.elements, 4 * (n - 2) * (n - 2));
  // BLOCK x BLOCK: only halo elements are remote.
  EXPECT_LT(s.remote_read_fraction, 0.25);
  EXPECT_GT(s.messages, 0);

  // Serial reference.
  ProgramState ref(machine_);
  ref.create(env_, a);
  ref.create(env_, b);
  ref.fill(a.id(), init);
  ref.fill(b.id(), init);
  const Triplet inner(2, n - 1);
  const DistArray* src = &a;
  const DistArray* dst = &b;
  for (int it = 0; it < 4; ++it) {
    SecExpr rhs = (SecExpr::section(*src, {Triplet(1, n - 2), inner}) +
                   SecExpr::section(*src, {Triplet(3, n), inner}) +
                   SecExpr::section(*src, {inner, Triplet(1, n - 2)}) +
                   SecExpr::section(*src, {inner, Triplet(3, n)})) *
                  0.25;
    assign_serial(ref, *dst, {inner, inner}, rhs);
    std::swap(src, dst);
  }
  for (Index1 i = 1; i <= n; i += 3) {
    for (Index1 j = 1; j <= n; j += 3) {
      EXPECT_NEAR(state.value(a.id(), idx({i, j})),
                  ref.value(a.id(), idx({i, j})), 1e-12);
    }
  }
}

TEST_F(ExecTest, ShapeMismatchRejected) {
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 10)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 10)});
  state.create(env_, a);
  state.create(env_, b);
  EXPECT_THROW(assign(state, env_, b, {Triplet(1, 5)},
                      SecExpr::section(a, {Triplet(1, 6)})),
               ConformanceError);
}

TEST_F(ExecTest, StaggeredUpdateNumerics) {
  // The §8.1.1 stencil with tiny N, verified elementwise.
  ProgramState state(machine_);
  const Extent n = 6;
  DistArray& u = env_.real("U", IndexDomain{Dim(0, n), Dim(1, n)});
  DistArray& v = env_.real("V", IndexDomain{Dim(1, n), Dim(0, n)});
  DistArray& p = env_.real("P", IndexDomain{Dim(1, n), Dim(1, n)});
  ProcessorRef grid = env_.default_target(2);
  for (DistArray* arr : {&u, &v, &p}) {
    env_.distribute(*arr, {DistFormat::vienna_block(),
                           DistFormat::vienna_block()}, grid);
  }
  state.create(env_, u);
  state.create(env_, v);
  state.create(env_, p);
  state.fill(u.id(), [](const IndexTuple& i) {
    return static_cast<double>(10 * i[0] + i[1]);
  });
  state.fill(v.id(), [](const IndexTuple& i) {
    return static_cast<double>(100 * i[0] + i[1]);
  });
  staggered_update(state, env_, u, v, p, n);
  for (Index1 i = 1; i <= n; ++i) {
    for (Index1 j = 1; j <= n; ++j) {
      const double expect = (10.0 * (i - 1) + j) + (10.0 * i + j) +
                            (100.0 * i + (j - 1)) + (100.0 * i + j);
      EXPECT_DOUBLE_EQ(state.value(p.id(), idx({i, j})), expect)
          << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace hpfnt
