// Regression tests for the run-based exec path's canonical-replica and
// conformance rules, plus the memoized communication plans
// (exec/comm_plan.hpp): replayed steps must be field-identical to cold
// pricing across every distribution kind, and iterative sweeps must price
// the 2nd..Nth iteration from the plan cache with zero ownership queries.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/layout_view.hpp"
#include "exec/assign.hpp"
#include "exec/comm_plan.hpp"
#include "exec/redistribute_exec.hpp"
#include "exec/stencil.hpp"
#include "fault/fault_model.hpp"
#include "service/plan_service.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "replicate_all.hpp"

namespace hpfnt {
namespace {

IndexTuple idx(std::initializer_list<Index1> values) {
  IndexTuple t;
  for (Index1 v : values) t.push_back(v);
  return t;
}

void expect_step_eq(const StepStats& a, const StepStats& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.element_transfers, b.element_transfers);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.time_us, b.time_us);  // exact: same op multiset, same fold
  EXPECT_EQ(a.exposed_comm_us, b.exposed_comm_us);
  EXPECT_EQ(a.hidden_comm_us, b.hidden_comm_us);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retry_us, b.retry_us);
}

/// All flows of every cached plan, in sealed order per plan.
std::vector<PairFlow> cached_flows(PlanCache& plans) {
  std::vector<PairFlow> out;
  plans.for_each([&](const std::string&, const CommPlan& plan) {
    out.insert(out.end(), plan.flows.begin(), plan.flows.end());
  });
  return out;
}

class CommPlanTest : public ::testing::Test {
 protected:
  CommPlanTest() : machine_(8), ps_(8), env_(ps_) {
    ps_.declare("Q", IndexDomain::of_extents({8}));
  }

  /// A distribution whose owner sets are NOT minimum-first: every index is
  /// owned by {AP 2, AP 0}, in that order (a user-defined replicating
  /// format, §2.2's set-valued distributions).
  Distribution owners_front_not_min(const IndexDomain& domain) {
    DistFormat f = DistFormat::user_defined(
        "rep31", [](Index1, Extent, Extent) {
          DimOwnerSet owners;
          owners.push_back(3);  // position 3 -> AP 2
          owners.push_back(1);  // position 1 -> AP 0
          return owners;
        });
    return Distribution::formats(domain, {f}, ProcessorRef(ps_.find("Q")));
  }

  /// BLOCK onto the single target position Q(p:p), i.e. everything on one
  /// abstract processor.
  Distribution all_on(const IndexDomain& domain, Index1 p) {
    return Distribution::formats(
        domain, {DistFormat::block()},
        ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(p, p))}));
  }

  Machine machine_;
  ProcessorSpace ps_;
  DataEnv env_;
};

// --- canonical replica: one convention across assign / copy / remap --------

TEST_F(CommPlanTest, CopySectionSendsFromMinimumOwner) {
  const IndexDomain dom{Dim(1, 16)};
  ProgramState state(machine_);
  DistArray& a = env_.real("A", dom);
  DistArray& b = env_.real("B", dom);
  state.create_with(a, owners_front_not_min(dom));
  state.create_with(b, all_on(dom, 2));  // AP 1: not an owner of A
  ASSERT_EQ(state.layout(a.id()).owners(idx({1})), (OwnerSet{2, 0}));

  state.copy_section(b, dom.dims(), a, dom.dims(), "copy-in");
  const std::vector<PairFlow> flows = cached_flows(state.plans());
  ASSERT_FALSE(flows.empty());
  Extent total = 0;
  for (const PairFlow& t : flows) {
    // The sending replica is the canonical minimum owner (AP 0), the
    // convention of Distribution::first_owner and the assignment executor —
    // not owners.front() (AP 2).
    EXPECT_EQ(t.src, 0);
    EXPECT_EQ(t.dst, 1);
    total += t.elements;
  }
  EXPECT_EQ(total, 16);
}

TEST_F(CommPlanTest, RemapSendsFromMinimumOwner) {
  const IndexDomain dom{Dim(1, 16)};
  ProgramState state(machine_);
  DistArray& a = env_.real("A", dom);
  const Distribution from = owners_front_not_min(dom);
  const Distribution to = all_on(dom, 2);
  state.create_with(a, from);
  RemapEvent event;
  event.dummy = a.id();
  event.from = from;
  event.to = to;
  state.apply_remap(event, a);
  const std::vector<PairFlow> flows = cached_flows(state.plans());
  ASSERT_FALSE(flows.empty());
  for (const PairFlow& t : flows) {
    EXPECT_EQ(t.src, 0);
    EXPECT_EQ(t.dst, 1);
  }
}

TEST_F(CommPlanTest, AssignAndCopySectionPriceIdenticalSchedules) {
  // With a flop-free RHS and an unreplicated destination, C = A and a
  // copy_section of A onto C describe the same movement; after unifying
  // the canonical replica and counting copy-side local reads, they price
  // identically.
  const IndexDomain dom{Dim(1, 16)};
  DataEnv env(ps_);
  DistArray& a = env.real("A", dom);
  DistArray& c = env.real("C", dom);
  const Distribution src = owners_front_not_min(dom);
  const Distribution dst = all_on(dom, 2);

  ProgramState assigned(machine_);
  assigned.create_with(a, src);
  assigned.create_with(c, dst);
  const AssignResult r =
      assign_on_layout(assigned, c, dom.dims(), SecExpr::whole(a), "move");

  ProgramState copied(machine_);
  copied.create_with(a, src);
  copied.create_with(c, dst);
  const Extent local_before = copied.comm().local_reads();
  const StepStats step =
      copied.copy_section(c, dom.dims(), a, dom.dims(), "move");
  expect_step_eq(step, r.step);
  EXPECT_EQ(copied.comm().local_reads() - local_before, r.local_reads);
  EXPECT_EQ(cached_flows(assigned.plans()), cached_flows(copied.plans()));
}

// --- conformance: squeeze-then-compare in copy_section ----------------------

TEST_F(CommPlanTest, SqueezedCopySectionThroughCall) {
  // Pass A(:,3) — a rank-2 section with a unit dimension, the model of the
  // scalar-subscripted actual — to a rank-1 dummy. copy_section applies the
  // same squeeze-then-compare conformance rule as assign, so the copy-in
  // and copy-out conform.
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 8), Dim(1, 8)});
  env_.distribute(a, {DistFormat::block(), DistFormat::collapsed()},
                  ProcessorRef(ps_.find("Q")));
  state.create(env_, a);
  state.fill(a.id(), [](const IndexTuple& i) {
    return static_cast<double>(10 * i[0] + i[1]);
  });

  CallFrame frame;
  frame.procedure = "SUB";
  frame.callee = std::make_unique<DataEnv>(ps_);
  DistArray& x = frame.callee->real("X", IndexDomain{Dim(1, 8)});
  BoundArg arg;
  arg.dummy = x.id();
  arg.actual = a.id();
  arg.section = {Triplet(1, 8), Triplet(3, 3)};
  arg.entry = frame.callee->implicit_distribution(x.domain());
  frame.args.push_back(arg);

  std::vector<StepStats> in = enter_call(state, env_, frame);
  ASSERT_EQ(in.size(), 1u);
  for (Index1 i = 1; i <= 8; ++i) {
    EXPECT_DOUBLE_EQ(state.value(x.id(), idx({i})),
                     static_cast<double>(10 * i + 3));
  }

  assign(state, *frame.callee, x, SecExpr::whole(x) * 2.0);
  std::vector<StepStats> out = exit_call(state, env_, frame);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(state.value(a.id(), idx({5, 3})), 106.0);  // doubled
  EXPECT_DOUBLE_EQ(state.value(a.id(), idx({5, 4})), 54.0);   // untouched
}

TEST_F(CommPlanTest, CopySectionStillRejectsRealShapeMismatch) {
  ProgramState state(machine_);
  DistArray& a = env_.real("A", IndexDomain{Dim(1, 2), Dim(1, 4)});
  DistArray& b = env_.real("B", IndexDomain{Dim(1, 8)});
  state.create(env_, a);
  state.create(env_, b);
  // 8 elements on both sides, but squeezed shapes (2,4) vs (8) differ.
  EXPECT_THROW(state.copy_section(b, b.domain().dims(), a, a.domain().dims(),
                                  "bad"),
               ConformanceError);
}

// --- copy_section counts local segments -------------------------------------

TEST_F(CommPlanTest, CopySectionCountsLocalReads) {
  const IndexDomain dom{Dim(1, 24)};
  ProgramState state(machine_);
  DistArray& a = env_.real("A", dom);
  DistArray& b = env_.real("B", dom);
  const Distribution layout = Distribution::formats(
      dom, {DistFormat::cyclic(3)}, ProcessorRef(ps_.find("Q")));
  state.create_with(a, layout);
  state.create_with(b, layout);
  const Extent before = state.comm().local_reads();
  const StepStats step = state.copy_section(b, dom.dims(), a, dom.dims(),
                                            "collocated copy");
  EXPECT_EQ(step.messages, 0);
  // Every destination owner already holds the value: 24 local reads, the
  // same statistics an assignment between collocated arrays reports.
  EXPECT_EQ(state.comm().local_reads() - before, 24);
}

// --- sweep statistics derive the denominator from the counters --------------

TEST_F(CommPlanTest, SweepStatsFractionForTwoOperandExpression) {
  const IndexDomain dom{Dim(1, 20)};
  ProgramState state(machine_);
  DistArray& a = env_.real("A", dom);
  DistArray& c = env_.real("C", dom);
  state.create_with(a, all_on(dom, 2));  // A entirely on AP 1
  state.create_with(c, all_on(dom, 1));  // C entirely on AP 0
  // C = A + A: two operand reads per element, all remote.
  const AssignResult r = assign_on_layout(
      state, c, dom.dims(), SecExpr::whole(a) + SecExpr::whole(a));
  EXPECT_EQ(r.step.element_transfers, 40);
  EXPECT_EQ(r.local_reads, 0);
  SweepStats stats;
  stats.accumulate(r);
  // The denominator is local + remote reads (40), not 4 * elements (80).
  EXPECT_DOUBLE_EQ(stats.remote_read_fraction, 1.0);

  // Mixed: a second, collocated assignment halves the fraction.
  DistArray& d = env_.real("D", dom);
  state.create_with(d, all_on(dom, 1));
  stats.accumulate(assign_on_layout(state, d, dom.dims(),
                                    SecExpr::whole(d) + SecExpr::whole(d)));
  EXPECT_DOUBLE_EQ(stats.remote_read_fraction, 0.5);
}

// --- plan replay: field-identical StepStats across all kinds ----------------

class PlanReplayTest : public CommPlanTest {
 protected:
  /// Runs the same assignment three times on a plan-caching state and a
  /// cold-pricing state; every step must be field-identical, iterations
  /// 2..3 must replay (zero ownership queries), and cumulative counters
  /// must agree.
  void expect_replay_matches_cold(const Distribution& lhs_dist,
                                  const std::vector<Triplet>& lhs_section,
                                  const Distribution& rhs_dist,
                                  const std::vector<Triplet>& rhs_section) {
    DataEnv env(ps_);
    DistArray& l = env.real("L", lhs_dist.domain());
    DistArray& r = env.real("R", rhs_dist.domain());

    ProgramState warm(machine_);
    ProgramState cold(machine_);
    cold.plans().set_enabled(false);
    for (ProgramState* state : {&warm, &cold}) {
      state->create_with(l, lhs_dist);
      state->create_with(r, rhs_dist);
      state->fill(r.id(), [](const IndexTuple& i) {
        return std::sin(static_cast<double>(i.empty() ? 1 : i[0]));
      });
    }

    for (int it = 0; it < 3; ++it) {
      const SecExpr rhs = SecExpr::section(r, rhs_section) * 2.0;
      const AssignResult rw =
          assign_on_layout(warm, l, lhs_section, rhs, "step");
      const AssignResult rc =
          assign_on_layout(cold, l, lhs_section, rhs, "step");
      expect_step_eq(rw.step, rc.step);
      EXPECT_EQ(rw.local_reads, rc.local_reads);
      EXPECT_EQ(rw.elements, rc.elements);
      EXPECT_DOUBLE_EQ(rw.remote_read_fraction, rc.remote_read_fraction);
      if (it > 0) {
        EXPECT_EQ(rw.ownership_queries, 0)
            << "iteration " << it << " did not replay a plan";
      }
    }
    EXPECT_GE(warm.plans().hits(), 2);
    EXPECT_EQ(cold.plans().hits(), 0);
    EXPECT_EQ(warm.comm().total_messages(), cold.comm().total_messages());
    EXPECT_EQ(warm.comm().total_bytes(), cold.comm().total_bytes());
    EXPECT_EQ(warm.comm().total_transfers(), cold.comm().total_transfers());
    EXPECT_EQ(warm.comm().total_time_us(), cold.comm().total_time_us());
    EXPECT_EQ(warm.comm().local_reads(), cold.comm().local_reads());
    EXPECT_DOUBLE_EQ(warm.checksum(l.id()), cold.checksum(l.id()));
  }
};

TEST_F(PlanReplayTest, FormatsKind) {
  const IndexDomain dom{Dim(1, 40)};
  const Distribution lhs = Distribution::formats(
      dom, {DistFormat::cyclic(3)}, ProcessorRef(ps_.find("Q")));
  const Distribution rhs = Distribution::formats(
      dom, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  expect_replay_matches_cold(lhs, dom.dims(), rhs, dom.dims());
}

TEST_F(PlanReplayTest, FormatsKindNegativeStrideSections) {
  const IndexDomain dom{Dim(1, 40)};
  const Distribution lhs = Distribution::formats(
      dom, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  const Distribution rhs = Distribution::formats(
      dom, {DistFormat::cyclic(2)}, ProcessorRef(ps_.find("Q")));
  // L(39:1:-2) = 2 * R(2:40:2) — both sections reversed/strided.
  expect_replay_matches_cold(lhs, {Triplet(39, 1, -2)}, rhs,
                             {Triplet(40, 2, -2)});
}

TEST_F(PlanReplayTest, ConstructedKind) {
  const IndexDomain dom{Dim(1, 40)};
  const Distribution base = Distribution::formats(
      dom, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  // L aligned to the base shifted by 5, clamped at the top (§5.1).
  std::vector<AlignmentFunction::BaseDim> dims(1);
  dims[0].kind = AlignmentFunction::BaseDim::Kind::kExpr;
  dims[0].alignee_dim = 0;
  dims[0].expr = AlignExpr::dummy(0) + 5;
  const Distribution lhs = Distribution::constructed(
      AlignmentFunction(dom, dom, std::move(dims)), base);
  expect_replay_matches_cold(lhs, dom.dims(), base, dom.dims());
}

TEST_F(PlanReplayTest, SectionViewKind) {
  const IndexDomain parent_dom{Dim(1, 100)};
  const IndexDomain dom{Dim(1, 40)};
  const Distribution parent = Distribution::formats(
      parent_dom, {DistFormat::cyclic(4)}, ProcessorRef(ps_.find("Q")));
  const Distribution lhs =
      Distribution::section_view(parent, {Triplet(2, 80, 2)});
  ASSERT_EQ(lhs.domain(), dom);
  const Distribution rhs = Distribution::formats(
      dom, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  expect_replay_matches_cold(lhs, dom.dims(), rhs, dom.dims());
}

TEST_F(PlanReplayTest, ReplicatedLhsReplaysBroadcasts) {
  const IndexDomain dom{Dim(1, 16)};
  const Distribution lhs = replicated_over(dom, ProcessorRef(ps_.find("Q")));
  const Distribution rhs = Distribution::formats(
      dom, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  expect_replay_matches_cold(lhs, dom.dims(), rhs, dom.dims());
}

TEST_F(PlanReplayTest, ReissuingRecordedOpsReproducesSealedStats) {
  // The sealed StepStats must be exactly what re-pricing the recorded
  // schedule yields: re-issue every recorded operation through a fresh
  // engine and compare all fields.
  const IndexDomain dom{Dim(1, 40)};
  ProgramState state(machine_);
  DistArray& a = env_.real("A", dom);
  DistArray& b = env_.real("B", dom);
  state.create_with(a, Distribution::formats(dom, {DistFormat::block()},
                                             ProcessorRef(ps_.find("Q"))));
  state.create_with(b, Distribution::formats(dom, {DistFormat::cyclic(1)},
                                             ProcessorRef(ps_.find("Q"))));
  assign_on_layout(state, b, dom.dims(),
                   SecExpr::whole(a) + SecExpr::whole(b), "mix");

  std::size_t plans_seen = 0;
  state.plans().for_each([&](const std::string&, const CommPlan& plan) {
    ++plans_seen;
    ASSERT_TRUE(plan.sealed);
    CommEngine fresh(machine_);
    fresh.begin_step(plan.label);
    for (const PairFlow& f : plan.flows) {
      // Every element of this step is one REAL: a flow re-issues as one
      // block of equal payloads.
      ASSERT_GT(f.elements, 0);
      ASSERT_EQ(f.bytes % f.elements, 0);
      if (f.posted) fresh.begin_posted();
      fresh.transfer_block(f.src, f.dst, f.bytes / f.elements, f.elements);
      if (f.posted) fresh.end_posted();
    }
    for (const PlanCompute& c : plan.computes) fresh.compute(c.p, c.flops);
    fresh.count_local_reads(plan.local_reads);
    const StepStats repriced = fresh.end_step();
    expect_step_eq(repriced, plan.stats);
    EXPECT_EQ(fresh.local_reads(), plan.local_reads);
  });
  EXPECT_EQ(plans_seen, 1u);
}

TEST_F(PlanReplayTest, StructurallyEqualFormatsShareOnePlan) {
  // Distinct payloads with equal (domain, formats, target) key
  // structurally: the second assignment replays the first one's plan even
  // though it involves different arrays.
  const IndexDomain dom{Dim(1, 32)};
  auto block = [&] {
    return Distribution::formats(dom, {DistFormat::block()},
                                 ProcessorRef(ps_.find("Q")));
  };
  auto cyc = [&] {
    return Distribution::formats(dom, {DistFormat::cyclic(2)},
                                 ProcessorRef(ps_.find("Q")));
  };
  ProgramState state(machine_);
  DistArray& a1 = env_.real("A1", dom);
  DistArray& b1 = env_.real("B1", dom);
  DistArray& a2 = env_.real("A2", dom);
  DistArray& b2 = env_.real("B2", dom);
  state.create_with(a1, block());
  state.create_with(b1, cyc());
  state.create_with(a2, block());
  state.create_with(b2, cyc());
  ASSERT_NE(state.layout(a1.id()).payload_identity(),
            state.layout(a2.id()).payload_identity());

  assign_on_layout(state, b1, dom.dims(), SecExpr::whole(a1));
  const AssignResult second =
      assign_on_layout(state, b2, dom.dims(), SecExpr::whole(a2));
  EXPECT_EQ(state.plans().hits(), 1);
  EXPECT_EQ(second.ownership_queries, 0);
}

TEST_F(PlanReplayTest, ContentSignatureCoverage) {
  // Every payload kind now carries a content plan signature: formats
  // (including table-backed INDIRECT/USER ones, which digest their bound
  // owner tables), constructed payloads over any base, and section views.
  const IndexDomain dom{Dim(1, 16)};
  const Distribution block = Distribution::formats(
      dom, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  EXPECT_FALSE(block.plan_signature().empty());
  const Distribution over_block =
      Distribution::constructed(AlignmentFunction::identity(dom, dom), block);
  EXPECT_FALSE(over_block.plan_signature().empty());
  const Distribution nested = Distribution::constructed(
      AlignmentFunction::identity(dom, dom), over_block);
  EXPECT_FALSE(nested.plan_signature().empty());
  const Distribution indirect = Distribution::formats(
      dom, {DistFormat::indirect(std::vector<Extent>(16, 1))},
      ProcessorRef(ps_.find("Q")));
  EXPECT_FALSE(indirect.plan_signature().empty());
  EXPECT_FALSE(Distribution::constructed(AlignmentFunction::identity(dom, dom),
                                         indirect)
                   .plan_signature()
                   .empty());
  EXPECT_FALSE(
      Distribution::section_view(block, dom.dims()).plan_signature().empty());
}

namespace {

/// The PlanKey bytes of a single distribution.
std::string key_of(const Distribution& dist) {
  PlanKey k;
  k.add_distribution(dist);
  return k.str();
}

}  // namespace

TEST_F(PlanReplayTest, AddressDistinctSectionViewsKeyIdentically) {
  // Two section-view payloads minted separately — exactly what every
  // procedure call does for an inherited section dummy — must produce the
  // same plan-key bytes when parent content and triplets agree, and
  // different bytes when either differs.
  const IndexDomain dom{Dim(1, 100)};
  const Distribution parent1 = Distribution::formats(
      dom, {DistFormat::cyclic(4)}, ProcessorRef(ps_.find("Q")));
  const Distribution parent2 = Distribution::formats(
      dom, {DistFormat::cyclic(4)}, ProcessorRef(ps_.find("Q")));
  ASSERT_NE(parent1.payload_identity(), parent2.payload_identity());

  const Distribution v1 =
      Distribution::section_view(parent1, {Triplet(2, 80, 2)});
  const Distribution v2 =
      Distribution::section_view(parent2, {Triplet(2, 80, 2)});
  ASSERT_NE(v1.payload_identity(), v2.payload_identity());
  EXPECT_EQ(key_of(v1), key_of(v2));
  EXPECT_TRUE(v1.structurally_equal(v2));

  // Different triplets or a different parent layout change the key.
  EXPECT_NE(key_of(Distribution::section_view(parent1, {Triplet(2, 80, 4)})),
            key_of(v1));
  const Distribution other_parent = Distribution::formats(
      dom, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  EXPECT_NE(key_of(Distribution::section_view(other_parent,
                                              {Triplet(2, 80, 2)})),
            key_of(v1));
  // Nested views recurse through both layers.
  EXPECT_EQ(key_of(Distribution::section_view(v1, {Triplet(1, 20)})),
            key_of(Distribution::section_view(v2, {Triplet(1, 20)})));
}

TEST_F(PlanReplayTest, ExplicitContentKeysShareAndDistinguish) {
  // An INDIRECT owner map keys by the digest of its content: two equal
  // maps minted separately key and compare equal; a different map differs.
  const IndexDomain dom{Dim(1, 24)};
  auto striped = [&](Extent first) {
    std::vector<Extent> map;
    for (Extent i = 0; i < 24; ++i) map.push_back((first + i) % 4 + 1);
    return Distribution::formats(dom, {DistFormat::indirect(std::move(map))},
                                 ProcessorRef(ps_.find("Q")));
  };
  const Distribution e1 = striped(0);
  const Distribution e2 = striped(0);
  ASSERT_NE(e1.payload_identity(), e2.payload_identity());
  EXPECT_EQ(key_of(e1), key_of(e2));
  EXPECT_TRUE(e1.structurally_equal(e2));
  EXPECT_NE(key_of(striped(1)), key_of(e1));
  EXPECT_FALSE(striped(1).structurally_equal(e1));
}

TEST_F(PlanReplayTest, AddressDistinctSectionViewDummiesShareOnePlan) {
  // The copy_section schedule of call 2's fresh section-view dummy replays
  // call 1's plan: same parent layout, same triplets, different payload
  // addresses (the acceptance criterion's unit form).
  const Extent n = 64;
  const IndexDomain dom{Dim(1, n)};
  const IndexDomain vdom{Dim(1, 30)};
  const Distribution parent = Distribution::formats(
      dom, {DistFormat::cyclic(3)}, ProcessorRef(ps_.find("Q")));
  const std::vector<Triplet> window{Triplet(2, 60, 2)};
  ProgramState state(machine_);
  DistArray& d1 = env_.real("SV1", vdom);
  DistArray& d2 = env_.real("SV2", vdom);
  DistArray& c = env_.real("SVC", vdom);
  state.create_with(d1, Distribution::section_view(parent, window));
  state.create_with(d2, Distribution::section_view(parent, window));
  ASSERT_NE(state.layout(d1.id()).payload_identity(),
            state.layout(d2.id()).payload_identity());
  state.create_with(c, all_on(vdom, 1));

  const StepStats first =
      state.copy_section(c, vdom.dims(), d1, vdom.dims(), "copy-out");
  EXPECT_EQ(state.plans().hits(), 0);
  EXPECT_EQ(state.plans().misses(), 1);
  const StepStats second =
      state.copy_section(c, vdom.dims(), d2, vdom.dims(), "copy-out");
  EXPECT_EQ(state.plans().hits(), 1);
  EXPECT_EQ(state.plans().misses(), 1);
  expect_step_eq(first, second);
}

TEST_F(PlanReplayTest, RepeatedInheritedSectionCallsReplayArgumentPlans) {
  // The E4 shape: CALL SUB(A(2:60:2)) with an inherit dummy, repeated. The
  // dummy's entry layout is a *fresh* section-view payload every call;
  // before content-hashed keys every call priced its copy-in/copy-out
  // cold. Now: one miss per copy direction, 2(N-1) hits, and cumulative
  // engine counters byte-identical to a cache-disabled run.
  const Extent n = 64;
  const int calls = 5;
  const IndexDomain dom{Dim(1, n)};
  DataEnv env(ps_);
  DistArray& a = env.real("A", dom);
  env.distribute(a, {DistFormat::cyclic(3)}, ProcessorRef(ps_.find("Q")));

  ProgramState warm(machine_);
  ProgramState cold(machine_);
  cold.plans().set_enabled(false);
  for (ProgramState* state : {&warm, &cold}) {
    state->create(env, a);
    state->fill(a.id(), [](const IndexTuple& i) {
      return static_cast<double>(i[0] * 7);
    });
  }

  ProcedureSig sub{
      "SUB",
      {DummySpec{"X", ElemType::kReal, DummyMapping::inherit(), false}}};
  for (int it = 0; it < calls; ++it) {
    for (ProgramState* state : {&warm, &cold}) {
      CallFrame frame =
          env.call(sub, {ActualArg::of_section(a.id(), {Triplet(2, 60, 2)})});
      std::vector<StepStats> in = enter_call(*state, env, frame);
      std::vector<StepStats> out = exit_call(*state, env, frame);
      ASSERT_EQ(in.size(), 1u);
      ASSERT_EQ(out.size(), 1u);
    }
  }
  EXPECT_EQ(warm.plans().misses(), 2);  // copy-in and copy-out schedules
  EXPECT_EQ(warm.plans().hits(), 2 * (calls - 1));
  EXPECT_EQ(cold.plans().hits(), 0);
  EXPECT_EQ(warm.comm().total_messages(), cold.comm().total_messages());
  EXPECT_EQ(warm.comm().total_bytes(), cold.comm().total_bytes());
  EXPECT_EQ(warm.comm().total_transfers(), cold.comm().total_transfers());
  EXPECT_EQ(warm.comm().total_time_us(), cold.comm().total_time_us());
  EXPECT_EQ(warm.comm().local_reads(), cold.comm().local_reads());
  EXPECT_DOUBLE_EQ(warm.checksum(a.id()), cold.checksum(a.id()));
}

TEST_F(PlanReplayTest, StructurallyEqualConstructedShareOnePlan) {
  // Two distinct kConstructed payloads with structurally equal (non-trivial)
  // alignment functions over structurally equal bases key identically: the
  // second assignment replays the first one's plan, exactly like two equal
  // BLOCK layouts do.
  const IndexDomain dom{Dim(1, 32)};
  auto base = [&] {
    return Distribution::formats(dom, {DistFormat::block()},
                                 ProcessorRef(ps_.find("Q")));
  };
  auto shifted = [&](const Distribution& b) {
    std::vector<AlignmentFunction::BaseDim> dims(1);
    dims[0].kind = AlignmentFunction::BaseDim::Kind::kExpr;
    dims[0].alignee_dim = 0;
    dims[0].expr = AlignExpr::dummy(0) + 5;  // clamped at the top (§5.1)
    return Distribution::constructed(AlignmentFunction(dom, dom, dims), b);
  };
  ProgramState state(machine_);
  DistArray& a1 = env_.real("CA1", dom);
  DistArray& b1 = env_.real("CB1", dom);
  DistArray& a2 = env_.real("CA2", dom);
  DistArray& b2 = env_.real("CB2", dom);
  state.create_with(a1, shifted(base()));
  state.create_with(b1, base());
  state.create_with(a2, shifted(base()));
  state.create_with(b2, base());
  ASSERT_NE(state.layout(a1.id()).payload_identity(),
            state.layout(a2.id()).payload_identity());
  ASSERT_TRUE(state.layout(a1.id()).structurally_equal(state.layout(a2.id())));

  assign_on_layout(state, a1, dom.dims(), SecExpr::whole(b1));
  const AssignResult second =
      assign_on_layout(state, a2, dom.dims(), SecExpr::whole(b2));
  EXPECT_EQ(state.plans().hits(), 1);
  EXPECT_EQ(second.ownership_queries, 0);
}

TEST_F(PlanReplayTest, DistinctAlignmentsDoNotShareAPlan) {
  // Same base, different shift: the α serialization differs, so the keys
  // must differ — a false hit would replay the wrong schedule.
  const IndexDomain dom{Dim(1, 32)};
  const Distribution base = Distribution::formats(
      dom, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  auto shifted = [&](Index1 s) {
    std::vector<AlignmentFunction::BaseDim> dims(1);
    dims[0].kind = AlignmentFunction::BaseDim::Kind::kExpr;
    dims[0].alignee_dim = 0;
    dims[0].expr = AlignExpr::dummy(0) + s;
    return Distribution::constructed(AlignmentFunction(dom, dom, dims), base);
  };
  ProgramState state(machine_);
  DistArray& a1 = env_.real("DA1", dom);
  DistArray& a2 = env_.real("DA2", dom);
  DistArray& c = env_.real("DC", dom);
  state.create_with(a1, shifted(0));
  state.create_with(a2, shifted(16));
  state.create_with(c, all_on(dom, 1));
  state.copy_section(c, dom.dims(), a1, dom.dims(), "from unshifted");
  state.copy_section(c, dom.dims(), a2, dom.dims(), "from shifted");
  EXPECT_EQ(state.plans().hits(), 0);
  EXPECT_EQ(state.plans().misses(), 2);
}

TEST_F(PlanReplayTest, DistinctIndirectPayloadsDoNotCollide) {
  // INDIRECT owner tables key by a digest of their bound content. Two
  // same-sized but different maps must not share a plan (a false hit would
  // price the second copy as message-free).
  const IndexDomain dom{Dim(1, 16)};
  std::vector<Extent> to_one(16, 1);  // AP 0
  std::vector<Extent> to_two(16, 2);  // AP 1
  const Distribution src1 = Distribution::formats(
      dom, {DistFormat::indirect(to_one)}, ProcessorRef(ps_.find("Q")));
  const Distribution src2 = Distribution::formats(
      dom, {DistFormat::indirect(to_two)}, ProcessorRef(ps_.find("Q")));
  ProgramState state(machine_);
  DistArray& a1 = env_.real("A1", dom);
  DistArray& a2 = env_.real("A2", dom);
  DistArray& c = env_.real("C", dom);
  state.create_with(a1, src1);
  state.create_with(a2, src2);
  state.create_with(c, all_on(dom, 1));  // C on AP 0

  const StepStats local = state.copy_section(c, dom.dims(), a1, dom.dims(),
                                             "from collocated");
  EXPECT_EQ(local.messages, 0);
  const StepStats remote = state.copy_section(c, dom.dims(), a2, dom.dims(),
                                              "from remote");
  EXPECT_EQ(state.plans().hits(), 0);
  EXPECT_GT(remote.messages, 0);
  EXPECT_EQ(remote.element_transfers, 16);
}

TEST_F(PlanReplayTest, RemapFlipFlopReplaysScheduleAndMemory) {
  const IndexDomain dom{Dim(1, 16)};
  ProcessorRef q4(ps_.find("Q"), {TargetSub::range(Triplet(1, 4))});
  DataEnv env(ps_);
  DistArray& a = env.real("A", dom);
  env.distribute(a, {DistFormat::block()}, q4);
  env.dynamic(a);

  ProgramState warm(machine_);
  ProgramState cold(machine_);
  cold.plans().set_enabled(false);
  for (ProgramState* state : {&warm, &cold}) {
    state->create(env, a);
    state->fill(a.id(), [](const IndexTuple& i) {
      return static_cast<double>(i[0] * i[0]);
    });
  }

  // BLOCK -> CYCLIC -> BLOCK -> CYCLIC -> BLOCK: rounds 3..4 replay the
  // plans of rounds 1..2 (fresh payloads, equal structural keys).
  for (int round = 0; round < 4; ++round) {
    std::vector<RemapEvent> events =
        round % 2 == 0 ? env.redistribute(a, {DistFormat::cyclic()}, q4)
                       : env.redistribute(a, {DistFormat::block()}, q4);
    ASSERT_EQ(events.size(), 1u);
    const StepStats sw = apply_remap(warm, env, events[0]);
    const StepStats sc = apply_remap(cold, env, events[0]);
    expect_step_eq(sw, sc);
  }
  EXPECT_EQ(warm.plans().hits(), 2);
  for (ApId p = 0; p < 8; ++p) {
    EXPECT_EQ(warm.memory().bytes_on(p), cold.memory().bytes_on(p)) << p;
  }
  for (Index1 i = 1; i <= 16; ++i) {
    EXPECT_DOUBLE_EQ(warm.value(a.id(), idx({i})),
                     static_cast<double>(i * i));
  }
}

TEST_F(PlanReplayTest, RemapReplayPreservesPeakMemory) {
  // Replayed memory rows must reproduce each processor's peak: batching
  // every allocate before every release would inflate the peak gauges
  // (read by the E6 replication benchmarks) relative to cold pricing,
  // even though the totals agree.
  const IndexDomain dom{Dim(1, 8)};
  const std::vector<Extent> map = {1, 1, 2, 2, 1, 1, 1, 1};
  const Distribution from = Distribution::formats(
      dom, {DistFormat::indirect(map)},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 2))}));
  const Distribution to = Distribution::formats(
      dom, {DistFormat::block()},
      ProcessorRef(ps_.find("Q"), {TargetSub::range(Triplet(1, 2))}));
  DataEnv env(ps_);
  DistArray& a = env.real("A", dom);
  DistArray& b = env.real("B", dom);

  ProgramState warm(machine_);
  ProgramState cold(machine_);
  cold.plans().set_enabled(false);
  for (ProgramState* state : {&warm, &cold}) {
    state->create_with(a, from);
    state->create_with(b, from);
    RemapEvent ev;
    ev.from = from;
    ev.to = to;
    ev.dummy = a.id();
    state->apply_remap(ev, a);  // warm: records the plan
    ev.dummy = b.id();
    state->apply_remap(ev, b);  // warm: replays it
  }
  EXPECT_EQ(warm.plans().hits(), 1);
  for (ApId p = 0; p < 2; ++p) {
    EXPECT_EQ(warm.memory().bytes_on(p), cold.memory().bytes_on(p)) << p;
    EXPECT_EQ(warm.memory().peak_on(p), cold.memory().peak_on(p)) << p;
  }
}

TEST_F(PlanReplayTest, RemapPeakGaugesMatchHandComputedGolden) {
  // Absolute gauges, not cold-vs-warm agreement: a replicated
  // user-defined layout R -> BLOCK -> R over Q(1:2), cold and replayed.
  // R puts elements 1-2 on AP 1 and elements 3-4 on both APs; BLOCK puts
  // 1-2 on AP 0 and 3-4 on AP 1. R -> BLOCK first gives AP 0 elements 1-2,
  // then drops its replica of 3-4: net 0, but its peak rises by two
  // elements in between.
  const IndexDomain dom{Dim(1, 4)};
  const ProcessorRef q2(ps_.find("Q"), {TargetSub::range(Triplet(1, 2))});
  const DistFormat rep = DistFormat::user_defined(
      "rep_hi", [](Index1 i, Extent, Extent) {
        DimOwnerSet owners;
        if (i > 2) owners.push_back(1);
        owners.push_back(2);
        return owners;
      });
  const Distribution r = Distribution::formats(dom, {rep}, q2);
  const Distribution block =
      Distribution::formats(dom, {DistFormat::block()}, q2);

  for (const bool plans : {false, true}) {
    SCOPED_TRACE(plans ? "replayed" : "cold");
    DataEnv env(ps_);
    DistArray& a = env.real("A", dom);
    DistArray& b = env.real("B", dom);
    const Extent e = a.bytes() / a.size();
    ProgramState state(machine_);
    state.plans().set_enabled(plans);
    auto remap = [&](DistArray& x, const Distribution& from,
                     const Distribution& to) {
      RemapEvent ev;
      ev.dummy = x.id();
      ev.from = from;
      ev.to = to;
      state.apply_remap(ev, x);
    };
    // {bytes_on(0), peak_on(0), bytes_on(1), peak_on(1)}, in elements.
    auto expect_gauges = [&](Extent b0, Extent p0, Extent b1, Extent p1) {
      EXPECT_EQ(state.memory().bytes_on(0), b0 * e);
      EXPECT_EQ(state.memory().peak_on(0), p0 * e);
      EXPECT_EQ(state.memory().bytes_on(1), b1 * e);
      EXPECT_EQ(state.memory().peak_on(1), p1 * e);
    };

    state.create_with(a, r);
    expect_gauges(2, 2, 4, 4);
    remap(a, r, block);  // AP 0: +2 (peak 4), -2; AP 1: -2
    expect_gauges(2, 4, 2, 4);
    remap(a, block, r);  // AP 0: -2, +2 (no rise); AP 1: +2
    expect_gauges(2, 4, 4, 4);

    // B repeats A's round trip from higher gauges, so the peak it sets is
    // new; with plans on, both of its remaps replay A's plans.
    state.create_with(b, r);
    expect_gauges(4, 4, 8, 8);
    remap(b, r, block);  // AP 0: +2 (peak 6), -2; AP 1: -2
    expect_gauges(4, 6, 6, 8);
    remap(b, block, r);
    expect_gauges(4, 6, 8, 8);
    EXPECT_EQ(state.plans().hits(), plans ? 2 : 0);
  }
}

// --- sealed plans hold per-pair traffic -------------------------------------

/// A 16-processor session over 2^14 elements — the remap_cold workload's
/// shape — with its five remap formats plus a replicated layout.
class PairPlanTest : public ::testing::Test {
 protected:
  static constexpr Extent kN = Extent{1} << 14;
  static constexpr Extent kP = 16;

  PairPlanTest() : machine_(kP), ps_(kP) {
    ps_.declare("Q", IndexDomain::of_extents({kP}));
  }

  Distribution layout(const DistFormat& f) const {
    return Distribution::formats(dom_, {f}, ProcessorRef(ps_.find("Q")));
  }

  /// A BLOCK start, then CYCLIC(1), CYCLIC(8), GENERAL_BLOCK, INDIRECT,
  /// BLOCK, replicated and back to BLOCK: every pair is one remap.
  std::vector<Distribution> chain() const {
    std::vector<Extent> sizes;
    for (Extent p = 0; p + 1 < kP; ++p) sizes.push_back(64 * (p % 5) + 100);
    Extent used = 0;
    for (Extent v : sizes) used += v;
    sizes.push_back(kN - used);
    std::vector<Extent> owner(static_cast<std::size_t>(kN));
    for (std::size_t i = 0; i < owner.size(); ++i) {
      owner[i] = static_cast<Extent>((i * 7919) % kP) + 1;
    }
    return {layout(DistFormat::block()),
            layout(DistFormat::cyclic(1)),
            layout(DistFormat::cyclic(8)),
            layout(DistFormat::general_block_sizes(sizes)),
            layout(DistFormat::indirect(owner)),
            layout(DistFormat::block()),
            replicated_over(dom_, ProcessorRef(ps_.find("Q"))),
            layout(DistFormat::block())};
  }

  IndexDomain dom_{Dim(1, kN)};
  Machine machine_;
  ProcessorSpace ps_;
};

void expect_same_machine_state(ProgramState& x, ProgramState& y) {
  const CommEngine& a = x.comm();
  const CommEngine& b = y.comm();
  EXPECT_EQ(a.total_messages(), b.total_messages());
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_EQ(a.total_transfers(), b.total_transfers());
  EXPECT_EQ(a.total_time_us(), b.total_time_us());
  EXPECT_EQ(a.total_exposed_comm_us(), b.total_exposed_comm_us());
  EXPECT_EQ(a.total_hidden_comm_us(), b.total_hidden_comm_us());
  EXPECT_EQ(a.total_retries(), b.total_retries());
  EXPECT_EQ(a.total_retry_us(), b.total_retry_us());
  EXPECT_EQ(a.local_reads(), b.local_reads());
  for (ApId p = 0; p < x.machine().processors(); ++p) {
    EXPECT_EQ(x.memory().bytes_on(p), y.memory().bytes_on(p))
        << "proc " << p;
    EXPECT_EQ(x.memory().peak_on(p), y.memory().peak_on(p))
        << "proc " << p;
  }
}

TEST_F(PairPlanTest, CyclicToBlockRemapSealsPerPairRows) {
  // 2^14 CYCLIC(1) elements move in 2^14 one-element segments, but the
  // plan keeps one row per (src, dst) pair and per processor.
  DataEnv env(ps_);
  DistArray& a = env.real("A", dom_);
  ProgramState state(machine_);
  RemapEvent ev;
  ev.dummy = a.id();
  ev.from = layout(DistFormat::cyclic(1));
  ev.to = layout(DistFormat::block());
  state.create_with(a, ev.from);
  const StepStats step = state.apply_remap(ev, a);

  ASSERT_EQ(state.plans().size(), 1u);
  state.plans().for_each([&](const std::string&, const CommPlan& plan) {
    ASSERT_TRUE(plan.sealed);
    EXPECT_LE(plan.flows.size(), static_cast<std::size_t>(kP * (kP - 1)));
    EXPECT_LE(plan.computes.size(), static_cast<std::size_t>(kP));
    EXPECT_LE(plan.mem_ops.size(), static_cast<std::size_t>(2 * kP));
    // One flow per message, and together they carry the whole step.
    EXPECT_EQ(static_cast<Extent>(plan.flows.size()), step.messages);
    Extent bytes = 0, elements = 0;
    for (const PairFlow& f : plan.flows) {
      EXPECT_NE(f.src, f.dst);
      bytes += f.bytes;
      elements += f.elements;
    }
    EXPECT_EQ(bytes, step.bytes);
    EXPECT_EQ(elements, step.element_transfers);
    // An element moves unless its CYCLIC(1) owner is its BLOCK owner too:
    // kN / kP of them stay put (a remap charges no local read for them).
    EXPECT_EQ(elements, kN - kN / kP);
    std::vector<ApId> all(static_cast<std::size_t>(kP));
    for (ApId p = 0; p < kP; ++p) all[static_cast<std::size_t>(p)] = p;
    EXPECT_EQ(plan.referenced_procs, all);
  });

  // The local-read convention: the remap counted none for the kN / kP
  // elements that stayed put, while an assignment counts one per element
  // its computing owner already holds — all of them for B = A on BLOCK.
  EXPECT_EQ(state.comm().local_reads(), 0);
  DistArray& b = env.real("B", dom_);
  state.create_with(b, ev.to);
  const AssignResult copy =
      assign_on_layout(state, b, dom_.dims(), SecExpr::whole(a), "B = A");
  EXPECT_EQ(copy.local_reads, kN);
  EXPECT_EQ(state.comm().local_reads(), kN);
}

TEST_F(PairPlanTest, ColdAndReplayedRemapsAgreeOnStatsTotalsAndPeaks) {
  // The remap chain runs twice on a plan-caching session and a cold one,
  // with B = A * 2 after every remap: the second pass replays every step
  // on the caching side. Every StepStats, every cumulative counter and
  // every processor's bytes and peak agree after every statement.
  const std::vector<Distribution> layouts = chain();
  DataEnv env(ps_);
  DistArray& a = env.real("A", dom_);
  DistArray& b = env.real("B", dom_);
  ProgramState warm(machine_);
  ProgramState cold(machine_);
  cold.plans().set_enabled(false);
  for (ProgramState* state : {&warm, &cold}) {
    state->create_with(a, layouts.front());
    state->create_with(b, layout(DistFormat::block()));
    state->fill(a.id(), [](const IndexTuple& i) {
      return static_cast<double>(i[0] % 97);
    });
  }
  Extent first_pass_hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) first_pass_hits = warm.plans().hits();
    for (std::size_t k = 0; k + 1 < layouts.size(); ++k) {
      SCOPED_TRACE(cat("pass ", pass, " remap ", k));
      RemapEvent ev;
      ev.dummy = a.id();
      ev.from = layouts[k];
      ev.to = layouts[k + 1];
      expect_step_eq(warm.apply_remap(ev, a), cold.apply_remap(ev, a));
      expect_same_machine_state(warm, cold);
      const AssignResult rw = assign_on_layout(
          warm, b, dom_.dims(), SecExpr::whole(a) * 2.0, "B = A * 2");
      const AssignResult rc = assign_on_layout(
          cold, b, dom_.dims(), SecExpr::whole(a) * 2.0, "B = A * 2");
      expect_step_eq(rw.step, rc.step);
      expect_same_machine_state(warm, cold);
    }
  }
  const Extent steps = 2 * static_cast<Extent>(layouts.size() - 1);
  EXPECT_EQ(warm.plans().hits() - first_pass_hits, steps)
      << "the second pass must replay every remap and every assign";
  EXPECT_DOUBLE_EQ(warm.checksum(b.id()), cold.checksum(b.id()));
}

TEST_F(PairPlanTest, FaultedReplayRollsTheColdStepsRetries) {
  // With transient faults on, a replay rolls the sealed flows; a cold
  // step rolls the pricer's traffic. From the same RNG state both must
  // draw the same faults and price the same retries.
  const std::vector<Distribution> layouts = chain();
  DataEnv env(ps_);
  DistArray& a = env.real("A", dom_);
  ProgramState warm(machine_);
  ProgramState cold(machine_);
  cold.plans().set_enabled(false);
  for (ProgramState* state : {&warm, &cold}) {
    state->create_with(a, layouts.front());
  }
  auto run_chain = [&](const std::string& pass) {
    for (std::size_t k = 0; k + 1 < layouts.size(); ++k) {
      RemapEvent ev;
      ev.dummy = a.id();
      ev.from = layouts[k];
      ev.to = layouts[k + 1];
      SCOPED_TRACE(cat(pass, " remap ", k));
      expect_step_eq(warm.apply_remap(ev, a), cold.apply_remap(ev, a));
      expect_same_machine_state(warm, cold);
    }
  };
  run_chain("fault-free");  // records every plan on the caching side
  const Extent hits_before = warm.plans().hits();
  const FaultConfig faults{/*seed=*/17, /*prob=*/0.2, /*max_retries=*/60,
                           /*backoff_base_us=*/25.0};
  warm.comm().set_fault_config(faults);
  cold.comm().set_fault_config(faults);
  run_chain("faulted");
  EXPECT_EQ(warm.plans().hits() - hits_before,
            static_cast<Extent>(layouts.size() - 1));
  EXPECT_GT(warm.comm().total_retries(), 0);
}

// --- the E2 acceptance bar: a 100-iteration 2-D BLOCK Jacobi ----------------

TEST_F(PlanReplayTest, JacobiHundredIterationsReplaysWithZeroQueries) {
  const Extent n = 24;
  DataEnv env(ps_);
  DistArray& a = env.real("A", IndexDomain{Dim(1, n), Dim(1, n)});
  DistArray& b = env.real("B", IndexDomain{Dim(1, n), Dim(1, n)});
  ProcessorRef grid = env.default_target(2);
  env.distribute(a, {DistFormat::block(), DistFormat::block()}, grid);
  env.distribute(b, {DistFormat::block(), DistFormat::block()}, grid);

  auto init = [n](const IndexTuple& i) {
    return (i[0] == 1 || i[0] == n || i[1] == 1 || i[1] == n) ? 100.0 : 0.0;
  };
  ProgramState warm(machine_);
  ProgramState cold(machine_);
  cold.plans().set_enabled(false);
  for (ProgramState* state : {&warm, &cold}) {
    state->create(env, a);
    state->create(env, b);
    state->fill(a.id(), init);
    state->fill(b.id(), init);
  }

  const DistArray* src = &a;
  const DistArray* dst = &b;
  for (int it = 0; it < 100; ++it) {
    const SweepStats sw = jacobi_step(warm, env, *src, *dst, n);
    const SweepStats sc = jacobi_step(cold, env, *src, *dst, n);
    if (it > 0) {
      // Iterations 2..100 price purely from the plan cache: A -> B and
      // B -> A share one plan because the two layouts key structurally.
      EXPECT_EQ(sw.ownership_queries, 0) << "iteration " << it;
    }
    EXPECT_GT(sc.ownership_queries, 0);
    EXPECT_EQ(sw.messages, sc.messages);
    EXPECT_EQ(sw.bytes, sc.bytes);
    EXPECT_EQ(sw.time_us, sc.time_us);
    std::swap(src, dst);
  }
  EXPECT_EQ(warm.plans().misses(), 1);
  EXPECT_EQ(warm.plans().hits(), 99);

  // Cumulative statistics and memory are byte-identical to the uncached run.
  EXPECT_EQ(warm.comm().total_messages(), cold.comm().total_messages());
  EXPECT_EQ(warm.comm().total_bytes(), cold.comm().total_bytes());
  EXPECT_EQ(warm.comm().total_transfers(), cold.comm().total_transfers());
  EXPECT_EQ(warm.comm().total_time_us(), cold.comm().total_time_us());
  EXPECT_EQ(warm.comm().local_reads(), cold.comm().local_reads());
  EXPECT_EQ(warm.memory().total_bytes(), cold.memory().total_bytes());
  EXPECT_DOUBLE_EQ(warm.checksum(a.id()), cold.checksum(a.id()));
  EXPECT_DOUBLE_EQ(warm.checksum(b.id()), cold.checksum(b.id()));
}

// --- the E3 acceptance bar: the ALIGN-ed 100-iteration Jacobi ---------------

TEST_F(PlanReplayTest, AlignedJacobiHundredIterationsReplaysWithZeroQueries) {
  // B takes its layout from ALIGN B WITH A, so every query derives
  // CONSTRUCT(α, δ_A). The forest caches the derived payload (one shared
  // payload, warm run tables) and the identity α collapses to δ_A's plan
  // signature, so the aligned sweep behaves exactly like the
  // doubly-DISTRIBUTE-d one: a single cold pricing, 99 replays, cumulative
  // statistics byte-identical to a cache-disabled run.
  const Extent n = 24;
  DataEnv env(ps_);
  DistArray& a = env.real("A", IndexDomain{Dim(1, n), Dim(1, n)});
  DistArray& b = env.real("B", IndexDomain{Dim(1, n), Dim(1, n)});
  ProcessorRef grid = env.default_target(2);
  env.distribute(a, {DistFormat::block(), DistFormat::block()}, grid);
  env.align(b, a, AlignSpec::colons(2));
  ASSERT_FALSE(env.is_primary(b));
  // The forest hands every query one shared derived payload.
  ASSERT_EQ(env.distribution_of(b).payload_identity(),
            env.distribution_of(b).payload_identity());
  ASSERT_EQ(env.distribution_of(b).kind(), Distribution::Kind::kConstructed);

  auto init = [n](const IndexTuple& i) {
    return (i[0] == 1 || i[0] == n || i[1] == 1 || i[1] == n) ? 100.0 : 0.0;
  };
  ProgramState warm(machine_);
  ProgramState cold(machine_);
  cold.plans().set_enabled(false);
  for (ProgramState* state : {&warm, &cold}) {
    state->create(env, a);
    state->create(env, b);
    state->fill(a.id(), init);
    state->fill(b.id(), init);
  }

  const DistArray* src = &a;
  const DistArray* dst = &b;
  for (int it = 0; it < 100; ++it) {
    const SweepStats sw = jacobi_step(warm, env, *src, *dst, n);
    const SweepStats sc = jacobi_step(cold, env, *src, *dst, n);
    if (it > 0) {
      EXPECT_EQ(sw.ownership_queries, 0) << "iteration " << it;
    }
    EXPECT_EQ(sw.messages, sc.messages);
    EXPECT_EQ(sw.bytes, sc.bytes);
    EXPECT_EQ(sw.time_us, sc.time_us);
    std::swap(src, dst);
  }
  EXPECT_EQ(warm.plans().misses(), 1);
  EXPECT_EQ(warm.plans().hits(), 99);

  EXPECT_EQ(warm.comm().total_messages(), cold.comm().total_messages());
  EXPECT_EQ(warm.comm().total_bytes(), cold.comm().total_bytes());
  EXPECT_EQ(warm.comm().total_transfers(), cold.comm().total_transfers());
  EXPECT_EQ(warm.comm().total_time_us(), cold.comm().total_time_us());
  EXPECT_EQ(warm.comm().local_reads(), cold.comm().local_reads());
  EXPECT_DOUBLE_EQ(warm.checksum(a.id()), cold.checksum(a.id()));
  EXPECT_DOUBLE_EQ(warm.checksum(b.id()), cold.checksum(b.id()));
}

// --- the E3 exact-count gate: ownership queries of a cold aligned step -----

TEST_F(PlanReplayTest, ExecColdStepOwnershipQueriesMatchE3) {
  // bench_iterative_sweep's E3 rig, plans off: once both sweep directions
  // are primed, a cold step of B identity-ALIGN-ed with A spends exactly
  // the 24 probes of the tables it builds (B's views hold A's run tables),
  // at every n; the DISTRIBUTE-d twin's A -> B step, the one the bench
  // reports, spends 32.
  for (const Extent n : {64, 128, 256}) {
    for (const bool aligned : {true, false}) {
      SCOPED_TRACE(cat("n=", n, aligned ? " aligned" : " distributed"));
      Machine machine(16);
      ProcessorSpace ps(16);
      const ProcessorRef grid(ps.declare("G", IndexDomain::of_extents({4, 4})));
      DataEnv env(ps);
      DistArray& a = env.real("A", IndexDomain{Dim(1, n), Dim(1, n)});
      DistArray& b = env.real("B", IndexDomain{Dim(1, n), Dim(1, n)});
      env.distribute(a, {DistFormat::block(), DistFormat::block()}, grid);
      if (aligned) {
        env.align(b, a, AlignSpec::colons(2));
      } else {
        env.distribute(b, {DistFormat::block(), DistFormat::block()}, grid);
      }
      ProgramState state(machine);
      state.plans().set_enabled(false);
      state.create(env, a);
      state.create(env, b);
      jacobi_step(state, env, a, b, n);  // prime both sweep directions
      jacobi_step(state, env, b, a, n);
      EXPECT_EQ(jacobi_step(state, env, a, b, n).ownership_queries,
                aligned ? 24 : 32);
      if (aligned) {
        EXPECT_EQ(jacobi_step(state, env, b, a, n).ownership_queries, 24);
      }
    }
  }
}

// --- invalidation: no stale pricing or replay across REALIGN ----------------

TEST_F(PlanReplayTest, RealignedArrayDoesNotReplayStalePlan) {
  // C is aligned to P1 (BLOCK), prices and replays a plan; REALIGN C WITH
  // P2 (CYCLIC) must invalidate the forest's cached derived payload AND
  // miss the plan cache (the new derived layout has a different
  // signature), so post-realign steps price exactly like a cache-disabled
  // state. A stale cached payload or a false plan hit would replay BLOCK
  // statistics for a CYCLIC layout.
  const Extent n = 32;
  const IndexDomain dom{Dim(1, n)};
  DataEnv env(ps_);
  DistArray& p1 = env.real("P1", dom);
  DistArray& p2 = env.real("P2", dom);
  DistArray& c = env.real("C", dom);
  DistArray& x = env.real("X", dom);
  env.distribute(p1, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  env.distribute(p2, {DistFormat::cyclic()}, ProcessorRef(ps_.find("Q")));
  env.distribute(x, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  env.align(c, p1, AlignSpec::colons(1));
  env.dynamic(c);

  ProgramState warm(machine_);
  ProgramState cold(machine_);
  cold.plans().set_enabled(false);
  for (ProgramState* state : {&warm, &cold}) {
    for (DistArray* arr : {&p1, &p2, &c, &x}) state->create(env, *arr);
    state->fill(x.id(), [](const IndexTuple& i) {
      return static_cast<double>(i[0]);
    });
  }

  auto step = [&](ProgramState& state) {
    return assign(state, env, c, SecExpr::whole(x) * 2.0, "C = 2X");
  };
  for (int it = 0; it < 2; ++it) {
    const AssignResult rw = step(warm);
    const AssignResult rc = step(cold);
    expect_step_eq(rw.step, rc.step);
  }
  EXPECT_GE(warm.plans().hits(), 1);

  const RemapEvent event = env.realign(c, p2, AlignSpec::colons(1));
  expect_step_eq(warm.apply_remap(event, c), cold.apply_remap(event, c));

  const Extent hits_before = warm.plans().hits();
  const AssignResult rw = step(warm);
  const AssignResult rc = step(cold);
  // First post-realign step prices cold (no stale replay)...
  EXPECT_EQ(warm.plans().hits(), hits_before);
  EXPECT_GT(rw.ownership_queries, 0);
  expect_step_eq(rw.step, rc.step);
  // ... and the next one replays the *new* layout's plan.
  const AssignResult rw2 = step(warm);
  const AssignResult rc2 = step(cold);
  EXPECT_EQ(warm.plans().hits(), hits_before + 1);
  EXPECT_EQ(rw2.ownership_queries, 0);
  expect_step_eq(rw2.step, rc2.step);
  EXPECT_EQ(warm.comm().total_bytes(), cold.comm().total_bytes());
  EXPECT_EQ(warm.comm().total_messages(), cold.comm().total_messages());
}

// --- recycled payload addresses can never alias a plan key ------------------

TEST_F(PlanReplayTest, RecycledPayloadAddressDoesNotReplayStalePlan) {
  // INDIRECT payloads key by content digest, so a different mapping at a
  // recycled address digests differently and the stale plan cannot
  // replay. The hazardous sequence end to end: an entry whose payload has
  // been released and whose address the allocator hands to a different
  // mapping.
  const IndexDomain dom{Dim(1, 8)};
  auto indirect_on = [&](Extent position) {
    return Distribution::formats(
        dom, {DistFormat::indirect(std::vector<Extent>(8, position))},
        ProcessorRef(ps_.find("Q")));
  };
  PlanCache cache;
  std::string stale_key;
  const void* address = nullptr;
  {
    Distribution d1 = indirect_on(1);
    address = d1.payload_identity();
    PlanKey k;
    k.add_tag("copy");
    k.add_distribution(d1);
    stale_key = k.str();
    auto plan = std::make_shared<CommPlan>();
    plan->sealed = true;
    cache.insert(stale_key, std::move(plan));
  }  // d1's payload dies; its address can now be recycled

  // Allocate same-shaped payloads until one lands on the old address (with
  // the glibc allocator the very first retry does).
  Distribution d2;
  for (int i = 0; i < 4096 && d2.payload_identity() != address; ++i) {
    d2 = Distribution();
    d2 = indirect_on(2);
  }
  if (d2.payload_identity() != address) {
    // Quarantining allocators (ASan) may never recycle the address; the
    // hazard cannot be reproduced, so the test is inconclusive, not red.
    GTEST_SKIP() << "allocator never recycled the payload address";
  }

  PlanKey k2;
  k2.add_tag("copy");
  k2.add_distribution(d2);
  // d2 is a different mapping (everything on AP 1, not AP 0): its key must
  // differ from the dead payload's, and the stale plan must not replay.
  EXPECT_NE(k2.str(), stale_key);
  EXPECT_EQ(cache.lookup(k2.str()), nullptr);
}

// --- memoized plan signatures ----------------------------------------------

/// Every payload kind, minted fresh on each call: separately minted
/// identical payloads must sign identically, and each payload's memo must
/// hand back the same bytes on every call.
class CommPlanSignatureMemoTest : public CommPlanTest {
 protected:
  std::vector<std::pair<std::string, Distribution>> mint_all() {
    const IndexDomain dom{Dim(1, 24)};
    const ProcessorRef q(ps_.find("Q"));
    const Distribution block =
        Distribution::formats(dom, {DistFormat::block()}, q);
    auto shift = [&](Index1 by, const Distribution& base) {
      std::vector<AlignmentFunction::BaseDim> dims(1);
      dims[0].kind = AlignmentFunction::BaseDim::Kind::kExpr;
      dims[0].alignee_dim = 0;
      dims[0].expr = AlignExpr::dummy(0) + by;
      return Distribution::constructed(AlignmentFunction(dom, dom, dims),
                                       base);
    };
    const Distribution shifted = shift(3, block);
    std::vector<Extent> map(24);
    for (std::size_t i = 0; i < map.size(); ++i) {
      map[i] = static_cast<Extent>(i * 5 % 8) + 1;
    }
    const Distribution view =
        Distribution::section_view(block, {Triplet(2, 22, 2)});
    return {
        {"block", block},
        {"cyclic", Distribution::formats(dom, {DistFormat::cyclic(3)}, q)},
        {"general_block",
         Distribution::formats(
             dom, {DistFormat::general_block_sizes({1, 5, 0, 4, 3, 3, 6, 2})},
             q)},
        {"indirect",
         Distribution::formats(dom, {DistFormat::indirect(map)}, q)},
        {"user_defined", owners_front_not_min(dom)},
        {"identity_constructed",
         Distribution::constructed(AlignmentFunction::identity(dom, dom),
                                   block)},
        {"shifted_constructed", shifted},
        {"nested_constructed", shift(1, shifted)},
        {"section_view", view},
        {"nested_section_view",
         Distribution::section_view(view, {Triplet(3, 9)})},
    };
  }
};

TEST_F(CommPlanSignatureMemoTest, EveryKindIsStableAcrossCallsAndMintings) {
  const auto first = mint_all();
  const auto second = mint_all();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    const std::string& name = first[i].first;
    const Distribution& d = first[i].second;
    const Distribution& twin = second[i].second;
    ASSERT_NE(d.payload_identity(), twin.payload_identity()) << name;
    const std::string& sig = d.plan_signature();
    EXPECT_FALSE(sig.empty()) << name;
    // Published once: every call returns the same bytes at the same place.
    EXPECT_EQ(&d.plan_signature(), &sig) << name;
    EXPECT_EQ(Distribution(d).plan_signature(), sig) << name;
    // Content-keyed: an identical payload minted separately signs equal.
    EXPECT_EQ(twin.plan_signature(), sig) << name;
    // append_plan_signature is exactly one append of the memo.
    std::string appended = "prefix";
    d.append_plan_signature(appended);
    EXPECT_EQ(appended, "prefix" + sig) << name;
    // Distinct mappings never collide (an identity α signs as its base,
    // which ComposedPayloadsEmbedTheirChildrensMemos checks).
    if (name == "identity_constructed") continue;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(first[j].second.plan_signature(), sig)
          << name << " vs " << first[j].first;
    }
  }
}

TEST_F(CommPlanSignatureMemoTest, ComposedPayloadsEmbedTheirChildrensMemos) {
  const auto all = mint_all();
  auto find = [&](const std::string& name) -> const Distribution& {
    for (const auto& [n, d] : all) {
      if (n == name) return d;
    }
    throw std::runtime_error("no payload " + name);
  };
  auto ends_with = [](const std::string& s, const std::string& tail) {
    return s.size() > tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
  };
  const Distribution& identity = find("identity_constructed");
  // An identity α signs exactly as its base.
  EXPECT_EQ(identity.plan_signature(), identity.base().plan_signature());
  for (const char* name : {"shifted_constructed", "nested_constructed"}) {
    const Distribution& c = find(name);
    EXPECT_TRUE(ends_with(c.plan_signature(), c.base().plan_signature()))
        << name;
  }
  for (const char* name : {"section_view", "nested_section_view"}) {
    const Distribution& v = find(name);
    EXPECT_TRUE(
        ends_with(v.plan_signature(), v.section_parent().plan_signature()))
        << name;
  }
}

TEST_F(CommPlanSignatureMemoTest, KeyBuildersAppendTheMemosVerbatim) {
  const auto all = mint_all();
  const Distribution& from = all[1].second;  // cyclic
  const Distribution& to = all[9].second;    // nested section view
  const std::string key = remap_plan_key(from, to, 8);
  PlanKey k;
  k.add_tag("remap");
  k.add_distribution(from);
  k.add_distribution(to);
  k.add_scalar(8);
  EXPECT_EQ(key, k.str());
  EXPECT_NE(key.find(from.plan_signature()), std::string::npos);
  EXPECT_NE(key.find(to.plan_signature()), std::string::npos);
}

TEST_F(CommPlanSignatureMemoTest, TwoThreadFirstTouchPublishesOnce) {
  // Two threads race to build the memo of fresh payloads: exactly one
  // build is published, both threads see it, and its bytes equal those of
  // an identical payload signed on one thread. The TSan job runs this.
  for (int round = 0; round < 20; ++round) {
    const auto payloads = mint_all();
    const auto reference = mint_all();
    std::atomic<int> ready{0};
    std::vector<const std::string*> seen[2];
    auto touch = [&](int t) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      for (const auto& entry : payloads) {
        seen[t].push_back(&entry.second.plan_signature());
      }
    };
    std::thread a(touch, 0);
    std::thread b(touch, 1);
    a.join();
    b.join();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(seen[0][i], seen[1][i]) << payloads[i].first;
      EXPECT_EQ(*seen[0][i], reference[i].second.plan_signature())
          << payloads[i].first;
    }
  }
}

// --- segment lists shared across sections (the discharged ROADMAP item) -----

TEST_F(PlanReplayTest, SectionsSharingADimensionShareItsSegmentList) {
  // The four leaf sections of a Jacobi step pairwise share a dimension
  // triplet; the per-payload per-dimension memo makes the second section
  // that agrees in a dimension spend zero probes there.
  const Extent n = 64;
  const IndexDomain dom{Dim(1, n), Dim(1, n)};
  DataEnv env(ps_);
  const Distribution dist =
      Distribution::formats(dom, {DistFormat::block(), DistFormat::block()},
                            env.default_target(2));
  const Triplet inner(2, n - 1);
  const LayoutView first(dist, {Triplet(1, n - 2), inner});
  const Extent first_queries = first.ownership_queries();
  EXPECT_GT(first_queries, 0);
  // Shares dim 1's triplet with `first`: only dim 0's list is computed.
  const LayoutView second(dist, {Triplet(3, n), inner});
  EXPECT_LT(second.ownership_queries(), first_queries);
  // Shares both triplets with `second` via the run memo: free.
  const LayoutView third(dist, {Triplet(3, n), inner});
  EXPECT_EQ(&second.table(), &third.table());
}

// --- PlanCache is a size-bounded LRU ----------------------------------------

TEST(PlanCacheLruTest, EvictsLeastRecentlyUsedAndCounts) {
  auto sealed = [] {
    auto plan = std::make_shared<CommPlan>();
    plan->sealed = true;
    return plan;
  };
  PlanCache cache;
  cache.set_capacity(2);
  EXPECT_EQ(cache.capacity(), 2u);
  cache.insert("a", sealed());
  cache.insert("b", sealed());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0);

  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_NE(cache.lookup("a"), nullptr);
  cache.insert("c", sealed());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  EXPECT_EQ(cache.lookup("b"), nullptr);  // evicted
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 1);

  // Re-inserting an existing key refreshes, never evicts.
  cache.insert("c", sealed());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);

  // Shrinking the capacity evicts from the tail immediately.
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 2);
  EXPECT_NE(cache.lookup("c"), nullptr);  // most recently touched survives

  // An unsealed plan is never cached.
  cache.insert("u", std::make_shared<CommPlan>());
  EXPECT_EQ(cache.lookup("u"), nullptr);
}

TEST(PlanCacheLruTest, ChurningOneShotKeysNeverGrowsPastCapacity) {
  // A long interp session churning distinct section-view schedules must
  // stay bounded: every insert past capacity evicts exactly one entry.
  auto sealed = [] {
    auto plan = std::make_shared<CommPlan>();
    plan->sealed = true;
    return plan;
  };
  PlanCache cache;
  for (int i = 0; i < 1000; ++i) {
    cache.insert(cat("key", i), sealed());
    EXPECT_LE(cache.size(), cache.capacity());
  }
  EXPECT_EQ(cache.size(), cache.capacity());
  EXPECT_EQ(cache.evictions(),
            static_cast<Extent>(1000 - cache.capacity()));
}

TEST(PlanCacheLruTest, InsertsCountStoresRefreshesAndServiceBackfills) {
  auto sealed = [] {
    auto plan = std::make_shared<CommPlan>();
    plan->sealed = true;
    return plan;
  };
  Machine machine(4);
  PlanService service;
  service.insert("shared", sealed());
  ProgramState state(machine);
  state.set_plan_service(&service);
  const PlanCache& cache = state.plans();

  state.publish_plan("a", sealed());  // store
  EXPECT_EQ(cache.inserts(), 1);
  state.publish_plan("a", sealed());  // refresh
  EXPECT_EQ(cache.inserts(), 2);
  // An L1 miss served by the service back-fills the L1: one more insert.
  EXPECT_NE(state.lookup_plan("shared"), nullptr);
  EXPECT_EQ(cache.inserts(), 3);
  // The back-filled entry now serves from the L1 without inserting again.
  EXPECT_NE(state.lookup_plan("shared"), nullptr);
  EXPECT_EQ(cache.inserts(), 3);
  // Unsealed and null plans are never stored, so they are not counted.
  state.plans().insert("u", std::make_shared<CommPlan>());
  state.plans().insert("n", nullptr);
  EXPECT_EQ(cache.inserts(), 3);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheLruTest, ClearDropsEntriesButKeepsCounters) {
  auto plan = std::make_shared<CommPlan>();
  plan->sealed = true;
  PlanCache cache;
  cache.insert("a", plan);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_EQ(cache.lookup("b"), nullptr);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.inserts(), 1);
  EXPECT_EQ(cache.lookup("a"), nullptr);  // the entry is gone...
  EXPECT_EQ(cache.misses(), 2);           // ...and the counters keep going
}

// --- CommEngine misuse guards -----------------------------------------------

TEST_F(CommPlanTest, ReplayOfUnsealedPlanThrows) {
  // A plan whose recording never reached end_step holds default (wrong)
  // stats; replaying it must fail loudly instead of corrupting the
  // cumulative counters.
  CommEngine engine(machine_);
  CommPlan unsealed;
  EXPECT_THROW(engine.replay(unsealed), InternalError);
  EXPECT_EQ(engine.total_messages(), 0);
  EXPECT_EQ(engine.local_reads(), 0);
}

TEST_F(CommPlanTest, BeginStepWhileRecordingArmedThrows) {
  // If a recorded step unwinds before end_step (a pricing error mid-step),
  // the armed recording must not silently leak its partial schedule into
  // the next step: begin_step reports the unsealed recording explicitly.
  CommEngine engine(machine_);
  engine.begin_step("first");
  auto plan = std::make_shared<CommPlan>();
  engine.record_into(plan);
  engine.transfer_block(0, 1, 8, 4);
  // The step unwinds here without end_step; the next begin_step must name
  // the armed recording, not just "inside an open step".
  try {
    engine.begin_step("second");
    FAIL() << "begin_step did not throw";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("recording"), std::string::npos);
  }
  EXPECT_FALSE(plan->sealed);
}

TEST_F(CommPlanTest, ReplayInsideOpenStepThrows) {
  CommEngine engine(machine_);
  CommPlan sealed;
  sealed.sealed = true;
  engine.begin_step("open");
  EXPECT_THROW(engine.replay(sealed), InternalError);
}

}  // namespace
}  // namespace hpfnt
