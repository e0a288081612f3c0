#include "exec/assign.hpp"

#include <chrono>

#include "core/layout_view.hpp"
#include "exec/comm_plan.hpp"
#include "exec/overlap.hpp"
#include "exec/pricing.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

namespace {

AssignResult assign_impl(ProgramState& state, const Distribution& lhs_dist,
                         const DistArray& lhs,
                         const std::vector<Triplet>& lhs_section,
                         const SecExpr& rhs, const std::string& label,
                         EvalEngine engine);

}  // namespace

AssignResult assign(ProgramState& state, const DataEnv& env,
                    const DistArray& lhs, std::vector<Triplet> lhs_section,
                    const SecExpr& rhs, const std::string& label,
                    EvalEngine engine) {
  return assign_impl(state, env.distribution_of(lhs), lhs, lhs_section, rhs,
                     label, engine);
}

AssignResult assign_on_layout(ProgramState& state, const DistArray& lhs,
                              std::vector<Triplet> lhs_section,
                              const SecExpr& rhs, const std::string& label,
                              EvalEngine engine) {
  return assign_impl(state, state.layout(lhs.id()), lhs, lhs_section, rhs,
                     label, engine);
}

namespace {

AssignResult assign_impl(ProgramState& state, const Distribution& lhs_dist,
                         const DistArray& lhs,
                         const std::vector<Triplet>& lhs_section,
                         const SecExpr& rhs, const std::string& label,
                         EvalEngine engine) {
  lhs.domain().validate_section(lhs_section);
  const IndexDomain iteration = lhs.domain().section_domain(lhs_section);
  // Fortran conformance: shapes match after squeezing unit dimensions
  // (scalar subscripts), so D(:,j) = D(:,j) + A(:) is legal.
  const std::vector<Extent> lhs_shape = squeezed_shape(iteration.dims());
  const std::vector<Extent> rhs_shape = rhs.shape();
  if (!rhs_shape.empty() && rhs_shape != lhs_shape) {
    throw ConformanceError(
        "assignment shapes do not conform (after squeezing unit "
        "dimensions)");
  }

  const Extent bytes = elem_bytes(lhs.type());
  const Extent flops = rhs.flops_per_element();
  const std::string step_label =
      label.empty() ? (lhs.name() + " = <expr>") : label;

  CommEngine& comm = state.comm();
  const Extent local_before = comm.local_reads();

  const SecProgram& prog = rhs.program();
  const std::vector<SecLeaf>& leaves = prog.leaves();

  // Pass 1: numerics. The RHS is evaluated completely before the LHS
  // changes (Fortran array-assignment semantics); values are independent of
  // placement, so evaluation reads canonical storage directly while the
  // owner-computes communication is charged run-wise below — and runs every
  // step even when the priced schedule is replayed from a plan. The
  // compiled program evaluates whole flat strided segments into the
  // state's reusable staging buffer; the element engine is the reference
  // oracle (identical values by construction, asserted differentially).
  ScratchArena& arena = state.scratch();
  const Extent total = iteration.size();
  arena.staged.resize(static_cast<std::size_t>(total));
  double* staged = arena.staged.data();
  if (engine == EvalEngine::kSegment) {
    prog.eval(state, arena, total, staged);
  } else {
    // Squeeze helper: the RHS sees positions with unit dimensions dropped.
    auto squeeze = [&](const IndexTuple& pos) {
      IndexTuple out;
      for (int d = 0; d < iteration.rank(); ++d) {
        if (iteration.extent(d) != 1) {
          out.push_back(pos[static_cast<std::size_t>(d)]);
        }
      }
      return out;
    };
    Extent at = 0;
    iteration.for_each([&](const IndexTuple& pos) {
      staged[at++] = rhs.eval_serial(state, squeeze(pos));
    });
  }

  // Pass 2: owner-computes pricing. The schedule is a pure function of the
  // participating layouts, sections, and per-element costs, so a recurring
  // assignment — the 2nd..Nth iteration of a sweep — replays its memoized
  // plan with zero ownership queries and no common-segment walk. The timer
  // must start BEFORE PlanKey construction: key building + hashing is part
  // of the warm path's pricing cost (the E2 bench harness asserts a
  // nonzero warm pricing_ns as a regression tripwire).
  const auto price_start = std::chrono::steady_clock::now();

  // Split-phase analysis (exec/overlap.hpp, the shared source of truth): a
  // leaf whose section is a pure per-dimension shift of the LHS section, on
  // a structurally identical mapping, with every shifted dimension covered
  // by the leaf array's declared shadow, has ONLY halo transfers — they
  // land in ghost cells no interior computation reads, so they are charged
  // in the engine's POSTED phase and overlap the compute. Everything else
  // (unshifted reads, broadcasts, replica updates) stays synchronous, so
  // with no shadow declared (or overlap disabled) every leaf is sync and
  // the step prices exactly as before.
  std::vector<char> posted(leaves.size(), 0);
  if (comm.overlap_enabled()) {
    for (std::size_t l = 0; l < leaves.size(); ++l) {
      const SecLeaf& leaf = leaves[l];
      // The shared predicate (exec/overlap.hpp) is the single source of
      // truth for the phase partition: the static analyzer calls the same
      // function over the same inputs, so its posted/sync report can never
      // diverge from the recorded plan's phase bits.
      posted[l] = classify_operand_comm(
                      lhs_dist, lhs_section, state.layout(leaf.array),
                      *leaf.section,
                      state.shadow_of(leaf.array)) == CommClass::kPosted;
    }
  }

  PlanCache& plans = state.plans();
  std::string key;
  if (plans.enabled()) {
    // The shared key builder (exec/comm_plan.cpp) — the same call the
    // static cost model makes over Binder-bound layouts, so predicted plan
    // sharing is the executor's plan sharing by construction.
    std::vector<AssignKeyLeaf> key_leaves;
    key_leaves.reserve(leaves.size());
    for (std::size_t l = 0; l < leaves.size(); ++l) {
      const SecLeaf& leaf = leaves[l];
      key_leaves.push_back({&state.layout(leaf.array), leaf.section,
                            leaf.bytes, posted[l] != 0,
                            &state.shadow_of(leaf.array)});
    }
    key = assign_plan_key(lhs_dist, lhs_section, bytes, flops, key_leaves);
  }

  AssignResult result;
  std::shared_ptr<const CommPlan> plan =
      plans.enabled() ? state.lookup_plan(key) : nullptr;
  if (plan) {
    result.step = comm.replay(*plan, step_label);
  } else {
    comm.begin_step(step_label);
    // The LHS write-back (pass 3) runs after the step, so values are safe;
    // the guard keeps the ENGINE safe — an exception out of the charge
    // walk or out of end_step (fault exhaustion) aborts the half-charged
    // step instead of leaving it open with a recording armed.
    StepGuard guard(comm);
    auto rec = std::make_shared<CommPlan>();
    if (plans.enabled()) comm.record_into(rec);

    // Run tables over the LHS section and every RHS operand section. All
    // sections conform, so one linear position space [0, size) indexes them
    // all; communication is decided per constant-owner segment, not per
    // element — by the shared charge walk (exec/pricing.hpp), the same
    // loop the static cost model drives with a storage-free pricer.
    const LayoutView lhs_view(lhs_dist, lhs_section);
    std::vector<LayoutView> leaf_views;
    std::vector<Extent> leaf_bytes;
    leaf_views.reserve(leaves.size());
    leaf_bytes.reserve(leaves.size());
    for (const SecLeaf& leaf : leaves) {
      leaf_views.emplace_back(state.layout(leaf.array), *leaf.section);
      leaf_bytes.push_back(leaf.bytes);
    }
    charge_assign_step(lhs_view, leaf_views, leaf_bytes, posted, bytes, flops,
                       comm);
    result.step = comm.end_step();
    guard.dismiss();
    if (plans.enabled()) state.publish_plan(key, std::move(rec));

    result.ownership_queries = lhs_view.ownership_queries();
    for (const LayoutView& v : leaf_views) {
      result.ownership_queries += v.ownership_queries();
    }
  }
  result.pricing_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - price_start)
                          .count();

  // Pass 3: write the staged results to canonical storage (section order
  // equals the run tables' linear order, so no view is needed here) —
  // whole flat LHS segments at a time.
  if (engine == EvalEngine::kSegment) {
    Extent written = 0;
    for_each_segment(lhs.domain(), lhs_section, [&](const FlatSegment& seg) {
      state.store_segment(lhs.id(), seg, staged + written);
      written += seg.count;
    });
  } else {
    std::size_t k = 0;
    iteration.for_each([&](const IndexTuple& pos) {
      state.set_value(lhs.id(),
                      lhs.domain().section_parent_index(lhs_section, pos),
                      staged[k++]);
    });
  }

  result.elements = iteration.size();
  result.posted_leaves = std::move(posted);
  result.local_reads = comm.local_reads() - local_before;
  const Extent total_reads = result.local_reads + result.step.element_transfers;
  result.remote_read_fraction =
      total_reads == 0 ? 0.0
                       : static_cast<double>(result.step.element_transfers) /
                             static_cast<double>(total_reads);
  return result;
}

}  // namespace

AssignResult assign(ProgramState& state, const DataEnv& env,
                    const DistArray& lhs, const SecExpr& rhs,
                    const std::string& label) {
  return assign(state, env, lhs, lhs.domain().dims(), rhs, label);
}

void assign_serial(ProgramState& state, const DistArray& lhs,
                   const std::vector<Triplet>& lhs_section,
                   const SecExpr& rhs) {
  const IndexDomain iteration = lhs.domain().section_domain(lhs_section);
  auto squeeze = [&](const IndexTuple& pos) {
    IndexTuple out;
    for (int d = 0; d < iteration.rank(); ++d) {
      if (iteration.extent(d) != 1) {
        out.push_back(pos[static_cast<std::size_t>(d)]);
      }
    }
    return out;
  };
  std::vector<double> staged;
  staged.reserve(static_cast<std::size_t>(iteration.size()));
  iteration.for_each([&](const IndexTuple& pos) {
    staged.push_back(rhs.eval_serial(state, squeeze(pos)));
  });
  std::size_t k = 0;
  iteration.for_each([&](const IndexTuple& pos) {
    IndexTuple lhs_idx = lhs.domain().section_parent_index(lhs_section, pos);
    state.set_value(lhs.id(), lhs_idx, staged[k++]);
  });
}

}  // namespace hpfnt
