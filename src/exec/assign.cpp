#include "exec/assign.hpp"

#include <chrono>

#include "exec/pricing.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

namespace {

std::string shape_string(const std::vector<Extent>& shape) {
  std::string out = "(";
  for (std::size_t d = 0; d < shape.size(); ++d) {
    if (d) out += "x";
    out += cat(shape[d]);
  }
  return out + ")";
}

// The per-element reference path (EvalEngine::kElement, assign_serial):
// the RHS sees each position with unit dimensions dropped.
void eval_elements(const ProgramState& state, const IndexDomain& iteration,
                   const SecExpr& rhs, double* staged) {
  iteration.for_each([&](const IndexTuple& pos) {
    IndexTuple squeezed;
    for (int d = 0; d < iteration.rank(); ++d) {
      if (iteration.extent(d) != 1) {
        squeezed.push_back(pos[static_cast<std::size_t>(d)]);
      }
    }
    *staged++ = rhs.eval_serial(state, squeezed);
  });
}

void store_elements(ProgramState& state, const DistArray& lhs,
                    const std::vector<Triplet>& section,
                    const IndexDomain& iteration, const double* staged) {
  iteration.for_each([&](const IndexTuple& pos) {
    state.set_value(lhs.id(), lhs.domain().section_parent_index(section, pos),
                    *staged++);
  });
}

AssignResult assign_impl(ProgramState& state, const Distribution& lhs_dist,
                         const DistArray& lhs,
                         const std::vector<Triplet>& lhs_section,
                         const SecExpr& rhs, const std::string& label,
                         EvalEngine engine) {
  const IndexDomain iteration = check_assignment(lhs, lhs_section, rhs);

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
    eval_elements(state, iteration, rhs, staged);
  }

  // Pass 2: owner-computes pricing. The schedule is a pure function of the
  // participating layouts, sections, and per-element costs, so a recurring
  // assignment — the 2nd..Nth iteration of a sweep — replays its memoized
  // plan with zero ownership queries and no common-segment walk. The timer
  // must start BEFORE PlanKey construction: key building + hashing is part
  // of the warm path's pricing cost (the E2 bench harness asserts a
  // nonzero warm pricing_ns as a regression tripwire).
  const auto price_start = std::chrono::steady_clock::now();

  // The schedule the static cost model runs too (exec/pricing.hpp): the
  // split-phase classification (a leaf whose halo its shadow covers charges
  // in the POSTED phase), the plan key, then on a miss the charge walk.
  AssignResult result;
  PlanCache& plans = state.plans();
  result.posted_leaves = schedule_assign(
      lhs_dist, lhs_section, leaves, bytes, flops, comm.overlap_enabled(),
      plans.enabled(),
      [&](const SecLeaf& leaf) {
        return LeafLayout{&state.layout(leaf.array),
                          &state.shadow_of(leaf.array)};
      },
      [&](const std::string& key, auto& charge) {
        std::shared_ptr<const CommPlan> plan =
            plans.enabled() ? state.lookup_plan(key) : nullptr;
        if (plan) {
          result.step = comm.replay(*plan, step_label);
          return;
        }
        comm.begin_step(step_label);
        // The LHS write-back (pass 3) runs after the step, so values are
        // safe; the guard keeps the ENGINE safe — an exception out of the
        // charge walk or out of end_step (fault exhaustion) aborts the
        // half-charged step instead of leaving it open with a recording
        // armed.
        StepGuard guard(comm);
        auto rec = std::make_shared<CommPlan>();
        if (plans.enabled()) comm.record_into(rec);
        result.ownership_queries = charge(comm);
        result.step = comm.end_step();
        guard.dismiss();
        if (plans.enabled()) state.publish_plan(key, std::move(rec));
      });
  result.pricing_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - price_start)
                          .count();

  // Pass 3: write the staged results to canonical storage (section order
  // is Fortran order, so no view is needed here) —
  // whole flat LHS segments at a time.
  if (engine == EvalEngine::kSegment) {
    Extent written = 0;
    for_each_segment(lhs.domain(), lhs_section, [&](const FlatSegment& seg) {
      state.store_segment(lhs.id(), seg, staged + written);
      written += seg.count;
    });
  } else {
    store_elements(state, lhs, lhs_section, iteration, staged);
  }

  result.elements = iteration.size();
  result.local_reads = comm.local_reads() - local_before;
  const Extent total_reads = result.local_reads + result.step.element_transfers;
  result.remote_read_fraction =
      total_reads == 0 ? 0.0
                       : static_cast<double>(result.step.element_transfers) /
                             static_cast<double>(total_reads);
  return result;
}

}  // namespace

IndexDomain check_assignment(const DistArray& lhs,
                             const std::vector<Triplet>& lhs_section,
                             const SecExpr& rhs) {
  IndexDomain iteration = lhs.domain().section_domain(lhs_section);
  // Fortran conformance: shapes match after squeezing unit dimensions
  // (scalar subscripts), so D(:,j) = D(:,j) + A(:) is legal.
  const std::vector<Extent> lhs_shape = squeezed_shape(iteration.dims());
  const std::vector<Extent> rhs_shape = rhs.shape();
  if (!rhs_shape.empty() && rhs_shape != lhs_shape) {
    throw ConformanceError(
        cat("right-hand side of shape ", shape_string(rhs_shape),
            " does not conform with target section ",
            render_section(lhs.name(), lhs_section), " of shape ",
            shape_string(lhs_shape)));
  }
  return iteration;
}

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

AssignResult assign(ProgramState& state, const DataEnv& env,
                    const DistArray& lhs, const SecExpr& rhs,
                    const std::string& label) {
  return assign(state, env, lhs, lhs.domain().dims(), rhs, label);
}

void assign_serial(ProgramState& state, const DistArray& lhs,
                   const std::vector<Triplet>& lhs_section,
                   const SecExpr& rhs) {
  const IndexDomain iteration = lhs.domain().section_domain(lhs_section);
  std::vector<double> staged(static_cast<std::size_t>(iteration.size()));
  eval_elements(state, iteration, rhs, staged.data());
  store_elements(state, lhs, lhs_section, iteration, staged.data());
}

}  // namespace hpfnt
