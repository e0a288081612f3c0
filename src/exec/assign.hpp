// The owner-computes assignment executor.
//
// Executes LHS(section) = expr with Fortran 90 array-assignment semantics
// (the RHS is evaluated completely before the LHS changes) under the
// owner-computes rule: the first owner of each LHS element evaluates the
// expression for it, pulling remote operands by message; further owners
// (replicas) receive the result by message. All transfers of one assignment
// form one comm step, so pairs are message-vectorized.
//
// Pass structure (all three batched — nothing in a warm sweep is
// per-element):
//   1. numerics — the RHS's compiled SecProgram evaluates whole flat
//      strided segments of every operand into the state's reusable staging
//      buffer (Fortran semantics: the snapshot completes before the LHS
//      changes);
//   2. pricing — the owner-computes communication is charged per
//      owner-set pair (core/pair_counts.hpp), or the whole
//      priced schedule replays from the plan cache (exec/comm_plan.hpp);
//   3. writeback — the staged values land in canonical storage one flat
//      LHS segment at a time (ProgramState::store_segment).
//
// This is the workload the paper's mapping model exists to serve: the
// communication an assignment induces is exactly determined by the
// distributions and alignments of the arrays involved.
#pragma once

#include <string>
#include <vector>

#include "exec/section_expr.hpp"

namespace hpfnt {

/// Which numerics engine passes 1 and 3 use. kSegment is the production
/// path (compiled SecProgram over flat strided segments); kElement is the
/// per-element reference oracle (eval_serial + set_value) kept for the
/// differential tests and the E5 benchmark baseline. Both engines price
/// identically and must produce byte-identical values and StepStats.
enum class EvalEngine { kSegment, kElement };

struct AssignResult {
  StepStats step;
  Extent elements = 0;
  /// Element reads satisfied without a message (operand segments the
  /// computing owner already held). Together with step.element_transfers
  /// this is the assignment's total read count, whatever the leaf count.
  Extent local_reads = 0;
  /// Per-element payload probes behind this assignment's cold pricing: the
  /// probes of the segment lists its sections read, counted
  /// whether or not they were memoized; 0 when the priced schedule was
  /// replayed from the plan cache (exec/comm_plan.hpp).
  Extent ownership_queries = 0;
  /// Wall time of the pricing pass alone (plan lookup + replay, or the
  /// cold charge walk), excluding numerics and the result writeback.
  Extent pricing_ns = 0;
  /// Fraction of RHS element reads that crossed processors.
  double remote_read_fraction = 0.0;
  /// Per-RHS-leaf phase bits, in SecExpr::leaves() order: 1 iff the leaf's
  /// transfers were charged in the POSTED phase (the record-time partition
  /// of exec/overlap.hpp::classify_operand_comm). Computed on warm and cold
  /// paths alike — the bits feed the plan key — so the static analyzer's
  /// classification can be checked against them differentially.
  std::vector<char> posted_leaves;
};

/// The assignment gate, shared by the executor (every assign below calls
/// it first) and the static passes (analysis/walk.hpp): the LHS section
/// must lie inside the LHS's domain (MappingError otherwise), and the RHS
/// must conform with it after squeezing unit dimensions, a scalar-shaped
/// RHS broadcasting (ConformanceError naming both shapes otherwise).
/// Returns the section's iteration domain.
IndexDomain check_assignment(const DistArray& lhs,
                             const std::vector<Triplet>& lhs_section,
                             const SecExpr& rhs);

/// LHS(section) = rhs.
AssignResult assign(ProgramState& state, const DataEnv& env,
                    const DistArray& lhs, std::vector<Triplet> lhs_section,
                    const SecExpr& rhs, const std::string& label = "",
                    EvalEngine engine = EvalEngine::kSegment);

/// LHS = rhs over the whole array.
AssignResult assign(ProgramState& state, const DataEnv& env,
                    const DistArray& lhs, const SecExpr& rhs,
                    const std::string& label = "");

/// Like assign(), but the LHS mapping comes from the ProgramState's storage
/// layout instead of a DataEnv forest — for workloads whose mappings were
/// installed directly with create_with() (e.g. mappings computed by the HPF
/// template baseline).
AssignResult assign_on_layout(ProgramState& state, const DistArray& lhs,
                              std::vector<Triplet> lhs_section,
                              const SecExpr& rhs,
                              const std::string& label = "",
                              EvalEngine engine = EvalEngine::kSegment);

/// Serial reference: evaluates the same assignment without any ownership
/// or communication, for verifying the distributed executor's numerics.
void assign_serial(ProgramState& state, const DistArray& lhs,
                   const std::vector<Triplet>& lhs_section,
                   const SecExpr& rhs);

}  // namespace hpfnt
