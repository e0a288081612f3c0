// hpflint — the static analyzer over directive scripts.
//
// The paper's central claim is that data mappings are *statically known*:
// a distribution or alignment directive determines ownership — and hence
// the communication every owner-computes statement induces — without
// running the program. This module cashes that claim in. It is a visitor
// of the static walk (analysis/walk.hpp), which binds the script as the
// interpreter would and reports the HF/HL errors, for the cost model too.
// The analyzer keeps only its own bookkeeping: HL004-HL006, HP, the HC
// classification of every operand, HS shadow checks and HD checks.
//
// The analyzer and the executor share one classification function,
// exec/overlap.hpp::classify_operand_comm — the same predicate that sets
// the PlanTransfer::posted phase bits at plan-record time — so the static
// report and the recorded plan's split-phase partition cannot diverge
// (tests/test_analysis.cpp checks the equality differentially, leaf for
// leaf, against executed scripts).
//
// Diagnostic codes (stable; tests name them individually):
//
//   code    sev      meaning
//   ------  -------  -----------------------------------------------------
//   HF000   error    script does not parse (front-end DirectiveError)
//   HF001   error    statement rejected at bind time (unknown name,
//                    subscripted scalar, bad section, READ, ...) or target
//                    section outside its array (the assignment gate)
//   HF002   error    right-hand side does not conform with the target
//                    section (squeezed-extent mismatch, §2.4; the gate)
//   HL001   error    REALIGN/ALIGN of an array with itself (cycle)
//   HL002   error    ALIGN/REALIGN onto a secondary base — the alignment
//                    forest keeps height <= 1; align to the base's primary
//   HL003   error    mapping directive rejected by the binder (rank/extent
//                    misfit, non-DYNAMIC remap, TEMPLATE/INHERIT, ...)
//   HL004   warning  alignee axis mapped onto a collapsed base dimension:
//                    the alignment constrains no locality there
//   HL005   warning  REDISTRIBUTE of a secondary: detaches it from its
//                    base, silently dropping the alignment relation
//   HL006   warning  REDISTRIBUTE to the identical mapping (same_mapping):
//                    a no-op that still pays directive overhead
//   HS001   warning  stencil shift exceeds the declared SHADOW width, so a
//                    transfer that could be a posted halo exchange will be
//                    exposed-sync; fix-it carries the minimal SHADOW
//   HC001   note     operand classified LOCAL (owner reads its own data)
//   HC002   note     operand classified POSTED (halo exchange into shadow,
//                    overlaps interior compute)
//   HC003   note     operand classified SYNC-REMOTE (blocks the statement)
//   HD001   warning  declared SHADOW never covers any statement's
//                    communication (dead ghost cells)
//   HD002   note     array relies on the compiler's implicit distribution
//                    (never named in any mapping directive)
//   HD003   warning  DYNAMIC array is never REDISTRIBUTE/REALIGNed
//   HP001   warning  CALL to a subroutine not defined in the script
//   HP002   error    CALL arity differs from the subroutine's dummy list
//   HX001   note     (hpfcost, analysis/cost_model.hpp) quantified cost of
//                    one statement: predicted bytes/messages and exposed
//                    communication time, with the heaviest processor pair
//   HX002   note     (hpfcost) statement's plan key repeats an earlier
//                    statement's — the executor replays the memoized plan
//
// Severities: errors mean execution would throw; warnings are legal
// programs that almost certainly do not mean what they say; notes are the
// communication classification itself (HC*) and advisory facts. hpflint
// exits nonzero on errors (and on warnings under --werror); notes never
// affect exit status.
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/processors.hpp"
#include "directives/ast.hpp"
#include "exec/overlap.hpp"

namespace hpfnt::analysis {

/// The static communication classification of one RHS operand of an
/// array-section assignment, in SecExpr::leaves() order — the same order
/// as AssignResult::posted_leaves, which the differential tests exploit.
struct OperandComm {
  std::string array;     ///< operand array name as declared
  std::string rendered;  ///< e.g. "B(1:8:1)" — bound section rendering
  int line = 0;          ///< reference location in the source
  int column = 0;
  CommClass comm = CommClass::kSync;
};

/// Per-statement classification record for every array-section assignment
/// of the main program, in execution order.
struct StatementComm {
  int line = 0;
  std::string lhs;  ///< target array name
  std::vector<OperandComm> operands;
};

struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;
  std::vector<StatementComm> statements;

  int errors() const { return count_of(diagnostics, Severity::kError); }
  int warnings() const { return count_of(diagnostics, Severity::kWarning); }
};

/// Analyzes a parsed program. Directives are bound (mapping bookkeeping
/// only) so later statements see the mappings earlier directives
/// established; statements are classified, never executed. Subroutine
/// bodies are not analyzed — CALLs are checked for existence and arity
/// (HP001/HP002) only. Never throws for script-level problems: they
/// become diagnostics.
AnalysisResult analyze_program(ProcessorSpace& space,
                               const dir::AstProgram& program);

/// Parses and analyzes a script source. A parse failure yields a single
/// HF000 diagnostic instead of a throw.
AnalysisResult analyze_script(ProcessorSpace& space,
                              const std::string& source);

/// "SHADOW NAME(l:r,...)": the HS001 fix-it, and (after "!HPF$ ") the
/// directive --fix writes.
std::string shadow_directive(const std::string& name,
                             const std::vector<ShadowWidth>& widths);

}  // namespace hpfnt::analysis
