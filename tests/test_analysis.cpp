// The static analyzer (src/analysis/): golden diagnostics for every code,
// clean-program zero-diagnostic cases over the checked-in example scripts,
// and the acceptance differential — hpflint's static local/posted/sync
// classification must match the executed plan's phase bits leaf for leaf,
// with no divergence permitted (both sides call
// exec/overlap.hpp::classify_operand_comm; these tests pin that they feed
// it the same inputs).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "directives/interp.hpp"
#include "exec/comm_plan.hpp"
#include "support/error.hpp"

namespace hpfnt {
namespace {

using analysis::AnalysisResult;
using analysis::Diagnostic;
using analysis::Severity;

AnalysisResult lint(const std::string& source) {
  ProcessorSpace ps(32);
  return analysis::analyze_script(ps, source);
}

std::vector<const Diagnostic*> with_code(const AnalysisResult& result,
                                         const std::string& code) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.code == code) out.push_back(&d);
  }
  return out;
}

const Diagnostic* first_with_code(const AnalysisResult& result,
                                  const std::string& code) {
  auto all = with_code(result, code);
  return all.empty() ? nullptr : all.front();
}

std::string read_example(const std::string& name) {
  const std::string path =
      std::string(HPFNT_SOURCE_DIR) + "/examples/scripts/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// An interpreter session with real storage, the execution side of the
/// differential tests.
struct ExecSession {
  ExecSession() : machine(32), ps(32), state(machine), in(ps) {
    in.set_state(&state);
  }
  Machine machine;
  ProcessorSpace ps;
  ProgramState state;
  dir::Interpreter in;
};

/// The acceptance invariant: for every array-assignment statement, the
/// analyzer's per-operand POSTED classification equals the executor's
/// recorded phase bit, leaf for leaf. No divergence permitted.
void expect_classification_matches_execution(const std::string& script) {
  ProcessorSpace ps(32);
  const AnalysisResult report = analysis::analyze_script(ps, script);
  ASSERT_EQ(report.errors(), 0) << "script must be executable to diff";

  ExecSession session;
  session.in.run(script);
  const std::vector<dir::AssignExec>& executed = session.in.assigns();
  ASSERT_EQ(executed.size(), report.statements.size());
  for (std::size_t i = 0; i < executed.size(); ++i) {
    const analysis::StatementComm& stmt = report.statements[i];
    const std::vector<char>& posted = executed[i].result.posted_leaves;
    ASSERT_EQ(posted.size(), stmt.operands.size())
        << "statement at line " << stmt.line;
    for (std::size_t l = 0; l < posted.size(); ++l) {
      EXPECT_EQ(stmt.operands[l].comm == CommClass::kPosted,
                static_cast<bool>(posted[l]))
          << "line " << stmt.line << " operand " << stmt.operands[l].rendered;
    }
  }
}

// --- clean programs ----------------------------------------------------------

TEST(AnalysisClean, JacobiExampleHasNoErrorsOrWarnings) {
  const AnalysisResult r = lint(read_example("jacobi.hpf"));
  EXPECT_EQ(r.errors(), 0);
  EXPECT_EQ(r.warnings(), 0);
  // Every stencil operand posts: 2 statements x 2 operands, all POSTED.
  ASSERT_EQ(r.statements.size(), 2u);
  for (const analysis::StatementComm& s : r.statements) {
    ASSERT_EQ(s.operands.size(), 2u);
    for (const analysis::OperandComm& op : s.operands) {
      EXPECT_EQ(op.comm, CommClass::kPosted) << op.rendered;
    }
  }
  EXPECT_EQ(with_code(r, "HC002").size(), 4u);
}

TEST(AnalysisClean, AlignmentExampleHasNoErrorsOrWarnings) {
  const AnalysisResult r = lint(read_example("alignment.hpf"));
  EXPECT_EQ(r.errors(), 0);
  EXPECT_EQ(r.warnings(), 0);
  ASSERT_EQ(r.statements.size(), 2u);
}

TEST(AnalysisClean, EmptyScriptIsClean) {
  const AnalysisResult r = lint("");
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_TRUE(r.statements.empty());
}

// --- conformance (HF) --------------------------------------------------------

TEST(AnalysisGolden, HF000ParseFailure) {
  const AnalysisResult r = lint("REAL A((\n");
  ASSERT_NE(first_with_code(r, "HF000"), nullptr);
  EXPECT_EQ(r.errors(), 1);
}

TEST(AnalysisGolden, HF001UnknownOperandName) {
  const AnalysisResult r = lint(
      "REAL A(8)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "A(1:8) = B(1:8)\n");
  const Diagnostic* d = first_with_code(r, "HF001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 3);
}

TEST(AnalysisGolden, HF002ShapeMismatch) {
  const AnalysisResult r = lint(
      "REAL A(8)\n"
      "REAL B(16)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ DISTRIBUTE B(BLOCK)\n"
      "A(1:4) = B(1:8)\n");
  const Diagnostic* d = first_with_code(r, "HF002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 5);
}

// --- mapping legality (HL) ---------------------------------------------------

TEST(AnalysisGolden, HL001SelfAlignmentCycle) {
  const AnalysisResult r = lint(
      "REAL A(8)\n"
      "!HPF$ ALIGN A(I) WITH A(I)\n");
  const Diagnostic* d = first_with_code(r, "HL001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 2);
}

TEST(AnalysisGolden, HL002AlignOntoSecondary) {
  const AnalysisResult r = lint(
      "REAL A(8)\n"
      "REAL B(8)\n"
      "REAL C(8)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ ALIGN B(I) WITH A(I)\n"
      "!HPF$ ALIGN C(I) WITH B(I)\n");
  const Diagnostic* d = first_with_code(r, "HL002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 6);
  EXPECT_NE(d->note.find("'A'"), std::string::npos)
      << "the note should name the primary to align to instead: " << d->note;
}

TEST(AnalysisGolden, HL002RealignOntoOwnSecondaryIsLegal) {
  // REALIGN A WITH B where B is aligned to A orphans A's tree first
  // (§5.2), so B is a primary by the time the edge is re-made.
  const AnalysisResult r = lint(
      "REAL A(8)\n"
      "REAL B(8)\n"
      "!HPF$ DYNAMIC A\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ ALIGN B(I) WITH A(I)\n"
      "!HPF$ REALIGN A(I) WITH B(I)\n");
  EXPECT_EQ(with_code(r, "HL002").size(), 0u);
  EXPECT_EQ(r.errors(), 0);
}

TEST(AnalysisGolden, HL003RedistributeWithoutDynamic) {
  const AnalysisResult r = lint(
      "REAL A(8)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ REDISTRIBUTE A(CYCLIC)\n");
  const Diagnostic* d = first_with_code(r, "HL003");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 3);
}

TEST(AnalysisGolden, HL003TemplateRejected) {
  const AnalysisResult r = lint("!HPF$ TEMPLATE T(100)\n");
  ASSERT_NE(first_with_code(r, "HL003"), nullptr);
}

TEST(AnalysisGolden, HL004AlignmentOntoCollapsedDimension) {
  const AnalysisResult r = lint(
      "REAL A(8,8)\n"
      "REAL B(8,8)\n"
      "!HPF$ DISTRIBUTE B(BLOCK,:)\n"
      "!HPF$ ALIGN A(I,J) WITH B(I,J)\n");
  const Diagnostic* d = first_with_code(r, "HL004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 4);
  EXPECT_NE(d->message.find("dimension 2"), std::string::npos) << d->message;
}

TEST(AnalysisGolden, HL005RedistributeOfSecondary) {
  const AnalysisResult r = lint(
      "REAL A(8)\n"
      "REAL B(8)\n"
      "!HPF$ DYNAMIC B\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ ALIGN B(I) WITH A(I)\n"
      "!HPF$ REDISTRIBUTE B(CYCLIC)\n");
  const Diagnostic* d = first_with_code(r, "HL005");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 6);
}

TEST(AnalysisGolden, HL006RedistributeToIdenticalMapping) {
  const AnalysisResult r = lint(
      "REAL A(64)\n"
      "!HPF$ DYNAMIC A\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ REDISTRIBUTE A(BLOCK)\n");
  const Diagnostic* d = first_with_code(r, "HL006");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 4);
}

// --- shadow sufficiency (HS) -------------------------------------------------

TEST(AnalysisGolden, HS001UnderDeclaredShadowWithMinimalFixit) {
  const AnalysisResult r = lint(read_example("bad_undershadow.hpf"));
  const auto warnings = with_code(r, "HS001");
  ASSERT_EQ(warnings.size(), 2u);  // U(i-1) and U(i+1)
  for (const Diagnostic* d : warnings) {
    EXPECT_EQ(d->severity, Severity::kWarning);
    EXPECT_NE(d->message.find("exposed-sync"), std::string::npos);
    // The fix-it is the minimal SHADOW covering BOTH leaves at once.
    EXPECT_EQ(d->fixit, "SHADOW U(1:1)");
  }
  EXPECT_NE(warnings[0]->message.find("shift -1 > shadow 0"),
            std::string::npos)
      << warnings[0]->message;
}

TEST(AnalysisGolden, HS001PartialShadowReportsOnlyShortSide) {
  const AnalysisResult r = lint(
      "REAL U(64)\n"
      "REAL V(64)\n"
      "!HPF$ DISTRIBUTE U(BLOCK)\n"
      "!HPF$ DISTRIBUTE V(BLOCK)\n"
      "!HPF$ SHADOW V(1:0)\n"
      "U(3:62) = V(1:60) + V(5:64)\n");
  const auto warnings = with_code(r, "HS001");
  ASSERT_EQ(warnings.size(), 2u);
  // left side: shift -2 needs width 2, declared 1; right: 2 > 0.
  EXPECT_NE(warnings[0]->message.find("shift -2 > shadow 1"),
            std::string::npos);
  EXPECT_NE(warnings[1]->message.find("shift 2 > shadow 0"),
            std::string::npos);
  EXPECT_EQ(warnings[0]->fixit, "SHADOW V(2:2)");
}

TEST(AnalysisGolden, NoHS001WhenMappingsDiffer) {
  // SYNC for a structural reason no SHADOW can fix: no HS001, only HC003.
  const AnalysisResult r = lint(
      "REAL A(64)\n"
      "REAL B(64)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ DISTRIBUTE B(CYCLIC)\n"
      "A(2:63) = B(1:62)\n");
  EXPECT_EQ(with_code(r, "HS001").size(), 0u);
  EXPECT_EQ(with_code(r, "HC003").size(), 1u);
}

// --- communication classification (HC) ---------------------------------------

TEST(AnalysisGolden, HC001LocalOperand) {
  const AnalysisResult r = lint(
      "REAL A(64)\n"
      "REAL B(64)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ DISTRIBUTE B(BLOCK)\n"
      "A(1:64) = B(1:64)\n");
  const Diagnostic* d = first_with_code(r, "HC001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  ASSERT_EQ(r.statements.size(), 1u);
  EXPECT_EQ(r.statements[0].operands[0].comm, CommClass::kLocal);
}

TEST(AnalysisGolden, HC002PostedOperand) {
  const AnalysisResult r = lint(
      "REAL U(64)\n"
      "REAL V(64)\n"
      "!HPF$ DISTRIBUTE U(BLOCK)\n"
      "!HPF$ DISTRIBUTE V(BLOCK)\n"
      "!HPF$ SHADOW V(1:1)\n"
      "U(2:63) = V(3:64)\n");
  const Diagnostic* d = first_with_code(r, "HC002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_EQ(d->line, 6);
  EXPECT_GT(d->column, 0);
}

TEST(AnalysisGolden, HC003SyncOperand) {
  const AnalysisResult r = lint(
      "REAL A(64)\n"
      "REAL B(64)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ DISTRIBUTE B(CYCLIC)\n"
      "A(1:64) = B(1:64)\n");
  const Diagnostic* d = first_with_code(r, "HC003");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  ASSERT_EQ(r.statements.size(), 1u);
  EXPECT_EQ(r.statements[0].operands[0].comm, CommClass::kSync);
}

// --- dead directives (HD) ----------------------------------------------------

TEST(AnalysisGolden, HD001ShadowNeverCovered) {
  const AnalysisResult r = lint(
      "REAL A(64)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ SHADOW A(1:1)\n");
  const Diagnostic* d = first_with_code(r, "HD001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 3);  // points at the SHADOW directive
}

TEST(AnalysisGolden, HD002NeverDistributed) {
  const AnalysisResult r = lint("REAL A(64)\n");
  const Diagnostic* d = first_with_code(r, "HD002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_EQ(d->line, 1);
}

TEST(AnalysisGolden, HD002NotReportedForScalars) {
  const AnalysisResult r = lint("N = 4\nREAL S\n");
  EXPECT_EQ(with_code(r, "HD002").size(), 0u);
}

TEST(AnalysisGolden, HD003DynamicNeverRemapped) {
  const AnalysisResult r = lint(
      "REAL A(64)\n"
      "!HPF$ DYNAMIC A\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n");
  const Diagnostic* d = first_with_code(r, "HD003");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 2);  // points at the DYNAMIC directive
}

// --- procedures (HP) ---------------------------------------------------------

TEST(AnalysisGolden, HP001UnknownSubroutine) {
  const AnalysisResult r = lint(
      "REAL A(8)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "CALL MYSTERY(A)\n");
  const Diagnostic* d = first_with_code(r, "HP001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 3);
}

TEST(AnalysisGolden, HP002CallArityMismatch) {
  const AnalysisResult r = lint(
      "REAL A(8)\n"
      "REAL B(8)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ DISTRIBUTE B(BLOCK)\n"
      "CALL S(A, B)\n"
      "SUBROUTINE S(X)\n"
      "REAL X(8)\n"
      "END\n");
  const Diagnostic* d = first_with_code(r, "HP002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 5);
}

// --- analysis keeps going past errors ----------------------------------------

TEST(AnalysisGolden, AnalysisContinuesAfterAnError) {
  const AnalysisResult r = lint(
      "REAL A(64)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ REDISTRIBUTE A(CYCLIC)\n"  // HL003: not DYNAMIC
      "A(1:64) = NOPE(1:64)\n"          // HF001: unknown name
      "A(1:64) = A(1:64) + 1\n");       // still classified
  EXPECT_NE(first_with_code(r, "HL003"), nullptr);
  EXPECT_NE(first_with_code(r, "HF001"), nullptr);
  ASSERT_EQ(r.statements.size(), 1u);
  EXPECT_EQ(r.statements[0].operands[0].comm, CommClass::kLocal);
}

// --- diagnostic rendering ----------------------------------------------------

TEST(AnalysisRendering, HumanFormatCarriesLocationAndCode) {
  Diagnostic d;
  d.code = "HS001";
  d.severity = Severity::kWarning;
  d.message = "shift 2 > shadow 1";
  d.line = 4;
  d.column = 7;
  d.fixit = "SHADOW B(2:2)";
  const std::string s = to_string(d);
  EXPECT_NE(s.find("4:7:"), std::string::npos);
  EXPECT_NE(s.find("warning"), std::string::npos);
  EXPECT_NE(s.find("[HS001]"), std::string::npos);
  EXPECT_NE(s.find("fix-it: SHADOW B(2:2)"), std::string::npos);
}

TEST(AnalysisRendering, JsonLineEscapesAndOmitsEmptyKeys) {
  Diagnostic d;
  d.code = "HF001";
  d.severity = Severity::kError;
  d.message = "unknown name \"B\"\n";
  d.line = 3;
  const std::string json = to_json_line(d);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must be one line";
  EXPECT_NE(json.find("\\\"B\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"HF001\""), std::string::npos);
  EXPECT_EQ(json.find("\"fixit\""), std::string::npos);
  EXPECT_EQ(json.find("\"note\""), std::string::npos);
}

// --- the acceptance differential ---------------------------------------------

TEST(AnalysisDifferential, UnderShadowJacobiFlagsAndFixitPostsExactly) {
  const std::string broken = read_example("bad_undershadow.hpf");

  // 1. The analyzer flags the under-declared SHADOW as exposed-sync and
  //    suggests the minimal widths.
  ProcessorSpace ps(32);
  const AnalysisResult before = analysis::analyze_script(ps, broken);
  const auto warnings = with_code(before, "HS001");
  ASSERT_EQ(warnings.size(), 2u);
  const std::string fixit = warnings[0]->fixit;
  ASSERT_EQ(fixit, "SHADOW U(1:1)");
  ASSERT_EQ(before.statements.size(), 2u);
  EXPECT_EQ(before.statements[0].operands[0].comm, CommClass::kPosted);
  EXPECT_EQ(before.statements[0].operands[1].comm, CommClass::kPosted);
  EXPECT_EQ(before.statements[1].operands[0].comm, CommClass::kSync);
  EXPECT_EQ(before.statements[1].operands[1].comm, CommClass::kSync);

  // 2. Executing the broken script matches the static verdict: the U sweep
  //    posts, the V sweep is exposed-sync, and the recorded plans' phase
  //    bits agree leaf for leaf.
  expect_classification_matches_execution(broken);
  {
    ExecSession session;
    session.in.run(broken);
    const auto& assigns = session.in.assigns();
    ASSERT_EQ(assigns.size(), 2u);
    EXPECT_GT(assigns[0].result.step.hidden_comm_us, 0.0);
    // The V sweep is exposed-sync exactly as the analyzer promised: its
    // remote reads are real but NONE ride in the posted (hidden) phase —
    // sync transfers charge blocking time, not exposed/hidden overlap.
    EXPECT_GT(assigns[1].result.step.element_transfers, 0);
    EXPECT_EQ(assigns[1].result.step.hidden_comm_us, 0.0);
    EXPECT_EQ(assigns[1].result.step.exposed_comm_us, 0.0);
    // Phase bits inside the recorded plans partition exactly as classified:
    // the posted sweep's plan carries only posted transfers, the sync
    // sweep's only unposted ones.
    Extent posted_transfers = 0, sync_transfers = 0;
    session.state.plans().for_each(
        [&](const std::string&, const CommPlan& plan) {
          for (const PairFlow& f : plan.flows) {
            (f.posted ? posted_transfers : sync_transfers) += 1;
          }
        });
    EXPECT_GT(posted_transfers, 0);
    EXPECT_GT(sync_transfers, 0);
  }

  // 3. Apply the suggested SHADOW (after the existing directives, where a
  //    declaration for U is in scope): the analyzer now classifies
  //    everything POSTED with zero warnings, and execution posts every
  //    transfer.
  const std::string anchor = "!HPF$ SHADOW V(1:1)\n";
  const std::size_t at = broken.find(anchor);
  ASSERT_NE(at, std::string::npos);
  std::string fixed = broken;
  fixed.insert(at + anchor.size(), "!HPF$ " + fixit + "\n");
  const AnalysisResult after = analysis::analyze_script(ps, fixed);
  EXPECT_EQ(after.errors(), 0);
  EXPECT_EQ(after.warnings(), 0);
  ASSERT_EQ(after.statements.size(), 2u);
  for (const analysis::StatementComm& s : after.statements) {
    for (const analysis::OperandComm& op : s.operands) {
      EXPECT_EQ(op.comm, CommClass::kPosted) << op.rendered;
    }
  }

  expect_classification_matches_execution(fixed);
  {
    ExecSession session;
    session.in.run(fixed);
    const auto& assigns = session.in.assigns();
    ASSERT_EQ(assigns.size(), 2u);
    EXPECT_GT(assigns[1].result.step.hidden_comm_us, 0.0)
        << "the suggested SHADOW must turn the sweep split-phase";
    Extent posted_transfers = 0, sync_transfers = 0;
    session.state.plans().for_each(
        [&](const std::string&, const CommPlan& plan) {
          for (const PairFlow& f : plan.flows) {
            (f.posted ? posted_transfers : sync_transfers) += 1;
          }
        });
    EXPECT_GT(posted_transfers, 0);
    EXPECT_EQ(sync_transfers, 0)
        << "every remote transfer of the fixed script must be posted";
  }
}

TEST(AnalysisDifferential, CleanExamplesMatchExecution) {
  expect_classification_matches_execution(read_example("jacobi.hpf"));
  expect_classification_matches_execution(read_example("alignment.hpf"));
}

TEST(AnalysisDifferential, MixedClassificationsMatchExecution) {
  // Local, posted, sync, broadcast and collapsed-dimension shifts in one
  // program — every leaf's static class must equal its executed phase bit.
  expect_classification_matches_execution(
      "REAL A(64)\n"
      "REAL B(64)\n"
      "REAL C(64)\n"
      "!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ DISTRIBUTE B(BLOCK)\n"
      "!HPF$ DISTRIBUTE C(CYCLIC)\n"
      "!HPF$ SHADOW B(1:1)\n"
      "A(1:64) = B(1:64)\n"          // local
      "A(2:63) = B(1:62) + B(3:64)\n"  // posted + posted
      "A(1:64) = C(1:64)\n"          // sync (mapping mismatch)\n"
      "B(2:63) = A(1:62)\n"          // sync (A has no shadow)\n"
      "A(1:64) = 7\n");              // no operands at all
}

TEST(AnalysisDifferential, TwoDimensionalCollapsedShiftMatchesExecution) {
  expect_classification_matches_execution(
      "REAL P(16,16)\n"
      "REAL Q(16,16)\n"
      "!HPF$ DISTRIBUTE P(BLOCK,:)\n"
      "!HPF$ DISTRIBUTE Q(BLOCK,:)\n"
      "!HPF$ SHADOW Q(1:1, 0:0)\n"
      "P(2:15, 2:15) = Q(1:14, 2:15) + Q(3:16, 2:15)\n"  // posted (dim 1)
      "P(2:15, 2:15) = Q(2:15, 1:14)\n");  // shift along collapsed dim only
}

}  // namespace
}  // namespace hpfnt
