// hpfcost (src/analysis/cost_model.*): the differential-exact acceptance
// suite. For every statement of every example script, the static
// prediction must be BYTE-EXACT against execution — StepStats doubles
// included — because prediction and execution share one charge walk
// (exec/pricing.hpp), one phase predicate (exec/overlap.hpp), one pricing
// arithmetic (machine/step_pricer.hpp), and one plan-key builder
// (exec/comm_plan.hpp). These tests pin:
//
//   * per-statement StepStats equality (all fields, exact doubles) against
//     the interpreter's executed step sequence;
//   * per-statement local reads and per-operand posted bits against the
//     executed assignments;
//   * per-pair traffic against the recorded CommPlan's transfers, looked
//     up in the executor's PlanCache BY THE PREDICTED KEY — which also
//     proves the predicted keys are the executor's keys;
//   * predicted plan reuse == the PlanCache's observed hits and misses;
//   * whole-program totals == the comm engine's cumulative counters;
//   * the HS001 --fix pipeline on bad_undershadow.hpf: the fixed script
//     is HS001-free, its predictions go posted, prediction stays exact
//     pre- and post-fix, and fixing is idempotent.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "analysis/cost_model.hpp"
#include "analysis/fixit.hpp"
#include "directives/interp.hpp"
#include "exec/comm_plan.hpp"

namespace hpfnt {
namespace {

using analysis::CostReport;
using analysis::StatementCost;

const char* const kExampleScripts[] = {
    "alignment.hpf",
    "bad_undershadow.hpf",
    "jacobi.hpf",
    "remap_loop.hpf",
};

std::string read_example(const std::string& name) {
  const std::string path =
      std::string(HPFNT_SOURCE_DIR) + "/examples/scripts/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct ExecSession {
  ExecSession() : machine(32), ps(32), state(machine), in(ps) {
    in.set_state(&state);
  }
  Machine machine;
  ProcessorSpace ps;
  ProgramState state;
  dir::Interpreter in;
};

void expect_stats_equal(const StepStats& predicted, const StepStats& executed,
                        const std::string& where) {
  EXPECT_EQ(predicted.label, executed.label) << where;
  EXPECT_EQ(predicted.messages, executed.messages) << where;
  EXPECT_EQ(predicted.bytes, executed.bytes) << where;
  EXPECT_EQ(predicted.element_transfers, executed.element_transfers) << where;
  EXPECT_EQ(predicted.flops, executed.flops) << where;
  // Exact, not approximate: both sides run StepPricer::price over charges
  // accumulated in the same deterministic order.
  EXPECT_EQ(predicted.time_us, executed.time_us) << where;
  EXPECT_EQ(predicted.exposed_comm_us, executed.exposed_comm_us) << where;
  EXPECT_EQ(predicted.hidden_comm_us, executed.hidden_comm_us) << where;
}

/// The acceptance differential over one script: predict statically, then
/// execute, then compare everything there is to compare.
void expect_prediction_matches_execution(const std::string& script,
                                         const std::string& name) {
  Machine machine(32);
  const CostReport report = analysis::cost_script(machine, script);
  ASSERT_EQ(report.errors(), 0) << name;
  ASSERT_EQ(report.unmodeled, 0) << name << ": corpus must be CALL-free";

  ExecSession session;
  session.in.run(script);

  // 1:1 with the executed step sequence, in order, all fields exact.
  const std::vector<StepStats>& steps = session.in.steps();
  ASSERT_EQ(report.statements.size(), steps.size()) << name;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    expect_stats_equal(report.statements[i].stats, steps[i],
                       name + " statement " + std::to_string(i));
  }

  // Per-assignment: local reads and the per-operand phase bits.
  const std::vector<dir::AssignExec>& assigns = session.in.assigns();
  std::vector<const StatementCost*> predicted_assigns;
  for (const StatementCost& s : report.statements) {
    if (s.kind == StatementCost::Kind::kAssign) {
      predicted_assigns.push_back(&s);
    }
  }
  ASSERT_EQ(predicted_assigns.size(), assigns.size()) << name;
  for (std::size_t i = 0; i < assigns.size(); ++i) {
    EXPECT_EQ(predicted_assigns[i]->local_reads,
              assigns[i].result.local_reads)
        << name << " assign " << i;
    EXPECT_EQ(predicted_assigns[i]->posted_leaves,
              assigns[i].result.posted_leaves)
        << name << " assign " << i;
  }

  // Predicted plan reuse IS the cache's observed behavior: every cold
  // price is a miss, every repeat of a predicted key is a hit.
  const PlanCache& plans = session.state.plans();
  EXPECT_EQ(report.plans_priced, plans.misses()) << name;
  EXPECT_EQ(report.plan_replays, plans.hits()) << name;
  EXPECT_EQ(plans.evictions(), 0) << name;

  // The predicted keys are the executor's keys: each one must hit a
  // cached plan whose sealed stats and per-pair traffic equal the
  // prediction (label aside — a shared plan keeps its first label, while
  // both sides relabel per statement).
  std::map<std::string, const CommPlan*> cached;
  plans.for_each([&](const std::string& key, const CommPlan& plan) {
    cached[key] = &plan;
  });
  EXPECT_EQ(cached.size(), static_cast<std::size_t>(report.plans_priced))
      << name;
  for (std::size_t i = 0; i < report.statements.size(); ++i) {
    const StatementCost& stmt = report.statements[i];
    auto it = cached.find(stmt.plan_key);
    ASSERT_NE(it, cached.end())
        << name << " statement " << i << ": predicted key not in PlanCache";
    const CommPlan& plan = *it->second;
    StepStats relabelled = plan.stats;
    relabelled.label = stmt.stats.label;
    expect_stats_equal(stmt.stats, relabelled,
                       name + " cached plan of statement " +
                           std::to_string(i));
    EXPECT_EQ(stmt.local_reads, plan.local_reads)
        << name << " statement " << i;
    // Direct equality: both are StepPricer::traffic() of the same charges.
    EXPECT_EQ(stmt.traffic, plan.flows)
        << name << " statement " << i << ": per-pair traffic";
  }

  // Replay pointers are internally consistent: a replayed statement's key
  // id names the statement that priced the plan.
  for (std::size_t i = 0; i < report.statements.size(); ++i) {
    const StatementCost& stmt = report.statements[i];
    if (stmt.replay_of < 0) continue;
    const StatementCost& first =
        report.statements[static_cast<std::size_t>(stmt.replay_of)];
    EXPECT_EQ(first.plan_key, stmt.plan_key) << name;
    EXPECT_EQ(first.key_id, stmt.key_id) << name;
    EXPECT_EQ(first.replay_of, -1) << name;
  }

  // Whole-program totals == the engine's cumulative counters, exactly
  // (the totals accumulate the same doubles in the same order).
  const CommEngine& comm = session.state.comm();
  EXPECT_EQ(report.totals.messages, comm.total_messages()) << name;
  EXPECT_EQ(report.totals.bytes, comm.total_bytes()) << name;
  EXPECT_EQ(report.totals.element_transfers, comm.total_transfers()) << name;
  EXPECT_EQ(report.totals.local_reads, comm.local_reads()) << name;
  EXPECT_EQ(report.totals.time_us, comm.total_time_us()) << name;
  EXPECT_EQ(report.totals.exposed_comm_us, comm.total_exposed_comm_us())
      << name;
  EXPECT_EQ(report.totals.hidden_comm_us, comm.total_hidden_comm_us())
      << name;
}

int count_code(const CostReport& report, const std::string& code) {
  int n = 0;
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.code == code) ++n;
  }
  return n;
}

// --- the acceptance criterion: byte-exact over the whole corpus ----------

TEST(CostModelDifferential, EveryExampleScriptPredictsExecutionExactly) {
  for (const char* name : kExampleScripts) {
    expect_prediction_matches_execution(read_example(name), name);
  }
}

TEST(CostModelDifferential, OverlapOffMatchesExecutionWithOverlapOff) {
  // The baseline oracle: with overlap disabled both sides price every
  // operand synchronously, and the equality must hold just the same.
  for (const char* name : {"jacobi.hpf", "bad_undershadow.hpf"}) {
    const std::string script = read_example(name);
    Machine machine(32);
    analysis::CostOptions options;
    options.overlap = false;
    const CostReport report =
        analysis::cost_script(machine, script, options);
    ASSERT_EQ(report.errors(), 0);

    ExecSession session;
    session.state.comm().set_overlap_enabled(false);
    session.in.run(script);
    const std::vector<StepStats>& steps = session.in.steps();
    ASSERT_EQ(report.statements.size(), steps.size());
    for (std::size_t i = 0; i < steps.size(); ++i) {
      expect_stats_equal(report.statements[i].stats, steps[i],
                         std::string(name) + " overlap-off statement " +
                             std::to_string(i));
      EXPECT_EQ(report.statements[i].stats.hidden_comm_us, 0.0);
    }
  }
}

// --- the cache-off oracle -------------------------------------------------
//
// hpfcost prices each plan key once: a repeated key copies the numbers of
// the first statement with that key, exactly as the executor replays its
// cached plan. The differential above runs the executor WITH its plan
// cache, so a wrong copy and a wrong replay could agree. Here the executor
// runs with the L1 plan cache switched off and no PlanService: every step
// is priced cold, and every predicted statement — repeats included — must
// equal its own cold step.

/// Repeat-heavy over an identity ALIGN: W follows U through two
/// REDISTRIBUTEs (each emits one remap per array, under one key), the
/// U <-> W sweeps repeat one key per mapping of U, and V reads a column of
/// U and of W under one key.
const char* const kAlignedRepeats =
    "REAL U(48,48)\n"
    "REAL W(48,48)\n"
    "REAL V(48)\n"
    "!HPF$ DYNAMIC U\n"
    "!HPF$ DISTRIBUTE U(BLOCK,BLOCK)\n"
    "!HPF$ ALIGN W(I,J) WITH U(I,J)\n"
    "!HPF$ SHADOW U(1:1,1:1)\n"
    "!HPF$ DISTRIBUTE V(CYCLIC(3))\n"
    "W(2:47,2:47) = (U(1:46,2:47) + U(3:48,2:47) + U(2:47,1:46) + "
    "U(2:47,3:48)) / 4\n"
    "U(2:47,2:47) = (W(1:46,2:47) + W(3:48,2:47) + W(2:47,1:46) + "
    "W(2:47,3:48)) / 4\n"
    "W(2:47,2:47) = (U(1:46,2:47) + U(3:48,2:47) + U(2:47,1:46) + "
    "U(2:47,3:48)) / 4\n"
    "V(1:48) = U(1:48,5) + 1\n"
    "V(1:48) = W(1:48,5) + 1\n"
    "!HPF$ REDISTRIBUTE U(CYCLIC(4),BLOCK)\n"
    "W(2:47,2:47) = (U(1:46,2:47) + U(3:48,2:47) + U(2:47,1:46) + "
    "U(2:47,3:48)) / 4\n"
    "U(2:47,2:47) = (W(1:46,2:47) + W(3:48,2:47) + W(2:47,1:46) + "
    "W(2:47,3:48)) / 4\n"
    "V(1:48) = W(1:48,5) + 1\n"
    "!HPF$ REDISTRIBUTE U(BLOCK,BLOCK)\n"
    "U(2:47,2:47) = (W(1:46,2:47) + W(3:48,2:47) + W(2:47,1:46) + "
    "W(2:47,3:48)) / 4\n"
    "V(1:48) = U(1:48,5) + 1\n"
    "!HPF$ REDISTRIBUTE U(CYCLIC(4),BLOCK)\n"
    "V(1:48) = U(1:48,5) + 1\n";

/// The script's lines, each with its newline. The interpreter accepts a
/// script in pieces, so the oracle feeds one line at a time and sees each
/// line's steps alone.
std::vector<std::string> script_lines(const std::string& script) {
  std::vector<std::string> lines;
  std::istringstream in(script);
  for (std::string line; std::getline(in, line);) lines.push_back(line + "\n");
  return lines;
}

void expect_prediction_matches_cold_execution(const std::string& script,
                                              const std::string& name) {
  Machine machine(32);
  const CostReport report = analysis::cost_script(machine, script);
  ASSERT_EQ(report.errors(), 0) << name;
  ASSERT_EQ(report.unmodeled, 0) << name << ": corpus must be CALL-free";

  // Every step priced cold: no L1 plan cache, and no PlanService attached.
  ExecSession cold;
  cold.state.plans().set_enabled(false);
  // The per-pair flows of each line's steps come from a second session
  // whose L1 cache is emptied before every line: each line's plans are
  // recorded cold, in that line. (Steps of one line that share a key — a
  // REDISTRIBUTE and its identity-aligned follower — share one recording.)
  ExecSession flows;

  std::size_t next = 0;  // the next predicted statement
  std::size_t next_assign = 0;
  for (const std::string& line : script_lines(script)) {
    const std::size_t first_step = cold.in.steps().size();
    const Extent reads_before = cold.state.comm().local_reads();
    cold.in.run(line);
    flows.state.plans().clear();
    flows.in.run(line);
    std::map<std::string, const CommPlan*> recorded;
    flows.state.plans().for_each(
        [&](const std::string& key, const CommPlan& plan) {
          recorded[key] = &plan;
        });

    Extent predicted_reads = 0;
    for (std::size_t i = first_step; i < cold.in.steps().size(); ++i) {
      ASSERT_LT(next, report.statements.size()) << name << ": " << line;
      const StatementCost& stmt = report.statements[next];
      const std::string where = name + " statement " + std::to_string(next) +
                                (stmt.replay_of >= 0 ? " (repeat)" : "");
      expect_stats_equal(stmt.stats, cold.in.steps()[i], where);
      auto it = recorded.find(stmt.plan_key);
      ASSERT_NE(it, recorded.end()) << where << ": no plan recorded";
      EXPECT_EQ(stmt.traffic, it->second->flows) << where;
      EXPECT_EQ(stmt.local_reads, it->second->local_reads) << where;
      if (stmt.kind == StatementCost::Kind::kAssign) {
        ASSERT_LT(next_assign, cold.in.assigns().size()) << where;
        EXPECT_EQ(stmt.local_reads,
                  cold.in.assigns()[next_assign++].result.local_reads)
            << where;
      }
      predicted_reads += stmt.local_reads;
      ++next;
    }
    EXPECT_EQ(cold.state.comm().local_reads() - reads_before, predicted_reads)
        << name << ": " << line;
  }
  EXPECT_EQ(next, report.statements.size()) << name;
  EXPECT_EQ(next_assign, cold.in.assigns().size()) << name;
  // The cold session never consulted a plan cache.
  EXPECT_EQ(cold.state.plans().hits(), 0) << name;
  EXPECT_EQ(cold.state.plans().misses(), 0) << name;
}

TEST(CostModelColdOracle, RepeatedKeysPriceAsTheirOwnColdSteps) {
  for (const char* name : kExampleScripts) {
    expect_prediction_matches_cold_execution(read_example(name), name);
  }
  expect_prediction_matches_cold_execution(kAlignedRepeats, "aligned repeats");
}

TEST(CostModelColdOracle, AlignedRepeatsScriptRepeatsMostKeys) {
  Machine machine(32);
  const CostReport report = analysis::cost_script(machine, kAlignedRepeats);
  ASSERT_EQ(report.errors(), 0);
  // 11 assignments + 3 REDISTRIBUTEs of two arrays each; the sweeps take
  // one key per mapping of U (W keys as U), the column reads one key per
  // mapping, and each remap direction one key for both arrays.
  EXPECT_EQ(report.statements.size(), 17u);
  EXPECT_EQ(report.plans_priced, 6);
  EXPECT_EQ(report.plan_replays, 11);
}

// --- plan-reuse analysis --------------------------------------------------

TEST(CostModelPlanReuse, RemapLoopSharesFourPlansAcrossNineStatements) {
  Machine machine(32);
  const CostReport report =
      analysis::cost_script(machine, read_example("remap_loop.hpf"));
  ASSERT_EQ(report.errors(), 0);
  // 5 assignments + 4 remaps; two assignment layouts and two remap
  // directions -> 4 distinct plans, 5 predicted replays.
  ASSERT_EQ(report.statements.size(), 9u);
  EXPECT_EQ(report.plans_priced, 4);
  EXPECT_EQ(report.plan_replays, 5);
  EXPECT_EQ(count_code(report, "HX002"), 5);
}

TEST(CostModelPlanReuse, AlignedJacobiSharesOnePlanBetweenSweeps) {
  // The ALIGN-ed flip-flop of jacobi.hpf: both sweeps key identically
  // (content signatures are address-free), so the second statement is a
  // predicted replay of the first.
  Machine machine(32);
  const CostReport report =
      analysis::cost_script(machine, read_example("jacobi.hpf"));
  ASSERT_EQ(report.errors(), 0);
  ASSERT_EQ(report.statements.size(), 2u);
  EXPECT_EQ(report.plans_priced, 1);
  EXPECT_EQ(report.plan_replays, 1);
  EXPECT_EQ(report.statements[1].replay_of, 0);
}

// --- HX diagnostics -------------------------------------------------------

TEST(CostModelDiagnostics, QuantifiedTrafficNotesNameTheHeaviestPair) {
  Machine machine(32);
  const CostReport report =
      analysis::cost_script(machine, read_example("jacobi.hpf"));
  const int hx001 = count_code(report, "HX001");
  EXPECT_EQ(hx001, 2);  // both sweeps move halo bytes
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.code != "HX001") continue;
    EXPECT_EQ(d.severity, analysis::Severity::kNote);
    EXPECT_NE(d.message.find("predicted"), std::string::npos);
    EXPECT_NE(d.note.find("heaviest pair"), std::string::npos);
  }
}

TEST(CostModelDiagnostics, ParseFailureYieldsHF000) {
  Machine machine(32);
  const CostReport report =
      analysis::cost_script(machine, "!HPF$ DISTRIBUTE ((");
  EXPECT_EQ(count_code(report, "HF000"), 1);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(report.statements.empty());
}

// The HF/HL errors of a report: what the shared static walk decides.
std::vector<analysis::Diagnostic> bind_errors(
    const std::vector<analysis::Diagnostic>& diagnostics) {
  std::vector<analysis::Diagnostic> out;
  for (const analysis::Diagnostic& d : diagnostics) {
    if (d.severity == analysis::Severity::kError &&
        (d.code.rfind("HF", 0) == 0 || d.code.rfind("HL", 0) == 0)) {
      out.push_back(d);
    }
  }
  return out;
}

// Lint and hpfcost bind through one walk and one assignment gate, so a bad
// script gets the same errors from both — code, line, column and message —
// and execution fails at the line of the first.
TEST(CostModelDiagnostics, BindErrorsMatchTheLinter) {
  struct Case {
    const char* name;
    const char* source;
  };
  const Case cases[] = {
      {"nonconforming rhs",
       "REAL A(10)\nREAL B(10)\n!HPF$ DISTRIBUTE A(BLOCK)\n"
       "!HPF$ DISTRIBUTE B(BLOCK)\nA(1:10) = B(1:5)\n"},
      {"out-of-bounds lhs",
       "REAL A(10)\n!HPF$ DISTRIBUTE A(BLOCK)\nA(1:11) = 1\n"},
      {"out-of-bounds rhs",
       "REAL A(10)\nREAL B(10)\n!HPF$ DISTRIBUTE A(BLOCK)\n"
       "A(1:10) = B(0:9)\n"},
      {"zero stride", "REAL A(10)\nA(10:1:-1) = A(1:10:0)\n"},
      {"unknown array",
       "REAL A(8)\n!HPF$ DISTRIBUTE A(BLOCK)\nA(1:8) = B(1:8)\n"},
      {"bad distribute", "REAL A(8,8)\n!HPF$ DISTRIBUTE A(BLOCK)\n"},
      {"wide triplet",
       "REAL A(-9223372036854775807:9223372036854775807)\n"
       "!HPF$ DISTRIBUTE A(BLOCK)\nA(1:10) = A(2:11)\n"},
      {"parse error", "REAL A(10)\n!HPF$ DISTRIBUTE ((\n"},
  };
  for (const Case& c : cases) {
    ProcessorSpace ps(32);
    const std::vector<analysis::Diagnostic> lint =
        bind_errors(analysis::analyze_script(ps, c.source).diagnostics);
    Machine machine(32);
    const std::vector<analysis::Diagnostic> cost =
        bind_errors(analysis::cost_script(machine, c.source).diagnostics);
    ASSERT_FALSE(lint.empty()) << c.name;
    ASSERT_EQ(lint.size(), cost.size()) << c.name;
    for (std::size_t i = 0; i < lint.size(); ++i) {
      EXPECT_EQ(lint[i].code, cost[i].code) << c.name;
      EXPECT_EQ(lint[i].line, cost[i].line) << c.name;
      EXPECT_EQ(lint[i].column, cost[i].column) << c.name;
      EXPECT_EQ(lint[i].message, cost[i].message) << c.name;
      EXPECT_GT(lint[i].column, 0) << c.name << ": " << lint[i].message;
    }

    ExecSession session;
    try {
      session.in.run(c.source);
      ADD_FAILURE() << c.name << ": executed without an error";
    } catch (const DirectiveError& e) {
      EXPECT_EQ(e.line(), lint.front().line) << c.name;
    } catch (const LocatedError& e) {
      EXPECT_EQ(e.line(), lint.front().line) << c.name;
    }
  }
}

// The assignment gate names both shapes, in every mode.
TEST(CostModelDiagnostics, NonconformingRhsNamesBothShapes) {
  const char* source =
      "REAL A(10)\nREAL B(10)\n!HPF$ DISTRIBUTE A(BLOCK)\n"
      "!HPF$ DISTRIBUTE B(BLOCK)\nA(1:10) = B(1:5)\n";
  const std::string text =
      "right-hand side of shape (5) does not conform with target section "
      "A(1:10) of shape (10)";
  Machine machine(32);
  const std::vector<analysis::Diagnostic> cost =
      bind_errors(analysis::cost_script(machine, source).diagnostics);
  ASSERT_EQ(cost.size(), 1u);
  EXPECT_EQ(cost[0].code, "HF002");
  EXPECT_EQ(cost[0].message, text);
  ExecSession session;
  try {
    session.in.run(source);
    ADD_FAILURE() << "executed without an error";
  } catch (const ConformanceError& e) {
    EXPECT_EQ(e.message(), text);
    EXPECT_EQ(e.line(), 5);
  }
}

// --- the --fix pipeline ---------------------------------------------------

TEST(CostModelFixit, UndershadowFixPostsTheSyncTransfers) {
  const std::string before = read_example("bad_undershadow.hpf");

  ProcessorSpace ps(32);
  const analysis::FixPlan plan = analysis::plan_shadow_fixes(ps, before);
  ASSERT_EQ(plan.fixes.size(), 1u);
  EXPECT_EQ(plan.fixes[0].array, "U");
  EXPECT_EQ(plan.fixes[0].directive, "!HPF$ SHADOW U(1:1)");
  EXPECT_EQ(plan.fixes[0].replace_line, 0);  // U declares no SHADOW yet

  const std::string after = analysis::apply_fixes(before, plan);
  ASSERT_NE(after, before);

  // The fixed script is HS001-free and still clean of errors.
  ProcessorSpace ps2(32);
  const analysis::AnalysisResult lint = analysis::analyze_script(ps2, after);
  EXPECT_EQ(lint.errors(), 0);
  for (const analysis::Diagnostic& d : lint.diagnostics) {
    EXPECT_NE(d.code, "HS001") << d.message;
  }

  // Idempotent: a second plan over the fixed source is empty.
  ProcessorSpace ps3(32);
  const analysis::FixPlan again = analysis::plan_shadow_fixes(ps3, after);
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(analysis::apply_fixes(after, again), after);

  // The fix moved the second sweep's stencil reads from sync to posted —
  // visible statically as hidden communication appearing.
  Machine machine(32);
  const CostReport pre = analysis::cost_script(machine, before);
  const CostReport post = analysis::cost_script(machine, after);
  ASSERT_EQ(pre.statements.size(), 2u);
  ASSERT_EQ(post.statements.size(), 2u);
  EXPECT_EQ(pre.statements[1].phases.posted_bytes, 0);
  EXPECT_GT(post.statements[1].phases.posted_bytes, 0);
  EXPECT_LT(post.statements[1].exposed_us(), pre.statements[1].exposed_us());

  // And the acceptance criterion holds on BOTH sides of the fix.
  expect_prediction_matches_execution(before, "bad_undershadow(pre-fix)");
  expect_prediction_matches_execution(after, "bad_undershadow(post-fix)");
}

}  // namespace
}  // namespace hpfnt
