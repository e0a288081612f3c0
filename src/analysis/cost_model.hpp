// hpfcost — the static communication cost model over directive scripts.
//
// The paper's claim that mappings are statically known has a quantitative
// corollary: since ownership is a pure function of the directives, the
// COMPLETE priced communication schedule of every statement — bytes,
// messages, the per-processor-pair traffic matrix, the posted/sync phase
// split, and the max(compute, posted) + sync time bound — is computable
// before a single element exists. This module cashes that in. It is a
// visitor of the static walk the linter uses too (analysis/walk.hpp: one
// parse, one bind, one assignment gate, one set of HF/HL errors) and
// keeps only the HX pricing, which runs the SAME code the executor runs:
//
//   * the schedule   — exec/pricing.hpp::schedule_assign (phase rule
//     classify_operand_comm, plan key assign_plan_key, charge walk) and
//     charge_remap_step (key remap_plan_key), driven with a StepPricer
//     sink instead of a recording CommEngine;
//   * the arithmetic — machine/step_pricer.hpp::StepPricer::price, the
//     function CommEngine::end_step seals StepStats from.
//
// Predictions are therefore differential BY CONSTRUCTION: a predicted
// StepStats is byte-for-byte (doubles included — the pricer walks pairs in
// one deterministic order) the StepStats the interpreter's execution of
// the same script seals, and a predicted plan key is the executor's cache
// key, so predicted plan reuse is the PlanCache's observed hit pattern.
//
// Like the executor, the model prices each plan key once. A statement
// whose key repeats an earlier one (an HX002 statement) runs no charge
// walk and builds no run table: its stats (relabelled to it), phases,
// local reads and traffic are the first statement's with that key — the
// premise the PlanCache replays on (same content key, same plan). Totals
// still add every statement in order, so they stay the engine's exact
// cumulative counters.
//
// tests/test_cost_model.cpp checks all of this, statement for statement,
// over the example corpus: against execution with the plan cache, and
// against execution with it switched off (every step priced cold, repeats
// included).
//
// Diagnostics (hpflint --cost surfaces them; see docs/analysis.md):
//
//   HX001   note   statement's predicted communication, quantified: bytes,
//                  messages, exposed time, and the dominant (src,dst) pair
//   HX002   note   statement's plan key repeats an earlier statement's —
//                  the executor will replay that plan, not re-price it,
//                  and the statement's numbers are that statement's
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/processors.hpp"
#include "directives/ast.hpp"
#include "machine/comm.hpp"
#include "machine/step_pricer.hpp"
#include "machine/topology.hpp"

namespace hpfnt::analysis {

/// One priced statement of the main program, in execution order — aligned
/// 1:1 with the steps the interpreter prices for the same (CALL-free)
/// script, which is how the differential tests index them.
struct StatementCost {
  enum class Kind {
    kAssign,     ///< array-section assignment (one step)
    kRemap,      ///< one RemapEvent of a REDISTRIBUTE/REALIGN (one step)
    kUnmodeled,  ///< CALL — callee effects are not priced statically
  };

  Kind kind = Kind::kAssign;
  int line = 0;
  std::string label;  ///< the step label the executor will use
  std::string text;   ///< human rendering for the report table

  /// The executor's content cache key (raw signature bytes — render
  /// key_id, not this) and its interning: key_id is 1-based in order of
  /// first appearance; replay_of is the index of the first statement with
  /// the same key, or -1 when this statement prices its plan cold. A
  /// statement with replay_of >= 0 copies that statement's stats (under
  /// its own label), phases, local_reads and traffic.
  std::string plan_key;
  int key_id = 0;
  int replay_of = -1;

  StepStats stats;           ///< predicted == executed, byte-exact
  PhaseBreakdown phases;     ///< sync/posted/compute decomposition
  Extent local_reads = 0;    ///< owner-resident reads (no message)
  std::vector<PairFlow> traffic;      ///< per-(src,dst) matrix, both phases
  std::vector<char> posted_leaves;    ///< assign only: per-operand phase

  /// Communication the statement cannot hide: the sync phase plus the
  /// posted excess over compute. The cost report ranks by this.
  double exposed_us() const {
    return phases.sync_us + stats.exposed_comm_us;
  }
};

/// Whole-program totals, accumulated exactly as CommEngine's cumulative
/// counters are (so they equal the engine's totals after execution).
struct CostTotals {
  Extent messages = 0;
  Extent bytes = 0;
  Extent element_transfers = 0;
  Extent flops = 0;
  Extent local_reads = 0;
  double time_us = 0.0;
  double exposed_comm_us = 0.0;
  double hidden_comm_us = 0.0;
};

struct CostReport {
  std::vector<Diagnostic> diagnostics;  ///< HX notes + HF/HL bind errors
  std::vector<StatementCost> statements;
  CostTotals totals;
  Extent plans_priced = 0;  ///< distinct keys == the PlanCache's misses
  Extent plan_replays = 0;  ///< repeated keys == the PlanCache's hits
  Extent unmodeled = 0;     ///< CALL statements skipped

  int errors() const { return count_of(diagnostics, Severity::kError); }
};

struct CostOptions {
  /// Mirrors CommEngine::overlap_enabled: off, every operand prices sync
  /// (the oracle baseline), exactly as the executor with overlap disabled.
  bool overlap = true;
};

/// Prices a parsed program against a machine's cost parameters. Directives
/// are bound (mapping bookkeeping only) so later statements see the
/// mappings earlier directives established; nothing executes. A statement
/// that fails the walk is skipped, with the same HF/HL error
/// analysis/analyzer.hpp reports for it.
CostReport cost_program(const Machine& machine, ProcessorSpace& space,
                        const dir::AstProgram& program,
                        const CostOptions& options = {});

/// Parses and prices a script source; a parse failure yields one HF000
/// diagnostic. Creates its own ProcessorSpace of machine.processors() —
/// plan keys are content signatures (address-free), so the predicted keys
/// match any execution session over the same script and machine size.
CostReport cost_script(const Machine& machine, const std::string& source,
                       const CostOptions& options = {});

}  // namespace hpfnt::analysis
