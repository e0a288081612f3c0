#include "analysis/cost_model.hpp"

#include <map>
#include <utility>

#include "analysis/walk.hpp"
#include "exec/pricing.hpp"
#include "support/strings.hpp"

namespace hpfnt::analysis {

namespace {

using dir::AstNode;
using dir::AstProgram;

/// Adapts the storage-free StepPricer to the Engine concept the shared
/// charge walks (exec/pricing.hpp) expect: the walks signal phases via
/// begin_posted/end_posted (the CommEngine protocol), the pricer takes a
/// flag per charge.
struct PricerSink {
  StepPricer* pricer;
  bool posted = false;

  void begin_posted() { posted = true; }
  void end_posted() { posted = false; }
  void transfer_block(ApId src, ApId dst, Extent elem_bytes, Extent count) {
    pricer->transfer_block(src, dst, elem_bytes, count, posted);
  }
  void count_local_reads(Extent n) { pricer->count_local_reads(n); }
  void compute(ApId p, Extent flops) { pricer->compute(p, flops); }
};

class CostModel : public WalkVisitor {
 public:
  CostModel(const Machine& machine, ProcessorSpace& space,
            const AstProgram& program, const CostOptions& options)
      : machine_(&machine),
        program_(&program),
        options_(options),
        walk_(space) {}

  CostReport run() {
    walk_.run(*program_, *this);
    report_.plans_priced = static_cast<Extent>(key_ids_.size());
    report_.diagnostics = walk_.take_diagnostics();
    return std::move(report_);
  }

 private:
  void unbound(const AstNode& node) override {
    if (node.kind == AstNode::Kind::kStats) return;  // nothing to price
    // CALL bodies and the data- and RNG-dependent fault controls are not
    // priced statically: record the gap rather than under-count silently.
    StatementCost stmt;
    stmt.kind = StatementCost::Kind::kUnmodeled;
    stmt.line = node.line;
    stmt.label = node.kind == AstNode::Kind::kCall
                     ? "CALL " + node.call->procedure
                 : node.kind == AstNode::Kind::kFaults     ? "FAULTS"
                 : node.kind == AstNode::Kind::kCheckpoint ? "CHECKPOINT"
                 : node.kind == AstNode::Kind::kRestore    ? "RESTORE"
                                                           : "FAIL_PROC";
    stmt.text = stmt.label;
    report_.statements.push_back(std::move(stmt));
    ++report_.unmodeled;
  }

  // Each remap event is one priced step in the executor (apply_remaps);
  // specification-part mappings move nothing and price nothing.
  void bound(const AstNode& node,
             const std::vector<RemapEvent>& events) override {
    for (const RemapEvent& e : events) price_remap(node, e);
  }

  // --- pricing, through the shared executor code ---------------------------

  /// Interns the statement's plan key and prices it. The first statement
  /// with a key runs `charge` into a fresh StepPricer and seals the
  /// predicted StepStats from it (the executor's end_step arithmetic). A
  /// repeat runs nothing: same content key, same plan — the premise the
  /// PlanCache replays on — so it copies the first statement's numbers,
  /// relabelled to this statement, as the executor's replay does.
  template <class Charge>
  void price(StatementCost& stmt, Charge&& charge) {
    auto it = key_ids_.lower_bound(stmt.plan_key);
    if (it != key_ids_.end() && it->first == stmt.plan_key) {
      stmt.key_id = it->second.first;
      stmt.replay_of = it->second.second;
      ++report_.plan_replays;
      const StatementCost& first =
          report_.statements[static_cast<std::size_t>(stmt.replay_of)];
      stmt.stats = first.stats;
      stmt.stats.label = stmt.label;
      stmt.phases = first.phases;
      stmt.local_reads = first.local_reads;
      stmt.traffic = first.traffic;
      return;
    }
    StepPricer pricer(machine_->cost());
    PricerSink sink{&pricer};
    charge(sink);
    stmt.stats = pricer.price(stmt.label, &stmt.phases);
    stmt.local_reads = pricer.local_reads();
    stmt.traffic = pricer.traffic();
    // Interned only once charged, so a statement the walk abandons
    // mid-charge leaves no key behind; the statement is sealed next, at
    // this index.
    stmt.key_id = static_cast<int>(key_ids_.size()) + 1;
    key_ids_.emplace_hint(
        it, stmt.plan_key,
        std::pair<int, int>{stmt.key_id,
                            static_cast<int>(report_.statements.size())});
  }

  /// Finishes one priced statement: accumulates totals exactly as
  /// CommEngine's cumulative counters do (in statement order, so the
  /// double sums match), and emits the HX diagnostics.
  void seal(StatementCost stmt) {
    CostTotals& t = report_.totals;
    t.messages += stmt.stats.messages;
    t.bytes += stmt.stats.bytes;
    t.element_transfers += stmt.stats.element_transfers;
    t.flops += stmt.stats.flops;
    t.local_reads += stmt.local_reads;
    t.time_us += stmt.stats.time_us;
    t.exposed_comm_us += stmt.stats.exposed_comm_us;
    t.hidden_comm_us += stmt.stats.hidden_comm_us;

    if (stmt.stats.bytes > 0) {
      const PairFlow* heaviest = nullptr;
      for (const PairFlow& f : stmt.traffic) {
        if (!heaviest || f.bytes > heaviest->bytes) heaviest = &f;
      }
      walk_.report(
          "HX001", Severity::kNote,
          cat("statement '", stmt.text, "': predicted ", stmt.stats.bytes,
              " bytes in ", stmt.stats.messages, " messages, ",
              stmt.exposed_us(), "us exposed communication"),
          stmt.line, 0,
          heaviest ? cat("heaviest pair: processor ", heaviest->src, " -> ",
                         heaviest->dst, " (", heaviest->bytes, " bytes, ",
                         heaviest->posted ? "posted" : "sync", ")")
                   : "");
    }
    if (stmt.replay_of >= 0) {
      const StatementCost& first =
          report_.statements[static_cast<std::size_t>(stmt.replay_of)];
      walk_.report("HX002", Severity::kNote,
                   cat("statement '", stmt.text, "': plan key #",
                       stmt.key_id, " repeats the statement at line ",
                       first.line,
                       " — the executor replays the memoized plan instead "
                       "of re-pricing"),
                   stmt.line);
    }
    report_.statements.push_back(std::move(stmt));
  }

  /// One array-section assignment, priced exactly as exec/assign.cpp
  /// prices it: the walk passed it through the executor's gate, and the
  /// executor's schedule (exec/pricing.hpp) classifies its operands, keys
  /// it and charges it — with a StepPricer standing in for the recording
  /// CommEngine, over the layouts and shadows the walk's DataEnv holds
  /// (the interpreter re-creates storage on every mapping/shadow change,
  /// so they are the ones the executor reads).
  void assign(const AstNode& node,
              const dir::BoundArrayAssign& bound) override {
    const DataEnv& env = walk_.env();
    StatementCost stmt;
    stmt.kind = StatementCost::Kind::kAssign;
    stmt.line = node.line;
    stmt.label = node.array_assign->name;  // the step label assign is given
    stmt.text = render_section(stmt.label, bound.section) + " = <expr>";

    stmt.posted_leaves = schedule_assign(
        env.distribution_of(*bound.lhs), bound.section,
        bound.rhs.program().leaves(), elem_bytes(bound.lhs->type()),
        bound.rhs.flops_per_element(), options_.overlap, /*keyed=*/true,
        [&](const SecLeaf& leaf) {
          const DistArray& array = env.array(leaf.array);
          return LeafLayout{&env.distribution_of(array), &array.shadow()};
        },
        [&](std::string& key, auto& charge) {
          stmt.plan_key = std::move(key);
          price(stmt, charge);
        });
    seal(std::move(stmt));
  }

  /// One remap event, priced exactly as ProgramState::apply_remap prices
  /// it (the memory deltas are the executor's business; StepStats carries
  /// none).
  void price_remap(const AstNode& node, const RemapEvent& event) {
    const DistArray& array = walk_.env().array(event.dummy);
    if (!event.from.valid() || !event.to.valid()) return;

    StatementCost stmt;
    stmt.kind = StatementCost::Kind::kRemap;
    stmt.line = node.line;
    stmt.label = remap_step_label(event, array.name());
    stmt.text = stmt.label;

    const Extent bytes = elem_bytes(array.type());
    stmt.plan_key = remap_plan_key(event.from, event.to, bytes);

    price(stmt, [&](PricerSink& sink) {
      charge_remap_step(event.from, event.to, bytes, sink,
                        [](ApId, Extent) {});
    });
    seal(std::move(stmt));
  }

  const Machine* machine_;
  const AstProgram* program_;
  CostOptions options_;
  StaticWalk walk_;
  CostReport report_;
  // plan key -> (1-based key id, index of the first statement priced
  // under it)
  std::map<std::string, std::pair<int, int>> key_ids_;
};

}  // namespace

CostReport cost_program(const Machine& machine, ProcessorSpace& space,
                        const AstProgram& program,
                        const CostOptions& options) {
  return CostModel(machine, space, program, options).run();
}

CostReport cost_script(const Machine& machine, const std::string& source,
                       const CostOptions& options) {
  CostReport report;
  const std::optional<AstProgram> program =
      parse_script(source, &report.diagnostics);
  if (!program) return report;
  ProcessorSpace space(machine.processors());
  return cost_program(machine, space, *program, options);
}

}  // namespace hpfnt::analysis
