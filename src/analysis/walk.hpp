// The one static walk over a directive program, shared by hpflint's two
// passes: the linter (analysis/analyzer.hpp) and the cost model
// (analysis/cost_model.hpp).
//
// Mappings are static, so whether a statement is legal depends only on the
// directives before it, and the walk decides it once for both passes. It
// parses a script (a failure is HF000), binds every node against its own
// DataEnv/Binder as the interpreter would (mapping bookkeeping only, no
// storage), checks alignments against the forest (HL001/HL002), and passes
// every array assignment through the executor's gate,
// exec/assign.hpp::check_assignment. One conversion turns a throw into an
// error: HL003 for a mapping directive, HF001 for a statement or an
// out-of-bounds target, HF002 for a nonconforming right-hand side. A
// located error keeps its line and column; an unlocated one gets its
// statement's line and column 1, where the interpreter puts the same
// throw. So both passes report the same errors, and `hpflint --exec` fails
// at the line of the first.
//
// Cascade policy: a failed declaration leaves its names undeclared, and
// later errors about those names are dropped. Only the declaration's own
// error is reported. A failed DISTRIBUTE, ALIGN or SHADOW (HL003) leaves
// its arrays on a mapping the script never asked for (a failed REDISTRIBUTE
// or REALIGN leaves the one it asked for before), so no pass sees a
// later assignment that writes or reads one of them: lint reports nothing
// for it and the cost model does not price it, as the executor stops at
// the directive's error.
//
// The passes are WalkVisitors. They keep only their own state and report
// through the walk, so all diagnostics land in one list, in source order.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/data_env.hpp"
#include "core/processors.hpp"
#include "directives/ast.hpp"
#include "directives/binder.hpp"

namespace hpfnt::analysis {

/// Parses a script. A parse failure appends one HF000 error to
/// `diagnostics` and yields nullopt.
std::optional<dir::AstProgram> parse_script(
    const std::string& source, std::vector<Diagnostic>* diagnostics);

/// One static pass over the nodes the walk hands it, in program order.
class WalkVisitor {
 public:
  virtual ~WalkVisitor() = default;
  /// A node the walk does not bind: CALL and the runtime-only controls
  /// (STATS, FAULTS, CHECKPOINT, RESTORE, FAIL_PROC).
  virtual void unbound(const dir::AstNode& node) = 0;
  /// A declaration or mapping directive, before it binds.
  virtual void binding(const dir::AstNode&) {}
  /// A declaration or mapping directive that bound; `events` are the remaps
  /// an executable REDISTRIBUTE/REALIGN performs (empty otherwise).
  virtual void bound(const dir::AstNode& node,
                     const std::vector<RemapEvent>& events) = 0;
  /// An array assignment that bound and passed the assignment gate.
  virtual void assign(const dir::AstNode& node,
                      const dir::BoundArrayAssign& bound) = 0;
};

class StaticWalk {
 public:
  explicit StaticWalk(ProcessorSpace& space);

  /// Binds the main program node by node, handing each to `visitor`.
  /// Subroutine bodies are not walked. Never throws for script-level
  /// problems: they become diagnostics.
  void run(const dir::AstProgram& program, WalkVisitor& visitor);

  void report(std::string code, Severity severity, std::string message,
              int line, int column = 0, std::string note = "",
              std::string fixit = "");

  const DataEnv& env() const { return env_; }
  const dir::Binder& binder() const { return binder_; }
  std::vector<Diagnostic> take_diagnostics() { return std::move(diagnostics_); }

 private:
  template <class F>
  bool guarded(const dir::AstNode& node, const char* code, F&& step,
               const char* conformance_code = nullptr);
  bool legal_alignment(const dir::AstNode& node);
  void remember_unmapped(const dir::AstNode& node);
  bool names_unmapped(const dir::BoundArrayAssign& bound) const;
  void error(const char* code, const std::string& message, int line,
             int column);

  DataEnv env_;
  dir::Binder binder_;
  std::vector<Diagnostic> diagnostics_;
  std::set<std::string> undeclared_;  // case-folded names of failed decls
  std::set<ArrayId> unmapped_;  // arrays of failed mapping directives
};

}  // namespace hpfnt::analysis
