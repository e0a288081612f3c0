#include "analysis/analyzer.hpp"

#include <map>
#include <set>
#include <utility>

#include "analysis/walk.hpp"
#include "core/data_env.hpp"
#include "core/distribution.hpp"
#include "support/strings.hpp"

namespace hpfnt::analysis {

namespace {

using dir::AstNode;
using dir::AstProgram;
using dir::AstSecExpr;
using dir::AstSecExprPtr;

/// Array references of an expression tree in left-to-right depth-first
/// order — the order bind_sec_expr emits section leaves, hence the order
/// of SecExpr::leaves() (scalar names become folded constants, not
/// leaves, so they are skipped here under the identical condition).
void collect_array_refs(const AstSecExprPtr& expr, const DataEnv& env,
                        std::vector<const AstSecExpr*>* out) {
  if (!expr) return;
  if (expr->kind == AstSecExpr::Kind::kRef) {
    if (env.has(expr->name) && env.find(expr->name).rank() >= 1) {
      out->push_back(expr.get());
    }
    return;
  }
  collect_array_refs(expr->lhs, env, out);
  collect_array_refs(expr->rhs, env, out);
}

class Analyzer : public WalkVisitor {
 public:
  Analyzer(ProcessorSpace& space, const AstProgram& program)
      : program_(&program), walk_(space), env_(walk_.env()) {
    for (const dir::AstSubroutine& sub : program.subroutines) {
      arity_[to_upper(sub.name)] = static_cast<int>(sub.dummies.size());
    }
  }

  AnalysisResult run() {
    walk_.run(*program_, *this);
    finish();
    result_.diagnostics = walk_.take_diagnostics();
    return std::move(result_);
  }

 private:
  template <class... Args>
  void diag(Args&&... args) {
    walk_.report(std::forward<Args>(args)...);
  }

  // STATS and the fault-injection controls are runtime-only: nothing
  // static to say.
  void unbound(const AstNode& node) override {
    if (node.kind == AstNode::Kind::kCall) visit_call(node);
  }

  void binding(const AstNode& node) override {
    switch (node.kind) {
      case AstNode::Kind::kDeclaration:
        for (const dir::AstDeclName& n : node.declaration->names) {
          decl_line_.emplace(to_upper(n.name), node.line);
        }
        return;
      case AstNode::Kind::kDynamic:
        for (const std::string& n : node.dynamic->names) {
          dynamic_line_.emplace(to_upper(n), node.line);
        }
        return;
      case AstNode::Kind::kShadow:
        shadow_line_[to_upper(node.shadow->name)] = node.line;
        return;
      case AstNode::Kind::kAlign:
        mapped_.insert(to_upper(node.align->alignee));
        if (node.align->executable) {
          remapped_.insert(to_upper(node.align->alignee));
        }
        return;
      case AstNode::Kind::kDistribute:
        before_distribute(node);
        return;
      default:
        return;
    }
  }

  void bound(const AstNode& node, const std::vector<RemapEvent>&) override {
    if (node.kind == AstNode::Kind::kAlign) check_collapsed_axes(node);
    if (node.kind == AstNode::Kind::kDistribute) check_noop_remaps(node);
  }

  // --- ALIGN / REALIGN -----------------------------------------------------

  /// HL004: the directive bound, but any alignee axis that lands on a
  /// collapsed base dimension constrains nothing — the base's owners do
  /// not vary along that dimension.
  void check_collapsed_axes(const AstNode& node) {
    const dir::AstAlign& align = *node.align;
    if (!env_.has(align.base)) return;
    const DistArray& base = env_.find(align.base);
    if (!base.is_created()) return;
    const Distribution& bdist = env_.distribution_of(base);
    if (bdist.kind() != Distribution::Kind::kFormats) return;
    const AlignSpec spec =
        walk_.binder().bind_align_spec(align, base.domain());
    const std::vector<BaseSub>& subs = spec.base_subs();
    for (std::size_t j = 0; j < subs.size(); ++j) {
      const BaseSub& sub = subs[j];
      const bool maps_axis =
          sub.kind == BaseSub::Kind::kColon ||
          sub.kind == BaseSub::Kind::kTriplet ||
          (sub.kind == BaseSub::Kind::kExpr && sub.expr.used_dummy());
      if (!maps_axis) continue;
      if (bdist.dim_mapping(static_cast<int>(j)).kind() !=
          FormatKind::kCollapsed) {
        continue;
      }
      diag("HL004", Severity::kWarning,
           cat("alignee axis mapped onto dimension ", j + 1, " of '",
               align.base,
               "', which is collapsed: the alignment constrains no "
               "locality there"),
           node.line);
    }
  }

  // --- DISTRIBUTE / REDISTRIBUTE -------------------------------------------

  void before_distribute(const AstNode& node) {
    const dir::AstDistribute& dist = *node.distribute;
    for (const std::string& n : dist.names) mapped_.insert(to_upper(n));
    before_.clear();
    if (!dist.executable) return;
    for (const std::string& n : dist.names) {
      remapped_.insert(to_upper(n));
      if (!env_.has(n)) continue;
      const DistArray& array = env_.find(n);
      if (!array.is_created()) continue;
      // HL005: redistributing a secondary silently detaches it from its
      // base (§4.2 moves alignees WITH their primary; naming the
      // secondary itself instead dissolves the relation).
      if (!env_.is_primary(array)) {
        const DistArray* primary = env_.aligned_to(array);
        diag("HL005", Severity::kWarning,
             cat("REDISTRIBUTE of '", n,
                 "', which is aligned to another array: this detaches "
                 "it, silently dropping the alignment"),
             node.line, 0,
             primary ? cat("REDISTRIBUTE '", primary->name(),
                           "' to move the whole alignment tree, or "
                           "REALIGN '", n, "' if detaching is intended")
                     : "");
      }
      before_.emplace(to_upper(n), env_.distribution_of(array));
    }
  }

  /// HL006: a remap to the mapping the array already has moves nothing
  /// but still costs a directive (and, executed, a plan lookup).
  void check_noop_remaps(const AstNode& node) {
    for (const std::string& n : node.distribute->names) {
      auto it = before_.find(to_upper(n));
      if (it == before_.end() || !env_.has(n)) continue;
      const DistArray& array = env_.find(n);
      if (!array.is_created()) continue;
      if (it->second.same_mapping(env_.distribution_of(array))) {
        diag("HL006", Severity::kWarning,
             cat("REDISTRIBUTE of '", n,
                 "' to its identical current mapping is a no-op"),
             node.line);
      }
    }
  }

  // --- CALL ----------------------------------------------------------------

  void visit_call(const AstNode& node) {
    const dir::AstCall& call = *node.call;
    auto it = arity_.find(to_upper(call.procedure));
    if (it == arity_.end()) {
      diag("HP001", Severity::kWarning,
           cat("CALL to '", call.procedure,
               "', which this script does not define: its mapping effects "
               "are invisible to static analysis"),
           node.line);
      return;
    }
    if (static_cast<int>(call.args.size()) != it->second) {
      diag("HP002", Severity::kError,
           cat("CALL '", call.procedure, "' passes ", call.args.size(),
               " arguments; the subroutine declares ", it->second,
               " dummies"),
           node.line);
    }
  }

  // --- array-section assignment --------------------------------------------

  void assign(const AstNode& node,
              const dir::BoundArrayAssign& bound) override {
    std::vector<const AstSecExpr*> refs;
    collect_array_refs(node.array_assign->rhs, env_, &refs);
    const std::vector<SecLeaf> leaves = bound.rhs.leaves();
    const Distribution& lhs_dist = env_.distribution_of(*bound.lhs);

    // The minimal SHADOW per operand array that would post every pure-shift
    // leaf of THIS statement — the fix-it must satisfy all of an array's
    // leaves at once (U(i-1)+U(i+1) needs SHADOW U(1:1), not two one-sided
    // declarations that each leave the other leaf exposed-sync).
    std::vector<std::optional<std::vector<Extent>>> shifts;
    std::map<std::string, std::vector<ShadowWidth>> stmt_needed;
    for (const SecLeaf& leaf : leaves) {
      const DistArray& array = env_.array(leaf.array);
      shifts.push_back(
          postable_shift(array, lhs_dist, bound.section, *leaf.section));
      if (shifts.back()) {
        accumulate_requirement(array, *shifts.back(), &stmt_needed);
      }
    }

    StatementComm stmt;
    stmt.line = node.line;
    stmt.lhs = bound.lhs->name();
    for (std::size_t l = 0; l < leaves.size(); ++l) {
      const SecLeaf& leaf = leaves[l];
      const DistArray& array = env_.array(leaf.array);
      const int line = l < refs.size() ? refs[l]->line : node.line;
      const int column = l < refs.size() ? refs[l]->column : 0;
      const CommClass comm =
          classify_operand_comm(lhs_dist, bound.section,
                                env_.distribution_of(array), *leaf.section,
                                array.shadow());
      OperandComm op{array.name(), render_section(array.name(), *leaf.section),
                     line, column, comm};

      switch (comm) {
        case CommClass::kLocal:
          diag("HC001", Severity::kNote,
               cat("operand ", op.rendered,
                   ": LOCAL — every read is owner-resident"),
               line, column);
          break;
        case CommClass::kPosted:
          diag("HC002", Severity::kNote,
               cat("operand ", op.rendered,
                   ": POSTED — halo exchange into declared shadow, "
                   "overlapped with interior compute"),
               line, column);
          note_shadow_use(array, bound.section, *leaf.section);
          break;
        case CommClass::kSync:
          diag("HC003", Severity::kNote,
               cat("operand ", op.rendered,
                   ": SYNC-REMOTE — remote reads outside ghost cells "
                   "block the statement"),
               line, column);
          if (shifts[l]) {
            check_shadow_shortfall(array, *shifts[l], *leaf.section,
                                   stmt_needed, line, column);
          }
          break;
      }
      stmt.operands.push_back(std::move(op));
    }
    result_.statements.push_back(std::move(stmt));
  }

  /// A posted operand whose shift crosses a distributed dimension really
  /// lands in the array's ghost cells — its SHADOW is live, not dead.
  void note_shadow_use(const DistArray& array,
                       const std::vector<Triplet>& lhs_section,
                       const std::vector<Triplet>& leaf_section) {
    const std::optional<std::vector<Extent>> shifts =
        section_shift(lhs_section, leaf_section);
    if (!shifts) return;
    const Distribution& dist = env_.distribution_of(array);
    if (dist.kind() != Distribution::Kind::kFormats) return;
    for (std::size_t d = 0; d < shifts->size(); ++d) {
      if ((*shifts)[d] == 0) continue;
      if (dist.dim_mapping(static_cast<int>(d)).kind() !=
          FormatKind::kCollapsed) {
        shadow_used_.insert(to_upper(array.name()));
        return;
      }
    }
  }

  /// The leaf's per-dimension shift of the target section when it is the
  /// one shape a SHADOW declaration can post: a pure, nonzero shift on a
  /// structurally identical mapping whose shifted dimensions are all
  /// collapsed or contiguous. nullopt otherwise.
  std::optional<std::vector<Extent>> postable_shift(
      const DistArray& array, const Distribution& lhs_dist,
      const std::vector<Triplet>& lhs_section,
      const std::vector<Triplet>& leaf_section) const {
    std::optional<std::vector<Extent>> shifts =
        section_shift(lhs_section, leaf_section);
    const Distribution& dist = env_.distribution_of(array);
    if (!shifts || lhs_dist.kind() != Distribution::Kind::kFormats ||
        dist.kind() != Distribution::Kind::kFormats ||
        !lhs_dist.structurally_equal(dist)) {
      return std::nullopt;
    }
    bool shifted = false;
    for (std::size_t d = 0; d < shifts->size(); ++d) {
      if ((*shifts)[d] == 0) continue;
      shifted = true;
      const DimMapping& m = dist.dim_mapping(static_cast<int>(d));
      if (m.kind() != FormatKind::kCollapsed && !m.is_contiguous()) {
        return std::nullopt;  // no shadow can post this leaf
      }
    }
    if (!shifted) return std::nullopt;
    return shifts;
  }

  /// Folds a postable leaf's width requirement (declared ∪ |shift| per
  /// side) into `needed` under the array's case-folded name.
  void accumulate_requirement(
      const DistArray& array, const std::vector<Extent>& shifts,
      std::map<std::string, std::vector<ShadowWidth>>* needed) {
    std::vector<ShadowWidth>& widths = (*needed)[to_upper(array.name())];
    if (widths.empty()) {
      widths.resize(static_cast<std::size_t>(array.rank()));
      const std::vector<ShadowWidth>& declared = array.shadow();
      for (std::size_t d = 0; d < widths.size() && d < declared.size(); ++d) {
        widths[d] = declared[d];
      }
    }
    for (std::size_t d = 0; d < shifts.size() && d < widths.size(); ++d) {
      const Extent shift = shifts[d];
      if (shift > 0) {
        widths[d].right = std::max(widths[d].right, shift);
      } else if (shift < 0) {
        widths[d].left = std::max(widths[d].left, -shift);
      }
    }
  }

  /// HS001: the operand went SYNC for want of shadow alone — a postable
  /// shift whose declared widths are just too narrow. The fix-it is the
  /// minimal SHADOW declaration that posts every such leaf of the
  /// statement (from `stmt_needed`, see assign).
  void check_shadow_shortfall(
      const DistArray& array, const std::vector<Extent>& shifts,
      const std::vector<Triplet>& leaf_section,
      const std::map<std::string, std::vector<ShadowWidth>>& stmt_needed,
      int line, int column) {
    const Distribution& dist = env_.distribution_of(array);
    const std::vector<ShadowWidth>& declared = array.shadow();
    std::string shortfall;
    for (std::size_t d = 0; d < shifts.size(); ++d) {
      const Extent shift = shifts[d];
      if (dist.dim_mapping(static_cast<int>(d)).kind() ==
          FormatKind::kCollapsed) {
        continue;  // every owner holds the whole dimension
      }
      const Extent left = d < declared.size() ? declared[d].left : 0;
      const Extent right = d < declared.size() ? declared[d].right : 0;
      if (shift > 0 && right < shift) {
        shortfall += cat(shortfall.empty() ? "" : "; ", "shift ", shift,
                         " > shadow ", right, " on dimension ", d + 1);
      } else if (shift < 0 && left < -shift) {
        shortfall += cat(shortfall.empty() ? "" : "; ", "shift ", shift,
                         " > shadow ", left, " on dimension ", d + 1);
      }
    }
    if (shortfall.empty()) return;
    auto it = stmt_needed.find(to_upper(array.name()));
    diag("HS001", Severity::kWarning,
         cat("operand ", render_section(array.name(), leaf_section), ": ",
             shortfall, ": this transfer will be exposed-sync"),
         line, column,
         "a pure stencil shift on an identical mapping posts as a halo "
         "exchange once the declared shadow covers it",
         it != stmt_needed.end() ? shadow_directive(array.name(), it->second)
                                 : "");
  }

  // --- end-of-program (dead-directive) checks ------------------------------

  void finish() {
    for (const std::string& name : env_.array_names()) {
      const DistArray& array = env_.find(name);
      if (array.rank() < 1) continue;
      const std::string key = to_upper(name);
      if (array.has_shadow() && !shadow_used_.count(key)) {
        auto it = shadow_line_.find(key);
        diag("HD001", Severity::kWarning,
             cat("SHADOW of '", name,
                 "' never covers any statement's communication: dead "
                 "ghost cells"),
             it != shadow_line_.end() ? it->second : 0);
      }
      if (!mapped_.count(key)) {
        auto it = decl_line_.find(key);
        diag("HD002", Severity::kNote,
             cat("'", name,
                 "' is never named in a mapping directive; it relies on "
                 "the compiler's implicit distribution"),
             it != decl_line_.end() ? it->second : 0);
      }
      auto dyn = dynamic_line_.find(key);
      if (dyn != dynamic_line_.end() && !remapped_.count(key)) {
        diag("HD003", Severity::kWarning,
             cat("'", name,
                 "' is DYNAMIC but never REDISTRIBUTE/REALIGNed; the "
                 "attribute buys only overhead"),
             dyn->second);
      }
    }
  }

  const AstProgram* program_;
  StaticWalk walk_;
  const DataEnv& env_;  // the walk's
  AnalysisResult result_;
  std::map<std::string, int> arity_;         // subroutine -> dummy count
  std::map<std::string, int> decl_line_;     // case-folded name -> line
  std::map<std::string, int> dynamic_line_;  // DYNAMIC directive line
  std::map<std::string, int> shadow_line_;   // SHADOW directive line
  std::set<std::string> mapped_;       // named in any mapping directive
  std::set<std::string> remapped_;     // named in an executable remap
  std::set<std::string> shadow_used_;  // shadow covered a posted operand
  // REDISTRIBUTE operand -> its mapping before the directive (HL006)
  std::map<std::string, Distribution> before_;
};

}  // namespace

std::string shadow_directive(const std::string& name,
                             const std::vector<ShadowWidth>& widths) {
  std::string out = "SHADOW " + name + "(";
  for (std::size_t d = 0; d < widths.size(); ++d) {
    if (d) out += ",";
    out += cat(widths[d].left, ":", widths[d].right);
  }
  return out + ")";
}

AnalysisResult analyze_program(ProcessorSpace& space,
                               const AstProgram& program) {
  return Analyzer(space, program).run();
}

AnalysisResult analyze_script(ProcessorSpace& space,
                              const std::string& source) {
  AnalysisResult result;
  const std::optional<AstProgram> program =
      parse_script(source, &result.diagnostics);
  return program ? analyze_program(space, *program) : result;
}

}  // namespace hpfnt::analysis
