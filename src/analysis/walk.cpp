#include "analysis/walk.hpp"

#include <utility>

#include "directives/parser.hpp"
#include "exec/assign.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt::analysis {

namespace {

using dir::AstNode;

bool is_mapping_directive(AstNode::Kind kind) {
  switch (kind) {
    case AstNode::Kind::kProcessors:
    case AstNode::Kind::kDistribute:
    case AstNode::Kind::kAlign:
    case AstNode::Kind::kDynamic:
    case AstNode::Kind::kTemplate:
    case AstNode::Kind::kInherit:
    case AstNode::Kind::kShadow:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::optional<dir::AstProgram> parse_script(
    const std::string& source, std::vector<Diagnostic>* diagnostics) {
  try {
    return dir::parse_program(source);
  } catch (const DirectiveError& e) {
    diagnostics->push_back(
        {"HF000", Severity::kError, e.what(), e.line(), e.column(), "", ""});
    return std::nullopt;
  }
}

StaticWalk::StaticWalk(ProcessorSpace& space)
    : env_(space), binder_(space, env_) {}

/// The one throw -> diagnostic conversion. `conformance_code`, when given,
/// replaces `code` for a ConformanceError (the assignment gate's shape
/// check is HF002, its bounds check HF001).
template <class F>
bool StaticWalk::guarded(const AstNode& node, const char* code, F&& step,
                         const char* conformance_code) {
  try {
    step();
    return true;
  } catch (const DirectiveError& e) {
    error(code, e.what(), e.line(), e.column());
  } catch (const LocatedError& e) {
    const bool shape =
        conformance_code && dynamic_cast<const ConformanceError*>(&e);
    error(shape ? conformance_code : code, e.message(),
          e.located() ? e.line() : node.line,
          e.located() ? e.column() : 1);
  } catch (const HpfError& e) {
    error(code, e.what(), node.line, 1);
  }
  return false;
}

void StaticWalk::run(const dir::AstProgram& program, WalkVisitor& visitor) {
  std::vector<RemapEvent> events;
  for (const AstNode& node : program.main) {
    switch (node.kind) {
      case AstNode::Kind::kCall:
      case AstNode::Kind::kStats:
      case AstNode::Kind::kFaults:
      case AstNode::Kind::kCheckpoint:
      case AstNode::Kind::kRestore:
      case AstNode::Kind::kFailProc:
        visitor.unbound(node);
        break;
      case AstNode::Kind::kArrayAssign: {
        dir::BoundArrayAssign bound;
        if (!guarded(node, "HF001", [&] {
              bound = binder_.bind_array_assign(*node.array_assign);
            })) {
          break;
        }
        // The executor's gate: an out-of-bounds target is HF001, a
        // nonconforming right-hand side HF002.
        if (!guarded(
                node, "HF001",
                [&] { check_assignment(*bound.lhs, bound.section, bound.rhs); },
                "HF002")) {
          break;
        }
        if (!names_unmapped(bound)) visitor.assign(node, bound);
        break;
      }
      default:
        visitor.binding(node);
        if (node.kind == AstNode::Kind::kAlign && !legal_alignment(node)) {
          break;
        }
        events.clear();
        if (guarded(node,
                    is_mapping_directive(node.kind) ? "HL003" : "HF001",
                    [&] { binder_.apply(node, &events); })) {
          visitor.bound(node, events);
        } else if (node.kind == AstNode::Kind::kDeclaration) {
          for (const dir::AstDeclName& n : node.declaration->names) {
            if (!env_.has(n.name)) undeclared_.insert(to_upper(n.name));
          }
        } else {
          remember_unmapped(node);
        }
        break;
    }
  }
}

void StaticWalk::remember_unmapped(const AstNode& node) {
  // A failed REDISTRIBUTE or REALIGN leaves its array on the mapping the
  // script gave it before, so only the declarative directives count.
  std::vector<std::string> names;
  if (node.kind == AstNode::Kind::kDistribute && !node.distribute->executable) {
    names = node.distribute->names;
  } else if (node.kind == AstNode::Kind::kAlign && !node.align->executable) {
    names.push_back(node.align->alignee);
  } else if (node.kind == AstNode::Kind::kShadow) {
    names.push_back(node.shadow->name);
  }
  for (const std::string& name : names) {
    if (env_.has(name)) unmapped_.insert(env_.find(name).id());
  }
}

bool StaticWalk::names_unmapped(const dir::BoundArrayAssign& bound) const {
  if (unmapped_.count(bound.lhs->id())) return true;
  for (const SecLeaf& leaf : bound.rhs.leaves()) {
    if (unmapped_.count(leaf.array)) return true;
  }
  return false;
}

void StaticWalk::report(std::string code, Severity severity,
                        std::string message, int line, int column,
                        std::string note, std::string fixit) {
  diagnostics_.push_back({std::move(code), severity, std::move(message), line,
                          column, std::move(note), std::move(fixit)});
}

void StaticWalk::error(const char* code, const std::string& message,
                       int line, int column) {
  // Cascade policy: "unknown array 'A'", "'A' is not a declared array..."
  // and the like, about an array a failed declaration left undeclared,
  // follow from that failure.
  const std::size_t open = message.find('\'');
  const std::size_t close =
      open == std::string::npos ? open : message.find('\'', open + 1);
  if (close != std::string::npos &&
      (open == 0 || message.rfind("unknown ", 0) == 0)) {
    const std::string name = message.substr(open + 1, close - open - 1);
    if (undeclared_.count(to_upper(name)) && !env_.has(name)) return;
  }
  report(code, Severity::kError, message, line, column);
}

/// HL001/HL002: alignments the forest can never hold, reported before the
/// binder sees them.
bool StaticWalk::legal_alignment(const AstNode& node) {
  const dir::AstAlign& align = *node.align;
  const char* verb = align.executable ? "REALIGN" : "ALIGN";

  // HL001: a self-alignment can never be satisfied — the directive asks
  // the forest for a cycle of length one.
  if (iequals(align.alignee, align.base)) {
    report("HL001", Severity::kError,
           cat(verb, " of '", align.alignee,
               "' with itself forms an alignment cycle"),
           node.line);
    return false;
  }

  // HL002: the alignment forest keeps height <= 1, so the base must be a
  // primary. The one legal exception: REALIGN A WITH B where B is
  // currently aligned to A — realignment orphans A's tree first (§5.2),
  // which turns B into a primary before the edge is re-made.
  if (!env_.has(align.alignee) || !env_.has(align.base)) return true;
  const DistArray& alignee = env_.find(align.alignee);
  const DistArray& base = env_.find(align.base);
  if (!alignee.is_created() || !base.is_created() || env_.is_primary(base)) {
    return true;
  }
  const DistArray* primary = env_.aligned_to(base);
  if (align.executable && primary == &alignee) return true;
  report("HL002", Severity::kError,
         cat(verb, " of '", align.alignee, "' onto '", align.base,
             "', which is itself a secondary — the alignment forest keeps "
             "height <= 1"),
         node.line, 0,
         primary ? cat("'", align.base, "' is aligned to '", primary->name(),
                       "'; align to that primary instead")
                 : "");
  return false;
}

}  // namespace hpfnt::analysis
