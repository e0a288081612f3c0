#include "analysis/fixit.hpp"

#include <algorithm>
#include <map>

#include "analysis/analyzer.hpp"
#include "analysis/walk.hpp"
#include "directives/ast.hpp"
#include "support/strings.hpp"

namespace hpfnt::analysis {

namespace {

/// Parses one analyzer fix-it, "SHADOW <name>(<l>:<r>[,<l>:<r>...])", back
/// into its parts. The renderer (analysis/analyzer.hpp,
/// shadow_directive) is the only producer, so the grammar is exact;
/// anything else is ignored.
bool parse_fixit(const std::string& fixit, std::string* name,
                 std::vector<ShadowWidth>* widths) {
  const std::string prefix = "SHADOW ";
  if (fixit.rfind(prefix, 0) != 0) return false;
  const std::size_t open = fixit.find('(', prefix.size());
  if (open == std::string::npos || fixit.back() != ')') return false;
  *name = fixit.substr(prefix.size(), open - prefix.size());
  widths->clear();
  std::size_t at = open + 1;
  while (at < fixit.size() - 1) {
    std::size_t end = fixit.find(',', at);
    if (end == std::string::npos || end > fixit.size() - 1) {
      end = fixit.size() - 1;
    }
    const std::string dim = fixit.substr(at, end - at);
    const std::size_t colon = dim.find(':');
    if (colon == std::string::npos) return false;
    ShadowWidth w;
    w.left = static_cast<Extent>(std::stoll(dim.substr(0, colon)));
    w.right = static_cast<Extent>(std::stoll(dim.substr(colon + 1)));
    widths->push_back(w);
    at = end + 1;
  }
  return !widths->empty();
}

}  // namespace

FixPlan plan_shadow_fixes(ProcessorSpace& space, const std::string& source) {
  FixPlan plan;
  std::vector<Diagnostic> parse_errors;
  const std::optional<dir::AstProgram> program =
      parse_script(source, &parse_errors);
  if (!program) return plan;  // unparseable: nothing to fix textually

  // Union the widths every HS001 asks for, per array (max per side per
  // dimension): one declaration must satisfy every statement at once.
  const AnalysisResult result = analyze_program(space, *program);
  std::map<std::string, std::pair<std::string, std::vector<ShadowWidth>>>
      needed;  // case-folded name -> (name as rendered, widths)
  for (const Diagnostic& d : result.diagnostics) {
    if (d.code != "HS001" || d.fixit.empty()) continue;
    std::string name;
    std::vector<ShadowWidth> widths;
    if (!parse_fixit(d.fixit, &name, &widths)) continue;
    auto& entry = needed[to_upper(name)];
    if (entry.second.empty()) {
      entry = {name, widths};
      continue;
    }
    for (std::size_t i = 0; i < entry.second.size() && i < widths.size();
         ++i) {
      entry.second[i].left = std::max(entry.second[i].left, widths[i].left);
      entry.second[i].right =
          std::max(entry.second[i].right, widths[i].right);
    }
  }
  if (needed.empty()) return plan;

  // Anchor lines per array: an existing SHADOW line to replace, else the
  // last specification-part mapping directive (then the declaration) to
  // insert after.
  std::map<std::string, int> shadow_line;
  std::map<std::string, int> anchor_line;
  auto anchor = [&](const std::string& name, int line) {
    int& at = anchor_line[to_upper(name)];
    at = std::max(at, line);
  };
  for (const dir::AstNode& node : program->main) {
    switch (node.kind) {
      case dir::AstNode::Kind::kShadow:
        shadow_line[to_upper(node.shadow->name)] = node.line;
        break;
      case dir::AstNode::Kind::kDeclaration:
        for (const dir::AstDeclName& n : node.declaration->names) {
          anchor(n.name, node.line);
        }
        break;
      case dir::AstNode::Kind::kDistribute:
        if (!node.distribute->executable) {
          for (const std::string& n : node.distribute->names) {
            anchor(n, node.line);
          }
        }
        break;
      case dir::AstNode::Kind::kAlign:
        if (!node.align->executable) anchor(node.align->alignee, node.line);
        break;
      default:
        break;
    }
  }

  for (auto& [key, entry] : needed) {
    ShadowFix fix;
    fix.array = entry.first;
    fix.widths = entry.second;
    fix.directive = "!HPF$ " + shadow_directive(entry.first, entry.second);
    auto existing = shadow_line.find(key);
    if (existing != shadow_line.end()) {
      fix.replace_line = existing->second;
    } else {
      auto at = anchor_line.find(key);
      if (at == anchor_line.end()) continue;  // never declared: no anchor
      fix.insert_after = at->second;
    }
    plan.fixes.push_back(std::move(fix));
  }
  return plan;
}

std::string apply_fixes(const std::string& source, const FixPlan& plan) {
  if (plan.empty()) return source;
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at <= source.size()) {
    const std::size_t end = source.find('\n', at);
    if (end == std::string::npos) {
      if (at < source.size()) lines.push_back(source.substr(at));
      break;
    }
    lines.push_back(source.substr(at, end - at));
    at = end + 1;
  }
  const bool final_newline = !source.empty() && source.back() == '\n';

  for (const ShadowFix& fix : plan.fixes) {
    if (fix.replace_line >= 1 &&
        fix.replace_line <= static_cast<int>(lines.size())) {
      lines[static_cast<std::size_t>(fix.replace_line - 1)] = fix.directive;
    }
  }
  // Inserts from the bottom up, so earlier insertion points stay valid;
  // same-line inserts run in reverse plan order so the final text keeps
  // the plan's (name-sorted) order.
  std::vector<const ShadowFix*> inserts;
  for (const ShadowFix& fix : plan.fixes) {
    if (fix.replace_line == 0) inserts.push_back(&fix);
  }
  std::reverse(inserts.begin(), inserts.end());
  std::stable_sort(inserts.begin(), inserts.end(),
                   [](const ShadowFix* a, const ShadowFix* b) {
                     return a->insert_after > b->insert_after;
                   });
  for (const ShadowFix* fix : inserts) {
    const std::size_t pos = std::min(lines.size(),
                                     static_cast<std::size_t>(
                                         std::max(0, fix->insert_after)));
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pos),
                 fix->directive);
  }

  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size() || final_newline) out += '\n';
  }
  return out;
}

}  // namespace hpfnt::analysis
