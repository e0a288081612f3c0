// hpflint --fix: textual application of the analyzer's HS001 fix-its.
//
// HS001 reports a stencil operand that goes exposed-sync only because the
// declared SHADOW is too narrow, and carries the minimal declaration that
// would post it (analysis/analyzer.hpp renders it per statement,
// aggregated over the statement's leaves). This module turns those
// per-statement suggestions into one edit plan per array:
//
//   * widths are unioned across every HS001 of the script (max per side
//     per dimension), so the single declaration satisfies all statements;
//   * an existing `!HPF$ SHADOW <array>(...)` line is REPLACED in place;
//   * otherwise the directive is INSERTED after the array's last
//     specification-part mapping directive (DISTRIBUTE/ALIGN), falling
//     back to its declaration line — before any executable statement
//     reads it.
//
// Application is idempotent: the fixed source re-analyzes with no HS001,
// so a second plan is empty and apply_fixes returns the input unchanged
// (tests/test_cost_model.cpp checks this, and checks that the fixed script's
// predicted communication goes posted).
#pragma once

#include <string>
#include <vector>

#include "core/array.hpp"
#include "core/processors.hpp"

namespace hpfnt::analysis {

/// One array's planned SHADOW edit.
struct ShadowFix {
  std::string array;                ///< name as declared in the script
  std::vector<ShadowWidth> widths;  ///< unioned minimal widths
  std::string directive;            ///< the full "!HPF$ SHADOW ..." line
  int replace_line = 0;  ///< 1-based line of an existing SHADOW to replace
  int insert_after = 0;  ///< used when replace_line == 0: insert after this
};

struct FixPlan {
  std::vector<ShadowFix> fixes;
  bool empty() const { return fixes.empty(); }
};

/// Analyzes `source` and plans the minimal SHADOW edits its HS001
/// diagnostics call for. An unparseable or fix-free script yields an
/// empty plan.
FixPlan plan_shadow_fixes(ProcessorSpace& space, const std::string& source);

/// Applies a plan textually, preserving every untouched line (and the
/// final newline convention of the input). Safe to call with an empty
/// plan (returns the input).
std::string apply_fixes(const std::string& source, const FixPlan& plan);

}  // namespace hpfnt::analysis
