// hpflint — static analysis of HPF directive scripts (src/analysis/).
//
// Usage:
//   hpflint [options] script.hpf [more.hpf ...]
//
// Options:
//   --json       one JSON object per line (machine mode, no source echo):
//                diagnostics carry file/code/severity/line/column/message
//                and optionally note/fixit; --cost adds {"type":"cost"}
//                statement rows and a {"type":"cost_totals"} summary;
//                --exec adds a {"type":"exec_totals"} row
//   --werror     warnings are as fatal as errors for the exit status
//   --no-notes   suppress severity-note diagnostics (HC*/HX*) in human
//                output
//   --procs N    analyze against an N-processor machine (default 32)
//   --cost       static cost report (analysis/cost_model.hpp) instead of
//                the lint walk: every statement's predicted communication
//                — bytes, messages, exposed/hidden time, plan reuse —
//                ranked by exposed communication. The predictions are
//                differential-exact: byte-identical to what execution
//                would measure (the --exec totals prove it).
//   --exec       actually execute each script (interpreter + storage) and
//                report the comm engine's measured totals — the ground
//                truth the CI gate compares --cost predictions against
//   --fix        apply the analyzer's HS001 SHADOW fix-its to the files IN
//                PLACE (textual, idempotent); implies the lint walk
//   --dry-run    with --fix: print the planned edits, write nothing
//
// Exit status: 0 when no script has errors (nor warnings under --werror),
// 1 when any does, 2 on usage or I/O problems or an unexpected failure
// (never an abort). Notes never affect it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/cost_model.hpp"
#include "analysis/fixit.hpp"
#include "core/processors.hpp"
#include "directives/interp.hpp"
#include "exec/comm_plan.hpp"
#include "exec/storage.hpp"
#include "machine/topology.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace {

using hpfnt::analysis::AnalysisResult;
using hpfnt::analysis::CostReport;
using hpfnt::analysis::Diagnostic;
using hpfnt::analysis::Severity;
using hpfnt::analysis::StatementCost;

struct Options {
  bool json = false;
  bool werror = false;
  bool notes = true;
  bool cost = false;
  bool exec = false;
  bool fix = false;
  bool dry_run = false;
  int procs = 32;
  std::vector<std::string> files;
};

void usage(std::ostream& out) {
  out << "usage: hpflint [--json] [--werror] [--no-notes] [--procs N] "
         "[--cost] [--exec] [--fix [--dry-run]] script.hpf...\n";
}

bool parse_args(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      opts->json = true;
    } else if (arg == "--werror") {
      opts->werror = true;
    } else if (arg == "--no-notes") {
      opts->notes = false;
    } else if (arg == "--cost") {
      opts->cost = true;
    } else if (arg == "--exec") {
      opts->exec = true;
    } else if (arg == "--fix") {
      opts->fix = true;
    } else if (arg == "--dry-run") {
      opts->dry_run = true;
    } else if (arg == "--procs") {
      if (++i >= argc) return false;
      opts->procs = std::atoi(argv[i]);
      if (opts->procs < 1) return false;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else {
      opts->files.push_back(arg);
    }
  }
  if (opts->dry_run && !opts->fix) return false;
  return !opts->files.empty();
}

std::vector<std::string> split_lines(const std::string& source) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : source) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

/// Human rendering with the source span: the diagnostic, the offending
/// line, and a caret under the column.
void print_human(const std::string& file, const Diagnostic& d,
                 const std::vector<std::string>& lines) {
  std::cout << file << ":" << to_string(d) << "\n";
  if (d.line >= 1 && d.line <= static_cast<int>(lines.size())) {
    const std::string& src = lines[static_cast<std::size_t>(d.line - 1)];
    std::cout << "    | " << src << "\n";
    if (d.column >= 1 && d.column <= static_cast<int>(src.size()) + 1) {
      std::cout << "    | " << std::string(static_cast<std::size_t>(d.column - 1), ' ')
                << "^\n";
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string escaped;
  for (char c : s) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  return escaped;
}

void print_json(const std::string& file, const Diagnostic& d) {
  // Splice {"file":...} in front of the diagnostic's own object.
  std::string line = to_json_line(d);
  std::cout << "{\"file\":\"" << json_escape(file) << "\"," << line.substr(1)
            << "\n";
}

/// Round-trip-exact double rendering: the CI gate compares predicted
/// against executed totals for equality, so nothing may be lost here.
std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

const char* kind_name(StatementCost::Kind kind) {
  switch (kind) {
    case StatementCost::Kind::kAssign:
      return "assign";
    case StatementCost::Kind::kRemap:
      return "remap";
    case StatementCost::Kind::kUnmodeled:
      return "unmodeled";
  }
  return "?";
}

void print_cost_json(const std::string& file, const CostReport& report) {
  for (std::size_t i = 0; i < report.statements.size(); ++i) {
    const StatementCost& s = report.statements[i];
    std::cout << "{\"type\":\"cost\",\"file\":\"" << json_escape(file)
              << "\",\"index\":" << i << ",\"line\":" << s.line
              << ",\"kind\":\"" << kind_name(s.kind) << "\",\"label\":\""
              << json_escape(s.label) << "\",\"text\":\""
              << json_escape(s.text) << "\",\"plan\":" << s.key_id
              << ",\"replay_of\":" << s.replay_of
              << ",\"messages\":" << s.stats.messages
              << ",\"bytes\":" << s.stats.bytes
              << ",\"transfers\":" << s.stats.element_transfers
              << ",\"flops\":" << s.stats.flops
              << ",\"local_reads\":" << s.local_reads
              << ",\"time_us\":" << json_number(s.stats.time_us)
              << ",\"exposed_us\":" << json_number(s.exposed_us())
              << ",\"hidden_us\":" << json_number(s.stats.hidden_comm_us)
              << ",\"sync_us\":" << json_number(s.phases.sync_us)
              << ",\"posted_us\":" << json_number(s.phases.posted_us)
              << ",\"compute_us\":" << json_number(s.phases.compute_us)
              << "}\n";
  }
  const hpfnt::analysis::CostTotals& t = report.totals;
  std::cout << "{\"type\":\"cost_totals\",\"file\":\"" << json_escape(file)
            << "\",\"statements\":" << report.statements.size()
            << ",\"messages\":" << t.messages << ",\"bytes\":" << t.bytes
            << ",\"transfers\":" << t.element_transfers
            << ",\"flops\":" << t.flops
            << ",\"local_reads\":" << t.local_reads
            << ",\"time_us\":" << json_number(t.time_us)
            << ",\"exposed_us\":" << json_number(t.exposed_comm_us)
            << ",\"hidden_us\":" << json_number(t.hidden_comm_us)
            << ",\"plans_priced\":" << report.plans_priced
            << ",\"plan_replays\":" << report.plan_replays
            << ",\"unmodeled\":" << report.unmodeled << "}\n";
}

void print_cost_table(const std::string& file, const CostReport& report) {
  // Rank by exposed communication, the time the statement cannot hide;
  // ties keep program order (stable sort).
  std::vector<const StatementCost*> ranked;
  ranked.reserve(report.statements.size());
  for (const StatementCost& s : report.statements) ranked.push_back(&s);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const StatementCost* a, const StatementCost* b) {
                     return a->exposed_us() > b->exposed_us();
                   });

  std::cout << "cost report: " << file << "\n";
  std::printf("  %4s %5s %5s %7s %9s %12s %12s %12s  %s\n", "rank", "line",
              "plan", "msgs", "bytes", "exposed(us)", "hidden(us)",
              "time(us)", "statement");
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    const StatementCost& s = *ranked[r];
    std::string plan = "#" + std::to_string(s.key_id);
    if (s.replay_of >= 0) plan += "*";  // predicted replay
    std::printf("  %4zu %5d %5s %7lld %9lld %12.3f %12.3f %12.3f  %s\n",
                r + 1, s.line, plan.c_str(),
                static_cast<long long>(s.stats.messages),
                static_cast<long long>(s.stats.bytes), s.exposed_us(),
                s.stats.hidden_comm_us, s.stats.time_us, s.text.c_str());
  }
  const hpfnt::analysis::CostTotals& t = report.totals;
  std::printf(
      "  totals: %lld msgs, %lld bytes, %lld local reads, time %.3fus "
      "(exposed %.3fus, hidden %.3fus)\n",
      static_cast<long long>(t.messages), static_cast<long long>(t.bytes),
      static_cast<long long>(t.local_reads), t.time_us, t.exposed_comm_us,
      t.hidden_comm_us);
  std::printf("  plans: %lld priced, %lld replay(s)",
              static_cast<long long>(report.plans_priced),
              static_cast<long long>(report.plan_replays));
  if (report.unmodeled > 0) {
    std::printf(", %lld unmodeled CALL(s)",
                static_cast<long long>(report.unmodeled));
  }
  std::printf("\n");
}

/// Executes the script for real and reports the measured totals — the
/// oracle the --cost predictions are compared against (CI does this
/// comparison for every example script on every push).
int run_exec(const Options& opts, const std::string& file,
             const std::string& source) {
  hpfnt::Machine machine(static_cast<hpfnt::Extent>(opts.procs));
  hpfnt::ProcessorSpace space(static_cast<hpfnt::Extent>(opts.procs));
  hpfnt::ProgramState state(machine);
  hpfnt::dir::Interpreter interp(space);
  interp.set_state(&state);
  try {
    interp.run(source);
  } catch (const hpfnt::HpfError& e) {
    std::cerr << "hpflint: execution of '" << file << "' failed: "
              << e.what() << "\n";
    return 1;
  }
  const hpfnt::CommEngine& comm = state.comm();
  const hpfnt::PlanCache& plans = state.plans();
  if (opts.json) {
    std::cout << "{\"type\":\"exec_totals\",\"file\":\"" << json_escape(file)
              << "\",\"steps\":" << interp.steps().size()
              << ",\"messages\":" << comm.total_messages()
              << ",\"bytes\":" << comm.total_bytes()
              << ",\"transfers\":" << comm.total_transfers()
              << ",\"local_reads\":" << comm.local_reads()
              << ",\"time_us\":" << json_number(comm.total_time_us())
              << ",\"exposed_us\":"
              << json_number(comm.total_exposed_comm_us())
              << ",\"hidden_us\":" << json_number(comm.total_hidden_comm_us())
              << ",\"plan_hits\":" << plans.hits()
              << ",\"plan_misses\":" << plans.misses() << "}\n";
  } else {
    std::printf(
        "executed %s: %lld msgs, %lld bytes, %lld local reads, time %.3fus "
        "(exposed %.3fus, hidden %.3fus), plans %lld hit(s) %lld miss(es)\n",
        file.c_str(), static_cast<long long>(comm.total_messages()),
        static_cast<long long>(comm.total_bytes()),
        static_cast<long long>(comm.local_reads()), comm.total_time_us(),
        comm.total_exposed_comm_us(), comm.total_hidden_comm_us(),
        static_cast<long long>(plans.hits()),
        static_cast<long long>(plans.misses()));
  }
  return 0;
}

/// --fix: applies the HS001 SHADOW fix-its in place (or reports them
/// under --dry-run). Returns 2 on I/O failure, else 0.
int run_fix(const Options& opts, const std::string& file,
            const std::string& source) {
  hpfnt::ProcessorSpace space(static_cast<hpfnt::Extent>(opts.procs));
  const hpfnt::analysis::FixPlan plan =
      hpfnt::analysis::plan_shadow_fixes(space, source);
  if (plan.empty()) {
    std::cout << file << ": nothing to fix\n";
    return 0;
  }
  for (const hpfnt::analysis::ShadowFix& fix : plan.fixes) {
    if (fix.replace_line > 0) {
      std::cout << file << ":" << fix.replace_line
                << ": " << (opts.dry_run ? "would replace with" : "replaced with")
                << " '" << fix.directive << "'\n";
    } else {
      std::cout << file << ":" << fix.insert_after << ": "
                << (opts.dry_run ? "would insert" : "inserted") << " '"
                << fix.directive << "' after this line\n";
    }
  }
  if (opts.dry_run) return 0;
  const std::string fixed = hpfnt::analysis::apply_fixes(source, plan);
  std::ofstream out(file, std::ios::trunc);
  if (!out) {
    std::cerr << "hpflint: cannot write '" << file << "'\n";
    return 2;
  }
  out << fixed;
  return 0;
}

int run(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, &opts)) {
    usage(std::cerr);
    return 2;
  }

  hpfnt::Machine machine(static_cast<hpfnt::Extent>(opts.procs));
  int total_errors = 0;
  int total_warnings = 0;
  int io_status = 0;

  for (const std::string& file : opts.files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "hpflint: cannot read '" << file << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
      // Opened but unreadable: a directory, a device, a permissions race.
      std::cerr << "hpflint: cannot read '" << file << "'\n";
      return 2;
    }
    const std::string source = buffer.str();
    if (source.empty()) {
      std::cerr << "hpflint: '" << file << "' is empty\n";
      return 2;
    }
    const std::vector<std::string> lines = split_lines(source);
    // A line over 1 MiB is not a directive script (the longest legitimate
    // line is a GENERAL_BLOCK bounds list, orders of magnitude shorter);
    // refuse early rather than feed a binary blob to the lexer.
    constexpr std::size_t kMaxLine = 1u << 20;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].size() > kMaxLine) {
        std::cerr << "hpflint: '" << file << "' line " << (i + 1)
                  << " exceeds 1 MiB; not a directive script\n";
        return 2;
      }
    }

    if (opts.fix) {
      const int status = run_fix(opts, file, source);
      if (status == 2) return 2;
      continue;
    }

    std::vector<Diagnostic> diagnostics;
    if (opts.cost) {
      // The cost walk reports its own bind errors (HF/HL) plus the
      // quantified HX notes; it subsumes the plain lint's error gate.
      const CostReport report = hpfnt::analysis::cost_script(
          machine, source, hpfnt::analysis::CostOptions{});
      diagnostics = report.diagnostics;
      if (opts.json) {
        print_cost_json(file, report);
      } else {
        print_cost_table(file, report);
      }
      total_errors += report.errors();
      for (const Diagnostic& d : diagnostics) {
        if (d.severity == Severity::kWarning) ++total_warnings;
      }
    } else {
      // A fresh processor space per script, as --cost, --exec and --fix
      // use: arrangements one script declares are not another's.
      hpfnt::ProcessorSpace space(static_cast<hpfnt::Extent>(opts.procs));
      const AnalysisResult result =
          hpfnt::analysis::analyze_script(space, source);
      diagnostics = result.diagnostics;
      total_errors += result.errors();
      total_warnings += result.warnings();
    }
    for (const Diagnostic& d : diagnostics) {
      if (!opts.notes && d.severity == Severity::kNote && !opts.json) continue;
      if (opts.json) {
        print_json(file, d);
      } else {
        print_human(file, d, lines);
      }
    }

    if (opts.exec) {
      io_status |= run_exec(opts, file, source);
    }
  }

  if (opts.fix) return 0;
  if (!opts.json) {
    std::cout << total_errors << " error(s), " << total_warnings
              << " warning(s)\n";
  }
  if (total_errors > 0 || io_status != 0) return 1;
  if (opts.werror && total_warnings > 0) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The exit contract is 0/1/2, never an abort: an exception no layer
  // turned into a diagnostic (an allocation the declared sizes cannot
  // satisfy, say) is reported on one line and exits 2.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hpflint: unexpected failure: " << e.what() << "\n";
    return 2;
  }
}
