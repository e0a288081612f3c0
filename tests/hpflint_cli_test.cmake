# Golden-output tests for the hpflint CLI (cmake -P script, registered as
# one ctest by tests/CMakeLists.txt). Covers the contract the docs promise:
# exit statuses (0 clean / 1 errors-or-werror-warnings / 2 usage-or-IO),
# the --json line schema, --werror promotion, the --cost report (and its
# differential guarantee: predicted totals equal --exec measured totals,
# compared here with string(JSON)), and --fix application + idempotency.
#
# Expects: -DHPFLINT=<path to binary> -DSOURCE_DIR=<repo root>
#          -DWORK_DIR=<scratch dir>
cmake_minimum_required(VERSION 3.20)  # script mode: get NEW if() policies

if(NOT HPFLINT OR NOT SOURCE_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DHPFLINT=... -DSOURCE_DIR=... -DWORK_DIR=... -P hpflint_cli_test.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(SCRIPTS "${SOURCE_DIR}/examples/scripts")
set(failures 0)

# check(<label> <if-condition>...): everything after the label is evaluated
# as an if() condition (so `check("..." idx GREATER -1)` works).
function(check label)
  if(${ARGN})
    message(STATUS "ok: ${label}")
  else()
    message(SEND_ERROR "FAIL: ${label}")
    math(EXPR n "${failures} + 1")
    set(failures ${n} PARENT_SCOPE)
  endif()
endfunction()

macro(run_hpflint expect_status)
  execute_process(COMMAND ${HPFLINT} ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status EQUAL ${expect_status})
    check("hpflint ${ARGN}: exit ${status}, expected ${expect_status}" FALSE)
  else()
    check("hpflint ${ARGN}: exit ${expect_status}" TRUE)
  endif()
endmacro()

# --- exit statuses ----------------------------------------------------------
run_hpflint(0 "${SCRIPTS}/jacobi.hpf")
run_hpflint(0 "${SCRIPTS}/remap_loop.hpf")
# Warnings alone pass...
run_hpflint(0 "${SCRIPTS}/bad_undershadow.hpf")
string(FIND "${out}" "HS001" has_hs001)
check("bad_undershadow reports HS001" has_hs001 GREATER -1)
# ...unless promoted.
run_hpflint(1 --werror "${SCRIPTS}/bad_undershadow.hpf")
# Errors fail.
file(WRITE "${WORK_DIR}/undeclared.hpf" "!HPF$ DISTRIBUTE X(BLOCK)\n")
run_hpflint(1 "${WORK_DIR}/undeclared.hpf")
# Each script lints in its own processor space, as under --cost: two
# scripts may declare the same arrangement.
file(WRITE "${WORK_DIR}/procs.hpf"
  "REAL A(8)\n!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\n")
file(COPY "${WORK_DIR}/procs.hpf" DESTINATION "${WORK_DIR}/again")
run_hpflint(0 "${WORK_DIR}/procs.hpf" "${WORK_DIR}/again/procs.hpf")
run_hpflint(0 --cost "${WORK_DIR}/procs.hpf" "${WORK_DIR}/again/procs.hpf")
# Usage and I/O problems are status 2.
run_hpflint(2 --bogus-flag)
run_hpflint(2 "${WORK_DIR}/no_such_file.hpf")
run_hpflint(2 --dry-run "${SCRIPTS}/jacobi.hpf")  # --dry-run needs --fix
# Degenerate inputs are refused with a one-line message, not linted.
file(WRITE "${WORK_DIR}/empty.hpf" "")
run_hpflint(2 "${WORK_DIR}/empty.hpf")
string(FIND "${err}" "is empty" has_empty_msg)
check("empty file refused with one-line message" has_empty_msg GREATER -1)
# A >1MiB single line is not a directive script (e.g. a binary blob).
string(REPEAT "x" 2097152 huge_line)
file(WRITE "${WORK_DIR}/huge_line.hpf" "${huge_line}")
run_hpflint(2 "${WORK_DIR}/huge_line.hpf")
string(FIND "${err}" "exceeds 1 MiB" has_huge_msg)
check("oversized line refused with one-line message" has_huge_msg GREATER -1)
# A directory opens but cannot be read as a script.
file(MAKE_DIRECTORY "${WORK_DIR}/a_directory.hpf")
run_hpflint(2 "${WORK_DIR}/a_directory.hpf")

# An exception no layer turns into a diagnostic still exits 2 with one
# line, never an abort (134): a 2e9 x 2e9 array lints clean, but its
# storage cannot be allocated when --exec runs it. (At 4e9 x 4e9 the
# element count itself wraps int64; that declaration is refused below.)
file(WRITE "${WORK_DIR}/huge_array.hpf"
  "REAL A(2000000000,2000000000)\n!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n")
run_hpflint(2 --exec "${WORK_DIR}/huge_array.hpf")
string(FIND "${err}" "hpflint: unexpected failure:" has_failure_msg)
check("unallocatable --exec array exits 2 with one-line message"
      has_failure_msg GREATER -1)

# A mapping error raised while executing a statement names its line, as
# the lint diagnostic of the same statement does.
file(WRITE "${WORK_DIR}/zero_stride.hpf"
  "REAL A(10)\nA(10:1:-1) = A(1:10:0)\n")
run_hpflint(1 --exec "${WORK_DIR}/zero_stride.hpf")
string(FIND "${out}" "zero_stride.hpf:2:1: error: [HF001]" has_lint_line)
check("zero stride: lint reports line 2, column 1" has_lint_line GREATER -1)
string(FIND "${err}" "failed: mapping error at 2:1: subscript triplet stride must be nonzero" has_exec_line)
check("zero stride: execution error reports line 2" has_exec_line GREATER -1)

# Lint applies the executor's assignment gate: a target section outside
# its array is the same located HF001 the execution error reports.
file(WRITE "${WORK_DIR}/oob_target.hpf"
  "REAL A(10)\n!HPF$ DISTRIBUTE A(BLOCK)\nA(1:11) = 1\n")
run_hpflint(1 "${WORK_DIR}/oob_target.hpf")
string(FIND "${out}" "oob_target.hpf:3:1: error: [HF001] section 1:11 leaves dimension 1" has_oob)
check("out-of-bounds target: lint reports HF001 at 3:1" has_oob GREATER -1)

# A BLOCK extent near the Extent maximum: the block size is a ceiling
# division that must not wrap. Lint and --cost accept the statement and
# price it; --exec cannot allocate the storage and exits 2 with one line.
file(WRITE "${WORK_DIR}/block_max.hpf"
  "REAL A(1:9223372036854775807)\n!HPF$ DISTRIBUTE A(BLOCK)\nA(1:10) = A(2:11)\n")
run_hpflint(0 "${WORK_DIR}/block_max.hpf")
run_hpflint(0 --cost "${WORK_DIR}/block_max.hpf")
string(FIND "${out}" "totals: 0 msgs, 0 bytes, 10 local reads" has_priced)
check("block_max --cost prices 10 local reads and no message"
      has_priced GREATER -1)
run_hpflint(2 --exec "${WORK_DIR}/block_max.hpf")
string(REGEX MATCHALL "\n" err_lines "${err}")
list(LENGTH err_lines n_err_lines)
string(FIND "${err}" "hpflint: unexpected failure:" has_failure_msg)
check("block_max --exec exits 2 with one line"
      has_failure_msg EQUAL 0 AND n_err_lines EQUAL 1)

# Sizes an Extent cannot hold are refused where the array is declared, in
# every mode: a triplet whose span wraps int64 (before the check, --exec
# segfaulted on it) and a domain whose element count does. The error is
# located at 1:1, and the later statements naming the undeclared array add
# no cascade of "unknown array" errors.
file(WRITE "${WORK_DIR}/wide_triplet.hpf"
  "REAL A(-9223372036854775807:9223372036854775807)\n!HPF$ DISTRIBUTE A(BLOCK)\nA(1:10) = A(2:11)\n")
file(WRITE "${WORK_DIR}/wide_domain.hpf"
  "REAL A(4000000000,4000000000)\n!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n")
set(wide_triplet_msg "subscript triplet -9223372036854775807:9223372036854775807 has more indices than an extent can hold")
set(wide_domain_msg "index domain (1:4000000000, 1:4000000000) has more elements than an extent can hold")
foreach(case IN ITEMS wide_triplet wide_domain)
  foreach(mode IN ITEMS "" --cost --exec)
    run_hpflint(1 ${mode} "${WORK_DIR}/${case}.hpf")
    string(FIND "${out}" "${case}.hpf:1:1: error" has_line)
    string(FIND "${out}" "${${case}_msg}" has_msg)
    check("${case} ${mode}: located error at line 1, column 1"
          has_line GREATER -1 AND has_msg GREATER -1)
    string(FIND "${out}" "\n1 error(s), 0 warning(s)" one_error)
    check("${case} ${mode}: exactly one error" one_error GREATER -1)
  endforeach()
  string(FIND "${err}" "error at 1:1: ${${case}_msg}" has_exec_line)
  check("${case}: execution error reports line 1" has_exec_line GREATER -1)
endforeach()

# A CYCLIC(k) block cycle k*NP that wraps int64 is refused where the
# mapping is bound, in every mode. (Before the check it wrapped to 0 and
# --cost/--exec died dividing by it, SIGFPE, exit 136.)
file(WRITE "${WORK_DIR}/cyclic_wrap.hpf"
  "REAL A(64)\n!HPF$ DISTRIBUTE A(CYCLIC(4611686018427387904))\nA(1:10) = A(2:11)\n")
set(cyclic_wrap_msg "CYCLIC(4611686018427387904) over 32 processors: the block cycle k*NP overflows the index range")
foreach(mode IN ITEMS "" --cost --exec)
  run_hpflint(1 ${mode} "${WORK_DIR}/cyclic_wrap.hpf")
  string(FIND "${out}" "cyclic_wrap.hpf:2:1: error: [HL003] ${cyclic_wrap_msg}" has_line)
  check("cyclic_wrap ${mode}: located error at line 2" has_line GREATER -1)
endforeach()
string(FIND "${err}" "error at 2:1: ${cyclic_wrap_msg}" has_exec_line)
check("cyclic_wrap: execution error reports line 2" has_exec_line GREATER -1)
# The failed DISTRIBUTE leaves A on a mapping the script never asked for,
# so line 3 is neither linted nor priced: no HC003/HS001 about it, no cost
# row, and nothing in the totals.
foreach(mode IN ITEMS "" --cost)
  run_hpflint(1 ${mode} "${WORK_DIR}/cyclic_wrap.hpf")
  string(FIND "${out}" "cyclic_wrap.hpf:3" has_line3)
  check("cyclic_wrap ${mode}: no diagnostic for line 3" has_line3 EQUAL -1)
endforeach()
string(FIND "${out}" "totals: 0 msgs, 0 bytes" has_zero_totals)
check("cyclic_wrap --cost: line 3 is not priced" has_zero_totals GREATER -1)
string(FIND "${out}" "plans: 0 priced" has_no_plans)
check("cyclic_wrap --cost: no plan priced" has_no_plans GREATER -1)

# A SHADOW width larger than its dimension's extent names elements that do
# not exist; it is refused at the SHADOW line in every mode (before the
# check, both scripts exited 0 everywhere, the int64-maximum width too).
file(WRITE "${WORK_DIR}/shadow_max.hpf"
  "REAL A(10)\n!HPF$ DISTRIBUTE A(BLOCK)\n!HPF$ SHADOW A(9223372036854775807:9223372036854775807)\nA(2:9) = A(1:8) + A(3:10)\n")
file(WRITE "${WORK_DIR}/shadow_wide.hpf"
  "REAL A(10)\n!HPF$ DISTRIBUTE A(BLOCK)\n!HPF$ SHADOW A(11:11)\nA(2:9) = A(1:8) + A(3:10)\n")
set(shadow_max_msg "SHADOW width 9223372036854775807 of dimension 1 of 'A' exceeds its extent 10")
set(shadow_wide_msg "SHADOW width 11 of dimension 1 of 'A' exceeds its extent 10")
foreach(case IN ITEMS shadow_max shadow_wide)
  foreach(mode IN ITEMS "" --cost --exec)
    run_hpflint(1 ${mode} "${WORK_DIR}/${case}.hpf")
    string(FIND "${out}" "${case}.hpf:3:1: error: [HL003] ${${case}_msg}" has_line)
    check("${case} ${mode}: located error at line 3" has_line GREATER -1)
  endforeach()
  string(FIND "${err}" "error at 3:1: ${${case}_msg}" has_exec_line)
  check("${case}: execution error reports line 3" has_exec_line GREATER -1)
endforeach()

# An identity-aligned array has its base's mapping (CONSTRUCT(id, δ) = δ,
# Definition 4), so the phase rules treat it as that mapping, in every mode:
# a stencil between U (BLOCK, SHADOW U(1:1)) and V prints exactly what it
# prints with V distributed like U. With V on the left both reads post into
# U's shadow (before, they classified SYNC-REMOTE and the SHADOW was
# reported dead); with V read, its missing shadow is the HS001 it is for
# the BLOCK twin. A copy onto an array identity-aligned to its source reads
# locally (before: HC003).
set(stencil_head "REAL U(64)\nREAL V(64)\n!HPF$ PROCESSORS Q(4)\n!HPF$ DISTRIBUTE U(BLOCK) ONTO Q\n!HPF$ SHADOW U(1:1)\n")
set(stencil_lhs_body "V(2:63) = (U(1:62) + U(3:64)) / 2\n")
set(stencil_leaf_body "U(2:63) = (V(1:62) + V(3:64)) / 2\n")
foreach(role lhs leaf)
  file(WRITE "${WORK_DIR}/stencil_${role}_align.hpf"
    "${stencil_head}!HPF$ ALIGN V(I) WITH U(I)\n${stencil_${role}_body}")
  file(WRITE "${WORK_DIR}/stencil_${role}_block.hpf"
    "${stencil_head}!HPF$ DISTRIBUTE V(BLOCK) ONTO Q\n${stencil_${role}_body}")
endforeach()
file(WRITE "${WORK_DIR}/aligned_copy.hpf"
  "REAL A(64)\nREAL B(64)\n!HPF$ DISTRIBUTE A(BLOCK)\n!HPF$ ALIGN B(I) WITH A(I)\nB(1:64) = A(1:64)\n")
foreach(mode IN ITEMS "" --cost --exec)
  foreach(role lhs leaf)
    run_hpflint(0 ${mode} "${WORK_DIR}/stencil_${role}_block.hpf")
    string(REPLACE "stencil_${role}_block.hpf" "stencil.hpf" block_out "${out}")
    run_hpflint(0 ${mode} "${WORK_DIR}/stencil_${role}_align.hpf")
    string(REPLACE "stencil_${role}_align.hpf" "stencil.hpf" align_out "${out}")
    check("stencil ${role} ${mode}: identity ALIGN prints what BLOCK prints"
          align_out STREQUAL block_out)
  endforeach()
  # --cost prints no lint notes; its heaviest pair names the phase.
  if(mode STREQUAL "--cost")
    set(posted_note "(4 bytes, posted)")
    set(local_note "totals: 0 msgs, 0 bytes, 64 local reads")
  else()
    set(posted_note "[HC002] operand U(1:62): POSTED")
    set(local_note "aligned_copy.hpf:5:11: note: [HC001] operand A(1:64): LOCAL")
  endif()
  run_hpflint(0 ${mode} "${WORK_DIR}/stencil_lhs_align.hpf")
  string(FIND "${out}" "${posted_note}" has_posted)
  check("stencil lhs ${mode}: the aligned LHS posts its reads"
        has_posted GREATER -1)
  if(NOT mode STREQUAL "--cost")
    run_hpflint(0 ${mode} "${WORK_DIR}/stencil_leaf_align.hpf")
    string(FIND "${out}" "[HS001] operand V(1:62)" has_hs001)
    check("stencil leaf ${mode}: the aligned leaf's missing SHADOW is HS001"
          has_hs001 GREATER -1)
  endif()
  run_hpflint(0 ${mode} "${WORK_DIR}/aligned_copy.hpf")
  string(FIND "${out}" "${local_note}" has_local)
  string(FIND "${out}" "HC003" has_sync)
  check("aligned_copy ${mode}: reads locally, no HC003"
        has_local GREATER -1 AND has_sync EQUAL -1)
endforeach()

# --- --json line schema -----------------------------------------------------
run_hpflint(0 --json "${SCRIPTS}/bad_undershadow.hpf")
string(REGEX REPLACE "\n$" "" json_out "${out}")
string(REPLACE "\n" ";" json_lines "${json_out}")
foreach(line IN LISTS json_lines)
  string(JSON code ERROR_VARIABLE json_err GET "${line}" "code")
  if(json_err)
    check("--json line parses and has 'code': ${line}" FALSE)
  else()
    string(JSON file_field GET "${line}" "file")
    if(NOT file_field MATCHES "bad_undershadow")
      check("--json line carries the file name" FALSE)
    endif()
  endif()
endforeach()
check("--json emitted diagnostic lines" json_lines)

# --- --cost report and the differential guarantee ---------------------------
run_hpflint(0 --cost "${SCRIPTS}/remap_loop.hpf")
string(FIND "${out}" "plans: 4 priced, 5 replay(s)" has_plans)
check("--cost remap_loop predicts 4 plans / 5 replays" has_plans GREATER -1)
string(FIND "${out}" "HX002" has_hx002)
check("--cost remap_loop emits HX002 replay notes" has_hx002 GREATER -1)

foreach(script jacobi remap_loop alignment bad_undershadow)
  run_hpflint(0 --cost --exec --json "${SCRIPTS}/${script}.hpf")
  string(REGEX REPLACE "\n$" "" json_out "${out}")
  string(REPLACE "\n" ";" json_lines "${json_out}")
  set(cost_totals "")
  set(exec_totals "")
  foreach(line IN LISTS json_lines)
    string(JSON type ERROR_VARIABLE json_err GET "${line}" "type")
    if(NOT json_err)
      if(type STREQUAL "cost_totals")
        set(cost_totals "${line}")
      elseif(type STREQUAL "exec_totals")
        set(exec_totals "${line}")
      endif()
    endif()
  endforeach()
  check("${script}: cost_totals line present" cost_totals)
  check("${script}: exec_totals line present" exec_totals)
  if(cost_totals AND exec_totals)
    # Predicted == executed, field by field — the differential guarantee.
    foreach(field messages bytes transfers local_reads time_us exposed_us hidden_us)
      string(JSON predicted GET "${cost_totals}" "${field}")
      string(JSON executed GET "${exec_totals}" "${field}")
      if(NOT predicted STREQUAL executed)
        check("${script}: predicted ${field}=${predicted} == executed ${executed}" FALSE)
      endif()
    endforeach()
    string(JSON priced GET "${cost_totals}" "plans_priced")
    string(JSON replays GET "${cost_totals}" "plan_replays")
    string(JSON misses GET "${exec_totals}" "plan_misses")
    string(JSON hits GET "${exec_totals}" "plan_hits")
    if(NOT priced STREQUAL misses)
      check("${script}: plans_priced ${priced} == plan_misses ${misses}" FALSE)
    endif()
    if(NOT replays STREQUAL hits)
      check("${script}: plan_replays ${replays} == plan_hits ${hits}" FALSE)
    endif()
    check("${script}: predicted totals match execution" TRUE)
  endif()
endforeach()

# --- --fix application and idempotency --------------------------------------
file(COPY "${SCRIPTS}/bad_undershadow.hpf" DESTINATION "${WORK_DIR}")
set(fixme "${WORK_DIR}/bad_undershadow.hpf")
run_hpflint(0 --fix --dry-run "${fixme}")
string(FIND "${out}" "would insert '!HPF\$ SHADOW U(1:1)'" has_dry)
check("--fix --dry-run plans SHADOW U(1:1)" has_dry GREATER -1)
file(READ "${fixme}" before_fix)
file(READ "${SCRIPTS}/bad_undershadow.hpf" pristine)
if(NOT before_fix STREQUAL pristine)
  check("--dry-run left the file untouched" FALSE)
endif()
run_hpflint(0 --fix "${fixme}")
file(READ "${fixme}" after_fix)
string(FIND "${after_fix}" "!HPF\$ SHADOW U(1:1)" has_shadow)
check("--fix inserted the SHADOW directive" has_shadow GREATER -1)
run_hpflint(0 --werror "${fixme}")  # HS001 gone: clean even under --werror
run_hpflint(0 --fix "${fixme}")
string(FIND "${out}" "nothing to fix" second_pass)
check("--fix is idempotent (second pass: nothing to fix)" second_pass GREATER -1)
file(READ "${fixme}" after_second)
if(NOT after_fix STREQUAL after_second)
  check("--fix second pass left the file unchanged" FALSE)
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} hpflint CLI golden check(s) failed")
endif()
message(STATUS "hpflint CLI golden checks passed")
