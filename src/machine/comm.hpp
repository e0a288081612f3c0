// The message engine: records point-to-point transfers between simulated
// processors, batched into *steps*.
//
// A step models one compiler-generated communication phase (the vectorized
// messages of one array assignment, one remap, one call-site copy): all
// element transfers between the same (src, dst) pair within a step ride in
// ONE message, which is how distributed-memory compilers of the era
// aggregated communication (SUPERB/Vienna Fortran message vectorization,
// [13] in the paper).
//
// Split-phase steps. A step's transfers live in one of two phases:
//
//   * the SYNC phase (the default): transfers that must complete before the
//     step's computation can run — a synchronous barrier exchange;
//   * the POSTED phase (bracketed by begin_posted/end_posted): boundary
//     transfers that were posted up front and complete concurrently with
//     the step's interior computation, because every value they deliver
//     lands in a declared shadow (ghost) region that no interior
//     computation reads.
//
// Pricing. With C = the step's compute time (max over processors),
// V = the BSP bound of the posted exchange, and X = the BSP bound of the
// sync exchange, a step costs
//
//     time_us = max(C, V) + X
//
// i.e. posted communication is overlapped with computation and only its
// excess over the compute time is exposed; sync communication is serial as
// before. StepStats splits the posted bound honestly:
//
//     hidden_comm_us  = min(V, C)   -- paid for by overlap
//     exposed_comm_us = V - hidden  -- posted comm the compute cannot hide
//
// A step with no posted transfers has V = 0, so time_us = C + X,
// hidden = exposed = 0: byte-identical to the pre-split-phase model. That
// collapse is the differential oracle — split-phase with zero shadow IS
// the old synchronous step.
//
// The accumulation and the formula itself are implemented once, in
// machine/step_pricer.hpp (StepPricer): this engine charges its steps
// through an embedded pricer, and the static cost model
// (analysis/cost_model.hpp) predicts steps through its own instance of the
// same class, so prediction and execution share one arithmetic.
//
// Each BSP bound is the max over processors of the α+βn cost of the
// messages a processor sends/receives within that phase; a (src, dst) pair
// active in both phases carries two messages (the posted one really is a
// separate message on the wire). Step statistics therefore report
//   messages = distinct (src,dst) pairs, summed over the two phases,
//   bytes    = total payload across both phases,
//   time     = max(compute, posted comm) + sync comm, per the formula.
//
// Plan replay is split-phase too: post(plan) marks a sealed plan's
// boundary exchange as in flight, wait(plan) completes it and accumulates
// the plan's (already overlap-priced) statistics; replay(plan) is the
// fused post+wait. Ordinary begin_step/end_step steps may run between a
// post and its wait — that is the point of posting.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "fault/fault_model.hpp"
#include "machine/step_accum.hpp"
#include "machine/step_pricer.hpp"
#include "machine/topology.hpp"

namespace hpfnt {

// A recorded, priced step schedule (defined with its cache in
// exec/comm_plan.hpp; the engine fills it at seal and reads it on replay).
struct CommPlan;

struct StepStats {
  std::string label;
  Extent messages = 0;        // distinct (src,dst) pairs, both phases
  Extent bytes = 0;           // total payload bytes, both phases
  Extent element_transfers = 0;  // individual remote element reads/copies
  Extent flops = 0;
  double time_us = 0.0;          // max(compute, posted comm) + sync comm
  double exposed_comm_us = 0.0;  // posted comm the compute could not hide
  double hidden_comm_us = 0.0;   // posted comm overlapped with compute
  // Fault injection (src/fault/): re-issued messages and their priced
  // backoff+resend cost, already folded into time_us. Zero on the
  // fault-free machine, so the struct stays byte-identical to the
  // pre-fault model whenever no fault fires.
  Extent retries = 0;
  double retry_us = 0.0;

  std::string to_string() const;
};

class CommEngine {
 public:
  explicit CommEngine(const Machine& machine);

  /// Opens a new step; transfers recorded until end_step are batched.
  void begin_step(std::string label);

  /// One element-sized payload from src to dst (same-processor transfers
  /// are local and free; they are counted as local reads only).
  void transfer(ApId src, ApId dst, Extent bytes);

  /// A run of `count` equal-sized element payloads from src to dst — the
  /// priced form of one constant-owner segment (core/layout_view.hpp).
  /// Exactly equivalent to calling transfer(src, dst, elem_bytes) `count`
  /// times, in one call.
  void transfer_block(ApId src, ApId dst, Extent elem_bytes, Extent count);

  /// Brackets the POSTED phase of the open step: transfers charged between
  /// begin_posted and end_posted are boundary transfers overlapped with the
  /// step's computation (they land in shadow regions), and are priced by
  /// the max(compute, posted)+sync formula above. May be opened and closed
  /// several times within one step (once per covered operand).
  void begin_posted();
  void end_posted();

  /// Computation attributed to a processor within the step.
  void compute(ApId p, Extent flops);

  /// Closes the step, computes its statistics, accumulates totals.
  StepStats end_step();

  /// Arms recording of the open step into `plan`: end_step seals the plan
  /// with the step's per-pair flows (posted-phase traffic tagged
  /// PairFlow::posted), per-processor compute rows, local-read tally and
  /// statistics, all read from the step's StepPricer — so recording adds
  /// nothing per charge. Arm it right after begin_step: the plan holds the
  /// whole step. The engine shares ownership of the plan, so it stays valid
  /// even if the recorded step unwinds before end_step. Recording disarms only at end_step; a begin_step while a
  /// recording is still armed throws InternalError rather than silently
  /// dropping the partial schedule.
  void record_into(std::shared_ptr<CommPlan> plan);

  /// Re-issues a sealed plan as one step: accumulates the plan's recorded
  /// statistics and local-read tally into the engine totals without
  /// re-walking any ownership structure. Returns the plan's StepStats
  /// (relabelled with `label` when non-empty) — byte-identical to
  /// re-pricing the recorded schedule, since end_step's statistics are a
  /// pure function of the recorded operations.
  StepStats replay(const CommPlan& plan, const std::string& label = "");

  /// Split-phase replay: post() marks the sealed plan's boundary exchange
  /// as in flight (no statistics move yet); wait() completes it,
  /// accumulating the plan's overlap-priced statistics exactly as replay
  /// would. Exactly one plan may be in flight at a time, wait must name
  /// the posted plan, and ordinary steps may open and close in between —
  /// that interleaving is what posting buys.
  void post(const CommPlan& plan);
  StepStats wait(const CommPlan& plan, const std::string& label = "");

  /// Whether the exec layer should post covered boundary transfers at all.
  /// Off, every step prices synchronously (the oracle the benches compare
  /// against); the flag never changes how a sealed plan replays.
  bool overlap_enabled() const noexcept { return overlap_enabled_; }
  void set_overlap_enabled(bool on) noexcept { overlap_enabled_ = on; }

  // --- transient-fault injection (src/fault/fault_model.hpp) -------------
  //
  // With a nonzero fault probability configured, every closing step (and
  // every plan replay — sealed plans stay fault-free, faults re-roll per
  // re-issue) rolls per-message faults in the canonical traffic order and
  // folds the priced retries into its StepStats. A message exhausting its
  // retry budget throws TransferFaultError AFTER the step is closed and
  // any recording disarmed, and BEFORE any cumulative counter moves — the
  // engine is immediately reusable and the totals are all-or-nothing.

  /// Installs a fault configuration and rewinds the fault RNG to its seed.
  void set_fault_config(const FaultConfig& config) {
    faults_.configure(config);
  }
  const FaultConfig& fault_config() const noexcept { return faults_.config(); }
  bool faults_enabled() const noexcept { return faults_.enabled(); }

  Extent total_retries() const noexcept { return total_retries_; }
  double total_retry_us() const noexcept { return total_retry_us_; }

  /// Abandons the open step (if any): closes it, discards its charges, and
  /// disarms any plan recording — nothing is priced or accumulated. Also
  /// clears an unclosed posted phase. Idempotent, safe outside a step; the
  /// unwind path of the exec layer's StepGuard.
  void abort_step() noexcept;

  // --- cumulative counters ---
  Extent total_messages() const noexcept { return total_messages_; }
  Extent total_bytes() const noexcept { return total_bytes_; }
  Extent total_transfers() const noexcept { return total_transfers_; }
  double total_time_us() const noexcept { return total_time_us_; }
  double total_exposed_comm_us() const noexcept { return total_exposed_us_; }
  double total_hidden_comm_us() const noexcept { return total_hidden_us_; }
  Extent local_reads() const noexcept { return local_reads_; }
  void count_local_read() { count_local_reads(1); }
  void count_local_reads(Extent n);

  void reset();

  const Machine& machine() const noexcept { return *machine_; }

 private:
  const Machine* machine_;
  bool in_step_ = false;
  bool posted_phase_ = false;
  bool overlap_enabled_ = true;
  std::shared_ptr<CommPlan> recording_;
  const CommPlan* posted_plan_ = nullptr;
  std::string label_;
  // All per-step accumulation and the end_step statistics arithmetic live
  // in the shared StepPricer (machine/step_pricer.hpp), the single pricing
  // implementation this engine and the static cost model
  // (analysis/cost_model.hpp) both consume — a predicted step and an
  // executed step can therefore never price differently.
  StepPricer pricer_;
  FaultModel faults_;

  Extent total_messages_ = 0;
  Extent total_bytes_ = 0;
  Extent total_transfers_ = 0;
  Extent local_reads_ = 0;
  double total_time_us_ = 0.0;
  double total_exposed_us_ = 0.0;
  double total_hidden_us_ = 0.0;
  Extent total_retries_ = 0;
  double total_retry_us_ = 0.0;
};

/// Scope guard for the exec layer's cold (recording) paths: any exception
/// thrown between begin_step and end_step — a ConformanceError from a
/// conformance check, a TransferFaultError from an exhausted retry budget —
/// unwinds through ~StepGuard, which aborts the half-charged step so the
/// engine (and its cumulative totals) are exactly as before begin_step.
/// Call dismiss() once end_step has run.
class StepGuard {
 public:
  explicit StepGuard(CommEngine& engine) noexcept : engine_(&engine) {}
  ~StepGuard() {
    if (engine_) engine_->abort_step();
  }
  void dismiss() noexcept { engine_ = nullptr; }

  StepGuard(const StepGuard&) = delete;
  StepGuard& operator=(const StepGuard&) = delete;

 private:
  CommEngine* engine_;
};

}  // namespace hpfnt
