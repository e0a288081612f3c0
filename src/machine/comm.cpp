#include "machine/comm.hpp"

#include <algorithm>
#include <utility>

// The plan struct lives with its cache in the exec layer; the engine fills
// it from its StepPricer at seal and reads its sealed statistics and flows
// on replay.
#include "exec/comm_plan.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

std::string StepStats::to_string() const {
  std::string s = cat(label, ": msgs=", messages, " bytes=", bytes,
                      " transfers=", element_transfers, " flops=", flops,
                      " time=", time_us, "us");
  // Purely synchronous steps keep the historical format — golden strings
  // recorded before split-phase pricing must not change.
  if (exposed_comm_us != 0.0 || hidden_comm_us != 0.0) {
    s += cat(" exposed=", exposed_comm_us, "us hidden=", hidden_comm_us,
             "us");
  }
  // Same golden-string rule for fault charges: a step that saw no fault
  // prints exactly as on the fault-free machine.
  if (retries != 0) {
    s += cat(" retries=", retries, " retry=", retry_us, "us");
  }
  return s;
}

namespace {

// The sorted-unique processor footprint of a sealed plan — the set the
// plan caches (PlanTable::lookup) intersect with the machine's failed set.
// One pass over the per-pair and per-processor rows, no sort.
std::vector<ApId> plan_footprint(const CommPlan& plan) {
  ApId top = -1;
  for (const PairFlow& f : plan.flows) top = std::max({top, f.src, f.dst});
  for (const PlanCompute& c : plan.computes) top = std::max(top, c.p);
  for (const MemoryDelta& m : plan.mem_ops) top = std::max(top, m.p);
  std::vector<char> seen(static_cast<std::size_t>(top + 1), 0);
  for (const PairFlow& f : plan.flows) {
    seen[static_cast<std::size_t>(f.src)] = 1;
    seen[static_cast<std::size_t>(f.dst)] = 1;
  }
  for (const PlanCompute& c : plan.computes) {
    seen[static_cast<std::size_t>(c.p)] = 1;
  }
  for (const MemoryDelta& m : plan.mem_ops) {
    seen[static_cast<std::size_t>(m.p)] = 1;
  }
  std::vector<ApId> procs;
  for (std::size_t p = 0; p < seen.size(); ++p) {
    if (seen[p]) procs.push_back(static_cast<ApId>(p));
  }
  return procs;
}

}  // namespace

CommEngine::CommEngine(const Machine& machine)
    : machine_(&machine), pricer_(machine.cost()) {}

void CommEngine::begin_step(std::string label) {
  if (recording_) {
    // A silent recording_.reset() here would lose a partial schedule
    // without a trace; an armed recording means the step that armed it
    // never reached end_step (it is still open, or it unwound mid-record),
    // so fail loudly instead of producing wrong stats.
    throw InternalError(
        "begin_step while a plan recording is armed: the step that armed "
        "it (label '" + label_ + "') never reached end_step");
  }
  if (in_step_) throw InternalError("begin_step inside an open step");
  in_step_ = true;
  posted_phase_ = false;
  label_ = std::move(label);
  pricer_.clear();
}

void CommEngine::begin_posted() {
  if (!in_step_) throw InternalError("begin_posted outside a step");
  if (posted_phase_) throw InternalError("begin_posted inside a posted phase");
  posted_phase_ = true;
}

void CommEngine::end_posted() {
  if (!posted_phase_) {
    throw InternalError("end_posted without a matching begin_posted");
  }
  posted_phase_ = false;
}

void CommEngine::record_into(std::shared_ptr<CommPlan> plan) {
  if (!in_step_) throw InternalError("record_into outside a step");
  recording_ = std::move(plan);
  if (recording_) {
    recording_->label = label_;
    recording_->flows.clear();
    recording_->computes.clear();
    recording_->mem_ops.clear();
    recording_->referenced_procs.clear();
    recording_->local_reads = 0;
    recording_->sealed = false;
  }
}

void CommEngine::transfer(ApId src, ApId dst, Extent bytes) {
  transfer_block(src, dst, bytes, 1);
}

void CommEngine::transfer_block(ApId src, ApId dst, Extent elem_bytes,
                                Extent count) {
  if (!in_step_) throw InternalError("transfer outside a step");
  if (count <= 0) return;
  if (src == dst) local_reads_ += count;
  pricer_.transfer_block(src, dst, elem_bytes, count, posted_phase_);
}

void CommEngine::compute(ApId p, Extent flops) {
  if (!in_step_) throw InternalError("compute outside a step");
  pricer_.compute(p, flops);
}

void CommEngine::count_local_reads(Extent n) {
  local_reads_ += n;
  pricer_.count_local_reads(n);
}

StepStats CommEngine::end_step() {
  if (!in_step_) throw InternalError("end_step without begin_step");
  if (posted_phase_) {
    throw InternalError("end_step inside an open posted phase");
  }
  in_step_ = false;

  // The statistics arithmetic is the shared StepPricer::price
  // (machine/step_pricer.hpp) — the same call the static cost model makes
  // over its predicted charges, so the two can never drift.
  StepStats stats = pricer_.price(label_);

  // Seal the recording with the BASE (fault-free) statistics first: a plan
  // is a reusable schedule, and faults are a property of one execution, not
  // of the schedule — every replay re-rolls them. Sealing before the roll
  // also means a retry-budget exhaustion below leaves the engine fully
  // closed (step done, recording disarmed), so the caller can catch and
  // re-issue.
  const std::shared_ptr<CommPlan> sealed = std::move(recording_);
  if (sealed) {
    CommPlan& plan = *sealed;
    plan.flows = pricer_.traffic();
    const std::vector<ApStepTable::Cell> rows = pricer_.compute_rows();
    plan.computes.reserve(rows.size());
    for (const ApStepTable::Cell& cell : rows) {
      plan.computes.push_back({cell.key, cell.payload});
    }
    plan.local_reads = pricer_.local_reads();
    plan.stats = stats;
    plan.referenced_procs = plan_footprint(plan);
    plan.sealed = true;
  }

  if (faults_.enabled()) {
    const FaultCharge charge =
        sealed ? faults_.roll(sealed->flows, machine_->cost(), stats.label)
               : faults_.roll(pricer_.traffic(), machine_->cost(),
                              stats.label);
    stats.retries = charge.retries;
    stats.retry_us = charge.retry_us;
    stats.time_us += charge.retry_us;
  }

  total_messages_ += stats.messages;
  total_bytes_ += stats.bytes;
  total_transfers_ += stats.element_transfers;
  total_time_us_ += stats.time_us;
  total_exposed_us_ += stats.exposed_comm_us;
  total_hidden_us_ += stats.hidden_comm_us;
  total_retries_ += stats.retries;
  total_retry_us_ += stats.retry_us;
  return stats;
}

void CommEngine::abort_step() noexcept {
  in_step_ = false;
  posted_phase_ = false;
  recording_.reset();
  pricer_.clear();
}

StepStats CommEngine::replay(const CommPlan& plan, const std::string& label) {
  if (in_step_) throw InternalError("replay inside an open step");
  if (!plan.sealed) {
    // An unsealed plan's stats field is default-constructed (or partial);
    // accumulating it would silently corrupt the cumulative counters.
    throw InternalError(
        "replay of an unsealed plan: its recording never reached end_step, "
        "so it holds no complete priced schedule");
  }
  StepStats stats = plan.stats;
  if (!label.empty()) stats.label = label;

  // Replay re-rolls faults over the plan's sealed flows — the canonical
  // StepPricer::traffic() order, so a replayed step consumes the same RNG
  // draws a cold pricing of the same schedule would. The roll happens before
  // ANY counter moves: an exhausted retry budget throws with the engine
  // totals untouched. A sealed plan always carries fault-free stats
  // (retries==0), so the charge below never double-counts.
  if (faults_.enabled()) {
    const FaultCharge charge =
        faults_.roll(plan.flows, machine_->cost(), stats.label);
    stats.retries = charge.retries;
    stats.retry_us = charge.retry_us;
    stats.time_us += charge.retry_us;
  }

  total_messages_ += stats.messages;
  total_bytes_ += stats.bytes;
  total_transfers_ += stats.element_transfers;
  total_time_us_ += stats.time_us;
  total_exposed_us_ += stats.exposed_comm_us;
  total_hidden_us_ += stats.hidden_comm_us;
  total_retries_ += stats.retries;
  total_retry_us_ += stats.retry_us;
  local_reads_ += plan.local_reads;
  return stats;
}

void CommEngine::post(const CommPlan& plan) {
  if (in_step_) throw InternalError("post inside an open step");
  if (!plan.sealed) {
    throw InternalError(
        "post of an unsealed plan: only a complete priced schedule can be "
        "put in flight");
  }
  if (posted_plan_) {
    throw InternalError(
        "post while another plan is already in flight: wait() for it first");
  }
  posted_plan_ = &plan;
}

StepStats CommEngine::wait(const CommPlan& plan, const std::string& label) {
  if (in_step_) throw InternalError("wait inside an open step");
  if (posted_plan_ != &plan) {
    throw InternalError(posted_plan_
                            ? "wait on a plan that is not the one in flight"
                            : "wait without a posted plan");
  }
  posted_plan_ = nullptr;
  return replay(plan, label);
}

void CommEngine::reset() {
  if (in_step_) throw InternalError("reset inside an open step");
  if (posted_plan_) {
    throw InternalError("reset with a posted plan still in flight");
  }
  total_messages_ = 0;
  total_bytes_ = 0;
  total_transfers_ = 0;
  local_reads_ = 0;
  total_time_us_ = 0.0;
  total_exposed_us_ = 0.0;
  total_hidden_us_ = 0.0;
  total_retries_ = 0;
  total_retry_us_ = 0.0;
}

}  // namespace hpfnt
