#include "machine/comm.hpp"

#include <algorithm>
#include <map>
#include <utility>

// The plan struct lives with its cache in the exec layer; the engine only
// appends operations to it while recording and reads its sealed statistics
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

// A sealed plan's per-pair flows, aggregated back into the canonical
// StepPricer::traffic() order (sync flows then posted flows, each sorted by
// (src, dst)) so a replay's fault rolls consume the RNG stream exactly as
// the cold pricing of the same step would.
std::vector<PairFlow> aggregate_plan_flows(const CommPlan& plan) {
  std::map<std::pair<ApId, ApId>, std::pair<Extent, Extent>> sync, posted;
  for (const PlanTransfer& t : plan.transfers) {
    auto& acc = (t.posted ? posted : sync)[{t.src, t.dst}];
    acc.first += t.elem_bytes * t.count;
    acc.second += t.count;
  }
  std::vector<PairFlow> flows;
  flows.reserve(sync.size() + posted.size());
  for (const auto& [pair, acc] : sync) {
    flows.push_back({pair.first, pair.second, acc.first, acc.second, false});
  }
  for (const auto& [pair, acc] : posted) {
    flows.push_back({pair.first, pair.second, acc.first, acc.second, true});
  }
  return flows;
}

// The sorted-unique processor footprint of a recorded schedule — the set
// the plan caches (PlanTable::lookup) intersect with the machine's failed set.
std::vector<ApId> plan_footprint(const CommPlan& plan) {
  std::vector<ApId> procs;
  procs.reserve(plan.transfers.size() * 2 + plan.computes.size());
  for (const PlanTransfer& t : plan.transfers) {
    procs.push_back(t.src);
    procs.push_back(t.dst);
  }
  for (const PlanCompute& c : plan.computes) procs.push_back(c.p);
  for (const PlanMemOp& m : plan.mem_ops) procs.push_back(m.p);
  std::sort(procs.begin(), procs.end());
  procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
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
    recording_->transfers.clear();
    recording_->computes.clear();
    recording_->mem_ops.clear();
    recording_->referenced_procs.clear();
    recording_->local_reads = 0;
    recording_->sealed = false;
  }
}

void CommEngine::transfer(ApId src, ApId dst, Extent bytes) {
  if (!in_step_) throw InternalError("transfer outside a step");
  if (src == dst) {
    ++local_reads_;
    if (recording_) recording_->local_reads += 1;
    return;
  }
  pricer_.transfer_block(src, dst, bytes, 1, posted_phase_);
  if (recording_) {
    recording_->transfers.push_back({src, dst, bytes, 1, posted_phase_});
  }
}

void CommEngine::transfer_block(ApId src, ApId dst, Extent elem_bytes,
                                Extent count) {
  if (!in_step_) throw InternalError("transfer outside a step");
  if (count <= 0) return;
  if (src == dst) {
    local_reads_ += count;
    if (recording_) recording_->local_reads += count;
    return;
  }
  pricer_.transfer_block(src, dst, elem_bytes, count, posted_phase_);
  if (recording_) {
    recording_->transfers.push_back(
        {src, dst, elem_bytes, count, posted_phase_});
  }
}

void CommEngine::compute(ApId p, Extent flops) {
  if (!in_step_) throw InternalError("compute outside a step");
  pricer_.compute(p, flops);
  if (recording_) recording_->computes.push_back({p, flops});
}

void CommEngine::count_local_reads(Extent n) {
  local_reads_ += n;
  if (recording_) recording_->local_reads += n;
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
  if (recording_) {
    recording_->stats = stats;
    recording_->referenced_procs = plan_footprint(*recording_);
    recording_->sealed = true;
    recording_.reset();
  }

  if (faults_.enabled()) {
    const FaultCharge charge =
        faults_.roll(pricer_.traffic(), machine_->cost(), stats.label);
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

  // Replay re-rolls faults over the plan's aggregated flows — in the
  // canonical traffic order, so a replayed step consumes the same RNG draws
  // a cold pricing of the same schedule would. The roll happens before ANY
  // counter moves: an exhausted retry budget throws with the engine totals
  // untouched. A sealed plan always carries fault-free stats (retries==0),
  // so the charge below never double-counts.
  if (faults_.enabled()) {
    const FaultCharge charge = faults_.roll(aggregate_plan_flows(plan),
                                            machine_->cost(), stats.label);
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
