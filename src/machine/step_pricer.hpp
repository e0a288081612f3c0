// StepPricer — the per-step pricing arithmetic of the machine model,
// factored out of CommEngine so it has exactly two consumers that can
// never diverge:
//
//   * the EXECUTOR: CommEngine charges every step through an embedded
//     StepPricer and seals end_step's statistics from StepPricer::price —
//     the numbers every recorded CommPlan carries;
//   * the STATIC COST MODEL (analysis/cost_model.hpp): the analyzer walks
//     the same run tables with a private StepPricer and calls the same
//     price() — so a predicted StepStats is byte-for-byte the StepStats
//     the executor would seal, by construction rather than by testing
//     luck (tests/test_cost_model.cpp checks it anyway, statement for
//     statement, over the example corpus).
//
// The pricing model (machine/comm.hpp documents the split-phase story):
// transfers accumulate per (src, dst) pair into one of two phases, SYNC
// or POSTED; same-processor transfers are free and tallied as local
// reads. price() computes
//
//     time_us = max(compute, posted) + sync
//     hidden  = min(posted, compute),  exposed = posted - hidden
//
// where each phase bound is the max over processors of the α+βn cost of
// its messages, and messages = distinct (src, dst) pairs summed over both
// phases. The floating-point accumulation walks pairs in sorted key order
// — the historical std::map iteration order — so the doubles are
// reproducible and the differential equality is exact, not approximate.
#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"
#include "machine/step_accum.hpp"
#include "machine/topology.hpp"

namespace hpfnt {

struct StepStats;

/// One (src, dst) flow of a step, per phase — a row of the per-processor-
/// pair traffic matrix the cost model reports (and the aggregation of a
/// recorded plan's PlanTransfers, which the tests compare it against).
struct PairFlow {
  ApId src = 0;
  ApId dst = 0;
  Extent bytes = 0;
  Extent elements = 0;
  bool posted = false;

  friend bool operator==(const PairFlow& a, const PairFlow& b) {
    return a.src == b.src && a.dst == b.dst && a.bytes == b.bytes &&
           a.elements == b.elements && a.posted == b.posted;
  }
};

/// The phase decomposition behind a StepStats — what price() saw before
/// folding it into the max(compute, posted) + sync formula. The cost
/// report ranks statements by exposed communication = sync_us +
/// (posted_us - hidden), which StepStats alone cannot reconstruct.
struct PhaseBreakdown {
  Extent sync_bytes = 0;
  Extent posted_bytes = 0;
  Extent sync_messages = 0;
  Extent posted_messages = 0;
  double sync_us = 0.0;
  double posted_us = 0.0;
  double compute_us = 0.0;
};

/// Accumulates one step's charges and prices them. CommEngine owns one
/// and re-uses it across steps (clear() keeps table capacity warm); the
/// cost model builds one per predicted statement.
class StepPricer {
 public:
  explicit StepPricer(const CostParams& cost) : cost_(&cost) {}

  /// A run of `count` equal payloads src -> dst, charged to one phase.
  /// Same-processor runs are free: they count as local reads, exactly as
  /// CommEngine::transfer_block treats them.
  void transfer_block(ApId src, ApId dst, Extent elem_bytes, Extent count,
                      bool posted) {
    if (count <= 0) return;
    if (src == dst) {
      local_reads_ += count;
      return;
    }
    PairTraffic& traffic = (posted ? posted_ : sync_).accumulate({src, dst});
    traffic.bytes += elem_bytes * count;
    traffic.elements += count;
  }

  void compute(ApId p, Extent flops) { flops_.accumulate(p) += flops; }

  void count_local_reads(Extent n) { local_reads_ += n; }
  Extent local_reads() const noexcept { return local_reads_; }

  /// The end_step statistics of the accumulated charges (the shared
  /// arithmetic; see the header comment). Does not clear.
  StepStats price(const std::string& label) const;

  /// price() plus the per-phase decomposition it derived on the way.
  StepStats price(const std::string& label, PhaseBreakdown* breakdown) const;

  /// The per-pair traffic matrix: sync flows then posted flows, each group
  /// sorted by (src, dst) — the order price() walks them.
  std::vector<PairFlow> traffic() const;

  /// Empties the accumulators (capacity kept warm) for the next step.
  void clear() {
    sync_.clear();
    posted_.clear();
    flops_.clear();
    local_reads_ = 0;
  }

  // The raw phase tables (CommEngine's recording path appends the charge
  // stream itself; these are only read at pricing time).
  const PairStepTable& sync_pairs() const noexcept { return sync_; }
  const PairStepTable& posted_pairs() const noexcept { return posted_; }

 private:
  const CostParams* cost_;
  PairStepTable sync_;    // SYNC phase
  PairStepTable posted_;  // POSTED phase
  ApStepTable flops_;
  Extent local_reads_ = 0;
};

}  // namespace hpfnt
