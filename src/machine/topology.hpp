// The simulated distributed-memory machine.
//
// The paper targets early-1990s message-passing multiprocessors (iPSC-class
// hypercubes, Paragon-class meshes): each processor owns private memory and
// all sharing happens through messages. The simulator reproduces exactly
// the properties the paper's claims depend on — who owns what, how many
// messages and bytes a mapping decision induces — with a standard
// α + βn linear cost model and per-processor memory accounting. Absolute
// times are calibrated to 1993-era hardware but only *relative* behaviour
// (who wins, where crossovers fall) is meaningful.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace hpfnt {

/// Linear communication/computation cost parameters. Defaults approximate
/// an Intel iPSC/860: ~75 µs message startup, ~2.8 MB/s sustained
/// point-to-point bandwidth, ~10 MFLOPS per node on compiled code.
struct CostParams {
  double alpha_us = 75.0;            // per-message startup latency
  double beta_us_per_byte = 0.36;    // per-byte transfer cost (µs)
  double flop_us = 0.1;              // per elementary arithmetic operation

  /// Time to move one message of `bytes` bytes.
  double message_us(Extent bytes) const {
    return alpha_us + beta_us_per_byte * static_cast<double>(bytes);
  }
};

/// Immutable snapshot of the machine's failure state. fail_processor swaps
/// a fresh snapshot in atomically, so a plan-cache lookup racing an epoch
/// bump from another thread always reads a consistent (epoch, failed set)
/// pair — either wholly before or wholly after the failure, never a torn
/// mix (the TSan fault-stress suite exercises exactly that race).
struct FailureSet {
  Extent epoch = 0;           ///< bumped once per fail_processor
  std::vector<ApId> failed;   ///< sorted ascending

  bool any() const noexcept { return !failed.empty(); }
  bool contains(ApId p) const noexcept;
};

class Machine {
 public:
  explicit Machine(Extent processors, CostParams cost = {});

  Extent processors() const noexcept { return p_; }
  const CostParams& cost() const noexcept { return cost_; }

  // --- processor failure (src/fault/) ------------------------------------
  //
  // The failure state lives behind an atomically swapped immutable
  // snapshot; readers (the failure-checked plan caches, the recovery path)
  // grab one shared_ptr and reason over a consistent view.

  /// The current failure snapshot (never null; epoch 0 = no failures yet).
  std::shared_ptr<const FailureSet> failures() const noexcept;

  /// Marks processor `p` as failed and bumps the topology epoch, making
  /// every cached plan that references `p` stale (the plan-cache lookups
  /// drop such plans lazily). Throws ConformanceError when `p` is out of
  /// range, already failed, or the last survivor.
  void fail_processor(ApId p);

  Extent topology_epoch() const noexcept { return failures()->epoch; }
  bool has_failures() const noexcept { return failures()->any(); }
  bool is_failed(ApId p) const noexcept { return failures()->contains(p); }

  /// Processors still alive, ascending.
  std::vector<ApId> survivors() const;
  Extent alive_count() const noexcept {
    return p_ - static_cast<Extent>(failures()->failed.size());
  }

  std::string to_string() const;

 private:
  Extent p_;
  CostParams cost_;
  // Accessed only via std::atomic_load/std::atomic_store (see failures()).
  std::shared_ptr<const FailureSet> failures_;
};

}  // namespace hpfnt
