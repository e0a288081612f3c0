// Seeded, deterministic transient-fault injection for the message engine.
//
// The machine model aggregates a step's traffic into messages — one per
// (src, dst) pair per phase (machine/comm.hpp) — and the message is also
// the unit that faults: a transient fault drops a whole message, which is
// then retried after an exponential backoff. Faults are rolled over the
// step's flows in the CANONICAL order StepPricer::traffic() returns (sync
// flows then posted flows, each sorted by (src, dst)), so a given seed
// produces the same draws whether the step was priced cold or replayed
// from a sealed CommPlan: plans stay fault-free, faults re-roll per
// replay.
//
// Retry pricing, per message of base cost m = α + β·bytes that faulted r
// times before succeeding:
//
//     retry_us += Σ_{k=1..r} ( backoff_base · 2^(k-1)  +  m )
//     retries  += r
//
// i.e. every re-issue pays the full message again plus the backoff wait
// that preceded it. The charge lands in StepStats::retries/retry_us and is
// added to the step's time_us; the fault-free schedule (and the sealed
// plan) is untouched. A message that faults more than max_retries
// consecutive times throws TransferFaultError — the machine gave up.
//
// The differential oracle: a zero-probability config never draws from the
// RNG and charges nothing, so every StepStats is byte-identical to the
// fault-free machine's (tests/test_fault.cpp checks this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/step_pricer.hpp"
#include "machine/topology.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hpfnt {

/// A transfer exhausted its retry budget: the step cannot complete. The
/// engine is left with the step closed and any plan recording disarmed, so
/// the caller can catch, reconfigure, and re-issue the statement.
class TransferFaultError : public HpfError {
 public:
  explicit TransferFaultError(const std::string& what) : HpfError(what) {}
};

struct FaultConfig {
  std::uint64_t seed = 0;
  double prob = 0.0;            ///< per-message fault probability per attempt
  int max_retries = 3;          ///< consecutive faults tolerated per message
  double backoff_base_us = 50.0;  ///< first backoff; doubles per retry
};

/// One step's fault charge, to be folded into its StepStats.
struct FaultCharge {
  Extent retries = 0;
  double retry_us = 0.0;
};

/// The seeded fault source a CommEngine owns. configure() fixes the config
/// and rewinds the RNG to the seed; roll() draws per message in flow order
/// and prices the retries.
class FaultModel {
 public:
  void configure(const FaultConfig& config) {
    config_ = config;
    rng_ = Rng(config.seed);
  }

  const FaultConfig& config() const noexcept { return config_; }
  bool enabled() const noexcept { return config_.prob > 0.0; }

  /// Rolls faults over one step's aggregated flows (canonical traffic()
  /// order) and returns the priced retry charge. Throws TransferFaultError
  /// when a message faults more than max_retries consecutive times;
  /// nothing is charged in that case (the caller commits all or nothing).
  FaultCharge roll(const std::vector<PairFlow>& flows, const CostParams& cost,
                   const std::string& label);

 private:
  FaultConfig config_;
  Rng rng_{0};
};

}  // namespace hpfnt
