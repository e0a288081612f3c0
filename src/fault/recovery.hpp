// Processor-loss recovery: re-mapping onto the survivors, priced honestly.
//
// recover_processor_loss(p) is the simulator's model of what an HPF-style
// runtime would do when a node dies mid-run:
//
//   1. fail_processor(p): the machine's topology epoch bumps, and from this
//      moment the failure-checked plan caches (exec/comm_plan.hpp,
//      service/plan_service.hpp) refuse to serve any sealed plan that
//      references p.
//   2. Every created primary array whose CURRENT data layout places
//      elements on a failed processor is forced onto the survivors with a
//      balanced GENERAL_BLOCK distribution: greedy_partition
//      (balance/partition.hpp) splits dim 0 over the surviving positions
//      of the default 1-D target, failed positions receive zero-width
//      blocks, higher dimensions collapse. Arrays aligned to an affected
//      primary follow it through the ordinary §4.2 remap-event machinery
//      (DataEnv::system_redistribute — REDISTRIBUTE without the DYNAMIC
//      gate, because loss spares nothing).
//   3. Each remap event migrates data through one priced comm step, walked
//      fault-aware per constant-owner segment:
//        * some replica survives  -> the minimum SURVIVING owner sends to
//          every new owner that lacked the value (the ordinary remap rule
//          with dead senders excluded);
//        * every replica died, a checkpoint holds the array -> the
//          coordinator (minimum survivor) re-reads stable storage and
//          scatters the segment to its new owners;
//        * every replica died, no checkpoint -> the segment is zero-filled
//          and counted in RecoveryReport::lost_elements — data loss is
//          reported, never papered over.
//      Recovery steps are one-shot: they are priced cold and never
//      published to the plan caches.
//
// The report carries the per-event StepStats so benches can price recovery
// against the fault-free run, plus the restored/lost element accounting
// the E9 checksum gate keys on.
#pragma once

#include <string>
#include <vector>

#include "core/data_env.hpp"
#include "core/types.hpp"
#include "exec/storage.hpp"
#include "fault/checkpoint.hpp"
#include "machine/comm.hpp"

namespace hpfnt {

struct RecoveryReport {
  ApId failed_proc = -1;
  Extent epoch = 0;  ///< topology epoch after the failure
  std::vector<std::string> remapped;  ///< arrays migrated, in event order
  std::vector<StepStats> steps;       ///< one priced migration step each
  Extent restored_from_checkpoint = 0;  ///< elements re-read from stable
                                        ///< storage (all replicas dead)
  Extent lost_elements = 0;  ///< elements zero-filled (dead, no checkpoint)

  double total_time_us() const noexcept;
  std::string to_string() const;
};

/// Fails processor `p` on state's machine and migrates every affected
/// array onto the survivors (see the file comment). `ckpt` may be null —
/// fully-lost segments are then zero-filled and counted. Throws
/// ConformanceError for an invalid `p` (out of range, already failed, last
/// survivor) before touching anything.
RecoveryReport recover_processor_loss(ProgramState& state, DataEnv& env,
                                      ApId p, const Checkpoint* ckpt);

}  // namespace hpfnt
