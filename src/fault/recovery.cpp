#include "fault/recovery.hpp"

#include <algorithm>

#include "balance/partition.hpp"
#include "core/layout_view.hpp"
#include "core/pair_counts.hpp"
#include "exec/comm_plan.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

double RecoveryReport::total_time_us() const noexcept {
  double total = 0.0;
  for (const StepStats& s : steps) total += s.time_us;
  return total;
}

std::string RecoveryReport::to_string() const {
  std::string s = cat("recovery: failed proc ", failed_proc, ", epoch ",
                      epoch, ", ", remapped.size(), " arrays migrated in ",
                      total_time_us(), "us");
  if (restored_from_checkpoint > 0) {
    s += cat(", ", restored_from_checkpoint, " elements from checkpoint");
  }
  if (lost_elements > 0) {
    s += cat(", ", lost_elements, " elements LOST (zero-filled)");
  }
  return s;
}

namespace {

bool layout_references(const Distribution& dist, const FailureSet& failed) {
  const SectionCounts counts(dist, dist.domain().dims());
  for (const OwnerSet& owners : counts.sets()) {
    for (ApId q : owners) {
      if (failed.contains(q)) return true;
    }
  }
  return false;
}

/// The survivor-balanced GENERAL_BLOCK formats for one array: dim 0 split
/// by greedy_partition over the target positions still alive (zero-width
/// blocks at failed positions), higher dimensions collapsed.
std::vector<DistFormat> survivor_formats(const IndexDomain& domain,
                                         const ProcessorRef& target,
                                         const FailureSet& failed) {
  const std::vector<ApId> pos_aps = target.all_aps();
  Extent alive_positions = 0;
  for (ApId ap : pos_aps) {
    if (!failed.contains(ap)) ++alive_positions;
  }
  const Extent n = domain.dims().front().size();
  const std::vector<Extent> bounds =
      greedy_partition(std::vector<double>(static_cast<std::size_t>(n), 1.0),
                       alive_positions);
  // The G-array bounds are cumulative; unfold them into per-block sizes.
  std::vector<Extent> alive_sizes;
  alive_sizes.reserve(static_cast<std::size_t>(alive_positions));
  Extent prev = 0;
  for (Extent b : bounds) {
    alive_sizes.push_back(b - prev);
    prev = b;
  }
  alive_sizes.push_back(n - prev);
  // Splice zero-width blocks into the failed positions so the format still
  // spans the whole target and no failed processor owns anything.
  std::vector<Extent> sizes;
  sizes.reserve(pos_aps.size());
  std::size_t k = 0;
  for (ApId ap : pos_aps) {
    sizes.push_back(failed.contains(ap) ? 0 : alive_sizes[k++]);
  }
  std::vector<DistFormat> formats;
  formats.reserve(static_cast<std::size_t>(domain.rank()));
  formats.push_back(DistFormat::general_block_sizes(sizes));
  for (int d = 1; d < domain.rank(); ++d) {
    formats.push_back(DistFormat::collapsed());
  }
  return formats;
}

/// One remap event's fault-aware migration: priced cold (never published
/// to the plan caches), committed stage-then-step like apply_remap.
StepStats migrate_event(ProgramState& state, const DistArray& array,
                        const RemapEvent& event, const CheckpointEntry* entry,
                        const FailureSet& failed, RecoveryReport& report) {
  CommEngine& comm = state.comm();
  const Extent eb = elem_bytes(array.type());
  const ApId coordinator = state.machine().survivors().front();

  struct Patch {
    Extent begin = 0;
    Extent count = 0;
    bool from_ckpt = false;
  };
  std::vector<Patch> patches;
  MemoryDeltaFold deltas;

  comm.begin_step(event.reason.empty() ? ("RECOVER " + array.name())
                                       : event.reason);
  StepGuard guard(comm);
  // The remap's pair counts and replica deltas (the ordinary remap rule),
  // with dead senders excluded: the minimum SURVIVING replica sends to
  // every new owner that lacked the value.
  const std::vector<Triplet>& whole = event.from.domain().dims();
  const PairCounts pairs({&event.from, &whole}, {&event.to, &whole}, &deltas,
                         eb);
  bool lost_all = false;
  pairs.for_each([&](Extent count, const OwnerSet& old_owners,
                     const OwnerSet& new_owners) {
    ApId src = -1;
    for (ApId q : old_owners) {
      if (failed.contains(q)) continue;
      if (src < 0 || q < src) src = q;
    }
    if (src >= 0) {
      for (ApId q : new_owners) {
        if (!owner_set_contains(old_owners, q)) {
          comm.transfer_block(src, q, eb, count);
        }
      }
      return;
    }
    lost_all = true;
    if (entry == nullptr) return;
    // Every replica died with the failure: the coordinator re-reads the
    // elements from stable storage and scatters them.
    for (ApId q : new_owners) comm.transfer_block(coordinator, q, eb, count);
  });
  if (lost_all) {
    // Where the old owner sets with no survivor lie: each such run is
    // patched from the checkpoint, or — dead and uncheckpointed, the data
    // is gone and no message can conjure it back — zero-filled.
    const LayoutView old_view = LayoutView::whole(event.from);
    for (const OwnerRun& r : old_view.runs()) {
      const OwnerSet& owners = old_view.owners(r);
      if (std::all_of(owners.begin(), owners.end(),
                      [&](ApId q) { return failed.contains(q); })) {
        patches.push_back({r.begin, r.count, entry != nullptr});
      }
    }
  }
  StepStats step = comm.end_step();
  guard.dismiss();

  // Commit: the folded replica memory deltas (the same per-processor rows
  // apply_remap commits), then the layout (with its ghost-cell
  // re-accounting), then the value patches.
  state.memory().apply(deltas.ops());
  state.rebind_layout(array.id(), event.to);
  for (const Patch& pt : patches) {
    if (pt.from_ckpt) {
      state.store_segment(array.id(), {pt.begin, pt.count, 1},
                          entry->values.data() + pt.begin);
      report.restored_from_checkpoint += pt.count;
    } else {
      const std::vector<double> zeros(static_cast<std::size_t>(pt.count),
                                      0.0);
      state.store_segment(array.id(), {pt.begin, pt.count, 1}, zeros.data());
      report.lost_elements += pt.count;
    }
  }
  return step;
}

}  // namespace

RecoveryReport recover_processor_loss(ProgramState& state, DataEnv& env,
                                      ApId p, const Checkpoint* ckpt) {
  Machine& machine = state.machine();
  machine.fail_processor(p);  // validates; bumps the topology epoch
  const std::shared_ptr<const FailureSet> failed = machine.failures();

  RecoveryReport report;
  report.failed_proc = p;
  report.epoch = failed->epoch;

  for (const std::string& name : env.array_names()) {
    DistArray& array = env.find(name);
    if (!array.is_created() || !state.exists(array.id())) continue;
    // Secondaries follow their primary through the §4.2 event machinery;
    // rank-0 scalars take no GENERAL_BLOCK (they live on the control
    // processor's scalar arrangement).
    if (!env.is_primary(array) || array.domain().rank() < 1) continue;
    if (!layout_references(state.layout(array.id()), *failed)) continue;

    const ProcessorRef target = env.default_target(1);
    std::vector<RemapEvent> events = env.system_redistribute(
        array, survivor_formats(array.domain(), target, *failed), target);
    for (const RemapEvent& event : events) {
      const DistArray& moved = env.array(event.dummy);
      if (!state.exists(moved.id())) continue;
      const CheckpointEntry* entry =
          ckpt != nullptr ? ckpt->find(moved.id()) : nullptr;
      if (entry != nullptr && entry->domain != moved.domain()) entry = nullptr;
      report.steps.push_back(
          migrate_event(state, moved, event, entry, *failed, report));
      report.remapped.push_back(moved.name());
    }
  }
  return report;
}

}  // namespace hpfnt
