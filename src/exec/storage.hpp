// ProgramState: the simulated machine's data plane.
//
// Every created array's elements live in the local memories of their owners
// (paper §2.2: owners "store the element in their local memory"). Values
// are real doubles so tests can verify end-to-end numerics against serial
// references; replicas hold identical copies by construction, so the state
// keeps one canonical value per element plus the layout (the Distribution
// the data currently follows) and charges memory for every replica.
//
// All *communication-counted* operations — remote reads on behalf of a
// computing processor, replica broadcasts, remaps, argument copies — go
// through the CommEngine inside an open step, so every mapping decision has
// a measurable message/byte/time consequence. Ownership is decided in bulk:
// data-movement steps count positions per pair of owner sets
// (core/pair_counts.hpp) and price one transfer_block per owner-set pair
// and receiver (exec/pricing.hpp), and the priced schedules are memoized
// (exec/comm_plan.hpp) so repeating a step over unchanged layouts replays
// the plan instead of re-walking anything.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "core/array.hpp"
#include "core/data_env.hpp"
#include "core/distribution.hpp"
#include "exec/comm_plan.hpp"
#include "fault/checkpoint.hpp"
#include "machine/comm.hpp"
#include "machine/memory.hpp"
#include "machine/topology.hpp"

namespace hpfnt {

class PlanService;  // service/plan_service.hpp: the shared L2 plan cache

/// Reusable scratch buffers for the evaluation engine: `staged` holds one
/// statement's RHS snapshot (assign / copy_section), `regs` the register
/// file of SecProgram's strided kernels. Owned by the ProgramState so a
/// warm sweep reuses these two buffers after its first statement: their
/// capacity only grows, and they are never reallocated for a statement no
/// larger than one seen before. The rest of a warm statement still
/// allocates (its plan key, the leaf vector and a few small temporaries,
/// 15 allocations per warm assign), so the arena bounds the numerics'
/// scratch, not the statement's heap traffic. Statements do not nest, so
/// one arena per state suffices.
struct ScratchArena {
  std::vector<double> staged;
  std::vector<double> regs;
};

class ProgramState {
 public:
  explicit ProgramState(Machine& machine);

  Machine& machine() noexcept { return *machine_; }
  CommEngine& comm() noexcept { return comm_; }
  MemoryTracker& memory() noexcept { return memory_; }

  /// The session-local (L1) memo of this state's priced steps
  /// (exec/comm_plan.hpp). Consulted by assign, copy_section, and
  /// apply_remap through lookup_plan/publish_plan below; enabled by
  /// default. Disabling it disables plan caching entirely (the shared
  /// service is only consulted behind it).
  PlanCache& plans() noexcept { return plans_; }
  const PlanCache& plans() const noexcept { return plans_; }

  /// Attaches this session to a shared (L2) plan service
  /// (service/plan_service.hpp) — or detaches it with nullptr, the
  /// default. Once attached, an L1 miss consults the service before
  /// pricing cold, and every freshly priced plan is published to both
  /// levels, so sessions with matching layout content share each other's
  /// priced schedules. The service must outlive the session.
  void set_plan_service(PlanService* service) noexcept { service_ = service; }
  PlanService* plan_service() const noexcept { return service_; }

  /// L1 → L2 plan consultation (see exec/comm_plan.hpp for the hierarchy).
  /// Returns the sealed plan for `key` or null; a service hit back-fills
  /// the L1 so the next lookup of this key takes no shard lock. Null when
  /// the L1 is disabled.
  std::shared_ptr<const CommPlan> lookup_plan(const std::string& key);

  /// Publishes a freshly priced plan to the L1 and (when attached) the
  /// shared service. No-op when the L1 is disabled or the plan is unsealed.
  void publish_plan(const std::string& key,
                    std::shared_ptr<const CommPlan> plan);

  /// Allocates storage for a created array, laid out by its current
  /// distribution in `env`. Elements start at 0.0.
  void create(const DataEnv& env, const DistArray& array);

  /// Allocates storage with an explicit layout (used for dummy arguments
  /// whose mapping comes from a CallFrame, not a forest).
  void create_with(const DistArray& array, Distribution layout);

  void destroy(const DistArray& array);

  bool exists(ArrayId id) const noexcept;

  /// The layout the data currently follows (updated by apply_remap).
  const Distribution& layout(ArrayId id) const;

  /// The shadow widths the storage was materialized with (captured from
  /// DistArray::shadow at create time). Empty when the array has none.
  const std::vector<ShadowWidth>& shadow_of(ArrayId id) const;

  /// Canonical value of one element (no communication).
  double value(ArrayId id, const IndexTuple& index) const;

  /// Writes one element on all owners (initialization; no communication).
  void set_value(ArrayId id, const IndexTuple& index, double value);

  // --- bulk canonical-storage access (the evaluation engine's hot path) ---

  /// The array's canonical values, linearized in domain Fortran order. The
  /// span stays valid until the array is destroyed; the exec layer reads
  /// whole flat segments (core/index_domain.hpp) through it instead of
  /// per-element value(), and writes through the bounds-checked
  /// store_segment below.
  const double* values_span(ArrayId id) const;

  /// Number of canonical values behind values_span (the domain's size).
  Extent values_count(ArrayId id) const;

  /// Writes `seg.count` values from `src` (contiguous) into the canonical
  /// storage positions seg.base, seg.base+seg.stride, ... Bounds-checked
  /// once per segment, not per element.
  void store_segment(ArrayId id, const FlatSegment& seg, const double* src);

  /// Reads a flat segment of canonical storage into `dst` (contiguous).
  void load_segment(ArrayId id, const FlatSegment& seg, double* dst) const;

  /// Scratch buffers reused across statements (see ScratchArena).
  ScratchArena& scratch() noexcept { return scratch_; }

  /// Initializes every element of a section from a function of its parent
  /// index. Values are staged in section order and written back through
  /// whole flat strided segments (core/index_domain.hpp) — one bounds check
  /// per segment, not per element, like assignment pass 3.
  void fill(ArrayId id, const std::vector<Triplet>& section,
            const std::function<double(const IndexTuple&)>& fn);

  /// Whole-array fill.
  void fill(ArrayId id, const std::function<double(const IndexTuple&)>& fn);

  /// Sum of a section's elements — cheap checksum for verification. Reads
  /// canonical storage one flat strided segment at a time.
  double checksum(ArrayId id, const std::vector<Triplet>& section) const;

  /// Whole-array checksum (sums in storage order, as always).
  double checksum(ArrayId id) const;

  // --- data movement steps (priced per owner-set pair) --------------------

  /// Executes a remap event: moves every element from its old owners to its
  /// new owners (one transfer_block per owner-set pair and new owner that
  /// lacked it), updates the layout and the memory accounting.
  /// One comm step.
  StepStats apply_remap(const RemapEvent& event, const DistArray& array);

  /// Copies a section of `src` onto a section of `dst` (shapes must
  /// conform after squeezing unit dimensions — the same Fortran rule the
  /// assignment executor applies, so a scalar-subscripted actual like
  /// A(:,j) conforms with a rank-1 dummy). Destination owners that do not
  /// already hold the value receive the segment from the sources'
  /// canonical (minimum) replica; owners that do hold it are counted as
  /// local reads, keeping the read statistics symmetric with assign. One
  /// comm step. Used for argument passing.
  StepStats copy_section(const DistArray& dst,
                         const std::vector<Triplet>& dst_section,
                         const DistArray& src,
                         const std::vector<Triplet>& src_section,
                         const std::string& label);

  // --- checkpoint / recovery (src/fault/) ---------------------------------

  /// Snapshots every stored array's canonical values and current layout
  /// into `out` (replacing its contents), priced as one gather step: each
  /// owner set's elements (SectionCounts, core/pair_counts.hpp) travel
  /// from its minimum surviving replica to the coordinator, the minimum
  /// surviving processor. The snapshot models
  /// stable storage outside the processor array (fault/checkpoint.hpp), so
  /// it occupies no simulated memory and survives any later failure.
  StepStats checkpoint(Checkpoint& out, const std::string& label);

  /// Writes a checkpoint's values back onto the arrays' CURRENT layouts,
  /// priced as the mirror scatter step (coordinator to every owner of
  /// every owner set). Validates every entry — array still stored, domain and
  /// element size unchanged — before pricing or touching anything, and
  /// commits the values only after the step completes, so a thrown
  /// ConformanceError or TransferFaultError leaves the state unmodified.
  /// Mappings are deliberately not restored (fault/checkpoint.hpp).
  StepStats restore(const Checkpoint& ckpt, const std::string& label);

  /// Swaps an array's layout without moving data — the recovery walk
  /// (fault/recovery.cpp) migrates the values itself and accounts its own
  /// replica memory deltas; this re-derives only the ghost-cell accounting
  /// around the change.
  void rebind_layout(ArrayId id, const Distribution& dist);

 private:
  struct Store {
    std::string name;  // for checkpoint/restore diagnostics
    IndexDomain domain;
    Distribution dist;
    std::vector<double> values;  // canonical, by domain linearization
    Extent elem_bytes = 8;
    std::vector<ShadowWidth> shadow;  // declared ghost widths, may be empty
  };

  Store& store(ArrayId id);
  const Store& store(ArrayId id) const;
  void account_allocate(const Store& s);
  void account_release(const Store& s);

  /// Ghost-cell memory accounting for declared shadow widths: each owner
  /// materializes the clamped per-dimension ghost strips of its local
  /// block (exec/overlap.hpp shadow_areas; face strips only — a pure
  /// per-dimension shift never reads a corner). Charged at create/destroy
  /// and re-charged around apply_remap's layout change, always OUTSIDE the
  /// recorded plan: ghost geometry is derived from the layout, so cached
  /// remap plans stay layout-only and shadow never changes a plan's
  /// mem_ops.
  void account_shadow(const Store& s, bool allocate);

  /// Throws InternalError when the segment leaves [0, values.size()).
  static void check_segment(const Store& s, const FlatSegment& seg);

  Machine* machine_;
  CommEngine comm_;
  MemoryTracker memory_;
  PlanCache plans_;            // session-local L1
  PlanService* service_ = nullptr;  // optional shared L2 (not owned)
  ScratchArena scratch_;
  std::unordered_map<ArrayId, Store> stores_;
};

}  // namespace hpfnt
