// Memoized communication plans: replaying priced schedules for iterative
// sweeps.
//
// The paper's distributions make the communication of an assignment
// statically analyzable (§9's SUPERB/Vienna Fortran message vectorization):
// the priced schedule of a step is a pure function of the participating
// mappings, sections, and per-element costs — not of the data. A CommPlan
// captures one step's schedule at the granularity the machine prices it:
// the per-(src, dst) flows of each phase, one compute row per processor,
// the local-read tally, a per-processor memory summary for remaps, and the
// sealed StepStats end_step derived from them. The exec layer charges a
// step once per distinct owner-set pair, and the plan keeps only what the
// StepPricer accumulated — at most P(P-1) flows per phase, whatever the
// segment count. CommEngine::replay(plan) re-issues the step from the
// sealed statistics alone — byte-identical StepStats and cumulative
// counters, zero ownership queries, no common-segment walk.
//
// Plans are keyed on the participating distributions' *content* signatures
// (Distribution::append_plan_signature), the section triplets, and the
// scalar pricing inputs (elem_bytes, flops). A mapping is a static function
// of its specification, so every payload kind keys by value and
// structurally identical layouts minted at different addresses share one
// plan:
//
//   * pure-format payloads serialize (domain, formats, target); the
//     alternating source/destination of a Jacobi sweep share one plan and
//     the 2nd..Nth iteration prices by replay;
//   * INDIRECT and user-defined formats enter as a memoized FNV-1a digest
//     of their bound owner tables (DimMapping::content_digest) — two
//     same-named user formats with different mappings can never collide;
//   * constructed payloads (the derived CONSTRUCT(α, δ_B) of an aligned
//     array) compose the structural serialization of α with the base's
//     signature, recursing through nested alignments; an *identity* α
//     collapses to the base's own signature, so an ALIGN-ed Jacobi's a->b
//     and b->a steps share a single plan;
//   * section views compose the restricting triplets with the parent's
//     signature — so the fresh section-view dummy every procedure call
//     mints (DataEnv::call / enter_call / exit_call) keys identically to
//     last call's, and call N>1 replays call 1's argument-copy plans.
//
// Each payload's signature is built once and memoized on the immutable
// payload (Distribution::plan_signature), so a warm key build is one
// append per participating distribution.
//
// A PlanTable is the one size-bounded LRU of sealed plans: lookups promote,
// inserts evict the least-recently-used entry, and a plan that references a
// failed processor is erased at lookup. Both cache levels are built from
// it. The session-local PlanCache (one per ProgramState) is an unlocked
// PlanTable — the L1. The process-wide PlanService
// (service/plan_service.hpp) is S mutex-guarded PlanTable shards — the
// shared L2. ProgramState::lookup_plan/publish_plan consult them in order:
// an L1 miss takes one shard lock, a service hit back-fills the L1, and a
// cold miss publishes the freshly priced plan to both levels.
//
// Consulted by assign_impl (exec/assign.cpp), ProgramState::copy_section,
// and ProgramState::apply_remap (exec/storage.cpp) — the latter two carry
// the procedure-argument path (enter_call/exit_call, call-site remaps).
#pragma once

#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/array.hpp"
#include "core/distribution.hpp"
#include "machine/comm.hpp"
#include "machine/memory.hpp"
#include "machine/step_pricer.hpp"

namespace hpfnt {

/// One per-processor compute charge of a sealed plan: the processor's
/// summed flops over the step.
struct PlanCompute {
  ApId p = 0;
  Extent flops = 0;
};

/// One step's priced schedule at the granularity the machine prices it:
/// per (src, dst) pair, per processor. Built by pricing a step cold with
/// CommEngine::record_into armed and sealed by end_step from the engine's
/// StepPricer tables, so recording costs O(pairs + P), whatever the number
/// of constant-owner segments the walk visited. Re-issued by
/// CommEngine::replay. The rows re-price to exactly the sealed stats
/// (end_step's statistics are a pure function of them), which the
/// CommPlan tests assert.
///
/// `flows` partitions the step's traffic into its boundary and interior
/// sets (PairFlow::posted). The partition rule (exec/overlap.hpp,
/// leaf_is_shadow_covered): a transfer is posted — boundary — iff it was
/// charged for an operand that is a pure per-dimension shift of the
/// target section on a structurally identical mapping, with every shifted
/// dimension either collapsed (whole dimension local) or contiguous with a
/// declared shadow at least as wide as the shift. Then the plan==measure
/// property of plan_shift guarantees all the operand's remote elements are
/// halo reads landing in ghost cells, so they overlap the interior compute
/// (CommEngine posted phase). Everything else — unshifted remote reads,
/// replica broadcasts, remap copies — stays in the sync set.
struct CommPlan {
  std::string label;  ///< step label at record time
  /// StepPricer::traffic() at seal: sync rows then posted rows, each
  /// sorted by (src, dst) — the order FaultModel::roll consumes, so a
  /// faulted replay rolls the same draws as the cold step.
  std::vector<PairFlow> flows;
  std::vector<PlanCompute> computes;  ///< one per processor, ascending
  Extent local_reads = 0;             ///< reads satisfied without a message
  /// Remap plans only: the replica memory deltas (replicas appearing on
  /// new owners, disappearing from old ones) as their MemoryDeltaFold —
  /// per processor, ascending, an allocate of the largest prefix rise and
  /// then the release down to the net change, so at most 2 rows per
  /// processor. Each gauge is per processor and the fold keeps each
  /// processor's net and peak, so replaying the rows reproduces every
  /// bytes_on and peak_on of the charge-order stream.
  std::vector<MemoryDelta> mem_ops;
  /// Sorted-unique processors the schedule touches (flow endpoints,
  /// compute and memory rows), filled at seal. PlanTable::lookup
  /// intersects this with the machine's failed set: a plan that references
  /// a dead processor must never replay.
  std::vector<ApId> referenced_procs;
  StepStats stats;  ///< sealed by CommEngine::end_step
  bool sealed = false;

  /// Whether the sealed schedule touches any processor in `failed`
  /// (both sets sorted ascending; linear merge walk).
  bool references_any(const std::vector<ApId>& failed) const;
};

/// Builds the cache key of one priced step from its pricing inputs. Every
/// distribution the schedule depends on must be added; each keys by its
/// content signature, so structurally equal layouts share plans. The key
/// builders size the buffer once up front and move the finished key out
/// with take().
class PlanKey {
 public:
  explicit PlanKey(std::size_t capacity = 256) { key_.reserve(capacity); }

  void add_tag(const char* tag);
  void add_scalar(Extent v);
  void add_section(const std::vector<Triplet>& section);
  void add_distribution(const Distribution& dist);

  const std::string& str() const noexcept { return key_; }
  /// Moves the finished key out; the builder is empty afterwards.
  std::string take() noexcept { return std::move(key_); }

 private:
  std::string key_;
};

/// One RHS operand's contribution to an assignment plan key: its layout,
/// section, element size, and — when the operand's halo exchange is posted
/// (classify_operand_comm == kPosted) — the covering shadow widths that
/// distinguish the split-phase plan from the synchronous one.
struct AssignKeyLeaf {
  const Distribution* dist = nullptr;
  const std::vector<Triplet>* section = nullptr;
  Extent bytes = 0;
  bool posted = false;
  const std::vector<ShadowWidth>* shadow = nullptr;  ///< read when posted
};

/// The content cache keys of the three priced step kinds — built HERE and
/// nowhere else, consumed by the executor (exec/assign.cpp,
/// exec/storage.cpp) and by the static cost model
/// (analysis/cost_model.hpp). Because both sides call the same builder
/// over content signatures (address-free for every payload kind today),
/// the cost model's predicted plan sharing is the executor's plan sharing
/// by construction; tests/test_cost_model.cpp checks the key-for-key match
/// against the PlanCache anyway.
std::string assign_plan_key(const Distribution& lhs_dist,
                            const std::vector<Triplet>& lhs_section,
                            Extent elem_bytes, Extent flops,
                            const std::vector<AssignKeyLeaf>& leaves);
std::string remap_plan_key(const Distribution& from, const Distribution& to,
                           Extent elem_bytes);
std::string copy_plan_key(const Distribution& dst_dist,
                          const std::vector<Triplet>& dst_section,
                          const Distribution& src_dist,
                          const std::vector<Triplet>& src_section,
                          Extent elem_bytes);

/// Size-bounded LRU memo of sealed plans, keyed by PlanKey strings. Not
/// synchronized: the L1 PlanCache is one session's, and the L2 PlanService
/// guards each of its tables with a shard mutex. Lookups promote the entry
/// to most-recently-used; inserts evict from the LRU tail, so the replayed
/// plans of a hot loop are exactly the ones that survive. Counters are
/// monotonic: clear() drops entries but never rewinds one.
class PlanTable {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit PlanTable(std::size_t capacity = kDefaultCapacity);

  /// The sealed plan for `key`, or null. Counts a hit or a miss. The one
  /// stale-plan rule of both cache levels: a plan that references any
  /// processor in `failed` (sorted ascending) is erased and the lookup
  /// misses, so a stale schedule never replays after fail_processor. The
  /// caller re-prices against the surviving topology and re-inserts under
  /// the same key if the layouts still produce it.
  std::shared_ptr<const CommPlan> lookup(
      const std::string& key, const std::vector<ApId>& failed = {});

  /// Stores a sealed plan (null and unsealed plans are ignored). Inserting
  /// an existing key refreshes the entry and promotes it; both count as an
  /// insert.
  void insert(const std::string& key, std::shared_ptr<const CommPlan> plan);

  Extent hits() const noexcept { return hits_; }
  Extent misses() const noexcept { return misses_; }
  Extent inserts() const noexcept { return inserts_; }
  Extent evictions() const noexcept { return evictions_; }
  Extent invalidations() const noexcept { return invalidations_; }
  std::size_t size() const noexcept { return entries_.size(); }

  /// Bound on the number of cached plans; shrinking evicts from the LRU
  /// tail immediately. Clamped to >= 1.
  std::size_t capacity() const noexcept { return capacity_; }
  void set_capacity(std::size_t capacity);

  /// Drops every entry; the counters keep their values.
  void clear();

  /// Visits every cached plan (test/diagnostic use).
  void for_each(
      const std::function<void(const std::string&, const CommPlan&)>& fn)
      const;

 private:
  struct Entry {
    std::shared_ptr<const CommPlan> plan;
    std::list<std::string>::iterator pos;  // position in lru_
  };

  void evict_to(std::size_t bound);

  std::size_t capacity_;
  Extent hits_ = 0;
  Extent misses_ = 0;
  Extent inserts_ = 0;
  Extent evictions_ = 0;
  Extent invalidations_ = 0;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, Entry> entries_;
};

/// The session-local (L1) plan cache: a PlanTable that can be switched off
/// (benchmark baselines price every step cold).
class PlanCache : public PlanTable {
 public:
  using PlanTable::lookup;

  /// lookup() against the machine's current failure set, read once.
  std::shared_ptr<const CommPlan> lookup(const std::string& key,
                                         const Machine& topo);

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

 private:
  bool enabled_ = true;
};

}  // namespace hpfnt
