// Memoized communication plans: replaying priced schedules for iterative
// sweeps.
//
// The paper's distributions make the communication of an assignment
// statically analyzable (§9's SUPERB/Vienna Fortran message vectorization):
// the priced schedule of a step is a pure function of the participating
// mappings, sections, and per-element costs — not of the data. A CommPlan
// captures one step's schedule exactly as the exec layer priced it from the
// run tables: the block transfers {src, dst, elem_bytes, count}, the
// per-processor compute charges, and the local-read tally, plus the sealed
// StepStats end_step derived from them. CommEngine::replay(plan) re-issues
// the step from the sealed statistics alone — byte-identical StepStats and
// cumulative counters, zero ownership queries, no common-segment walk.
//
// A PlanCache (one per ProgramState) memoizes plans keyed on the
// participating distributions' *content* signatures
// (Distribution::append_plan_signature), the section triplets, and the
// scalar pricing inputs (elem_bytes, flops). Every payload kind keys by
// content, so structurally identical layouts minted at different addresses
// share one plan:
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
//     last call's, and call N>1 replays call 1's argument-copy plans;
//   * explicit payloads digest their (canonicalized) owner table.
//
// Each payload's signature is built once and memoized on the immutable
// payload (Distribution::plan_signature), so a warm statement's key build
// is one append per participating distribution.
//
// Address + process-unique generation-id keying (with the Distribution
// pinned by the entry) survives only as the fallback for a payload kind
// without a signature — none today.
//
// The cache is a size-bounded LRU: lookups promote, inserts evict the
// least-recently-used entry, and hit/miss/evict counters are exposed for
// the benches. Long interp sessions that churn section-view dummies
// therefore stay bounded no matter how many distinct schedules they price.
//
// The PlanCache is also the L1 of a two-level hierarchy: because every key
// is a pure content signature, a sealed plan is valid for ANY session whose
// layouts match, and ProgramState::lookup_plan/publish_plan consult a
// process-wide sharded PlanService (service/plan_service.hpp) as the shared
// L2 behind this cache — an L1 miss takes one shard lock, a service hit
// back-fills the L1, and a cold miss publishes the freshly priced plan to
// both levels.
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

namespace hpfnt {

/// One recorded block transfer: `count` elements of `elem_bytes` from the
/// canonical sending replica to one receiving owner.
///
/// `posted` partitions the plan's transfer list into its boundary and
/// interior sets at record time. The partition rule (exec/overlap.hpp,
/// leaf_is_shadow_covered): a transfer is posted — boundary — iff it was
/// charged for an operand that is a pure per-dimension shift of the
/// target section on a structurally identical mapping, with every shifted
/// dimension either collapsed (whole dimension local) or contiguous with a
/// declared shadow at least as wide as the shift. Then the plan==measure
/// property of plan_shift guarantees all the operand's remote elements are
/// halo reads landing in ghost cells, so they overlap the interior compute
/// (CommEngine posted phase). Everything else — unshifted remote reads,
/// replica broadcasts, remap copies — stays in the sync set.
struct PlanTransfer {
  ApId src = 0;
  ApId dst = 0;
  Extent elem_bytes = 0;
  Extent count = 0;
  bool posted = false;  ///< boundary (overlapped) vs interior/sync transfer

  friend bool operator==(const PlanTransfer& a, const PlanTransfer& b) {
    return a.src == b.src && a.dst == b.dst &&
           a.elem_bytes == b.elem_bytes && a.count == b.count &&
           a.posted == b.posted;
  }
};

/// One recorded per-processor compute charge.
struct PlanCompute {
  ApId p = 0;
  Extent flops = 0;
};

/// One per-processor memory-accounting delta (remap plans only: replicas
/// appearing on new owners / disappearing from old ones). Deltas are
/// recorded and replayed in charge order — peak-memory gauges depend on
/// the interleaving, not just the totals.
struct PlanMemOp {
  ApId p = 0;
  Extent delta = 0;  ///< bytes; positive allocates, negative releases
};

/// One step's priced schedule. Built by pricing a step cold with
/// CommEngine::record_into armed; sealed by end_step; re-issued by
/// CommEngine::replay. The recorded operations re-price to exactly the
/// sealed stats (end_step's statistics are a pure function of them), which
/// the CommPlan tests assert.
struct CommPlan {
  std::string label;                    ///< step label at record time
  std::vector<PlanTransfer> transfers;  ///< remote segments, in charge order
  std::vector<PlanCompute> computes;
  Extent local_reads = 0;        ///< reads satisfied without a message
  std::vector<PlanMemOp> mem_ops;  ///< remap only, in charge order
  /// Sorted-unique processors the schedule touches (transfer endpoints,
  /// compute and memory charges), filled at seal. The epoch-checked cache
  /// lookups intersect this with the machine's failed set: a plan that
  /// references a dead processor must never replay.
  std::vector<ApId> referenced_procs;
  StepStats stats;                 ///< sealed by CommEngine::end_step
  bool sealed = false;

  /// Whether the sealed schedule touches any processor in `failed`
  /// (both sets sorted ascending; linear merge walk).
  bool references_any(const std::vector<ApId>& failed) const;
};

/// Builds the cache key of one priced step from its pricing inputs. Every
/// distribution the schedule depends on must be added; payloads with a
/// content signature (all of them today) key by value so structurally
/// equal layouts share plans, anything else keys by address + generation
/// id and is collected as a pin. The key builders size the buffer once up
/// front and move the finished key out with take().
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
  std::vector<Distribution> take_pins() { return std::move(pins_); }

 private:
  std::string key_;
  std::vector<Distribution> pins_;
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
/// by construction; tests/test_cost_model.cpp pins the key-for-key match
/// against the PlanCache anyway. `pins`, when non-null, collects any
/// address-keyed Distributions (none today) for PlanCache::insert.
std::string assign_plan_key(const Distribution& lhs_dist,
                            const std::vector<Triplet>& lhs_section,
                            Extent elem_bytes, Extent flops,
                            const std::vector<AssignKeyLeaf>& leaves,
                            std::vector<Distribution>* pins = nullptr);
std::string remap_plan_key(const Distribution& from, const Distribution& to,
                           Extent elem_bytes,
                           std::vector<Distribution>* pins = nullptr);
std::string copy_plan_key(const Distribution& dst_dist,
                          const std::vector<Triplet>& dst_section,
                          const Distribution& src_dist,
                          const std::vector<Triplet>& src_section,
                          Extent elem_bytes,
                          std::vector<Distribution>* pins = nullptr);

/// Size-bounded LRU memo of sealed plans, keyed by PlanKey strings.
/// Lookups promote the entry to most-recently-used; inserts evict from the
/// LRU tail, so the replayed plans of a hot loop are exactly the ones that
/// survive. Entries pin any address-keyed Distributions they were priced
/// from, so a payload address in a key can never be recycled while its
/// plan is alive. Hit/miss/evict counters are exposed for the benches.
class PlanCache {
 public:
  /// The sealed plan for `key`, or null. Counts a hit or a miss.
  std::shared_ptr<const CommPlan> lookup(const std::string& key);

  /// Epoch-checked lookup (src/fault/): on a machine with failed
  /// processors, an entry whose plan references any of them is erased and
  /// the lookup misses — a stale schedule must never replay after
  /// fail_processor. Entries surviving the check are stamped with the
  /// machine's topology epoch so repeat lookups at the same epoch skip the
  /// intersection; a machine with no failures takes the plain lookup path
  /// unchanged.
  std::shared_ptr<const CommPlan> lookup(const std::string& key,
                                         const Machine& topo);

  void insert(const std::string& key, std::shared_ptr<const CommPlan> plan,
              std::vector<Distribution> pinned);

  /// Caching can be disabled (benchmark baselines price every step cold).
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  Extent hits() const noexcept { return hits_; }
  Extent misses() const noexcept { return misses_; }
  Extent evictions() const noexcept { return evictions_; }
  Extent invalidations() const noexcept { return invalidations_; }
  std::size_t size() const noexcept { return entries_.size(); }

  /// Bound on the number of cached plans; shrinking evicts from the LRU
  /// tail immediately. Clamped to >= 1.
  std::size_t capacity() const noexcept { return capacity_; }
  void set_capacity(std::size_t capacity);

  void clear();

  /// Visits every cached plan (test/diagnostic use).
  void for_each(
      const std::function<void(const std::string&, const CommPlan&)>& fn)
      const;

 private:
  static constexpr std::size_t kDefaultCapacity = 64;

  struct Entry {
    std::shared_ptr<const CommPlan> plan;
    std::vector<Distribution> pinned;
    std::list<std::string>::iterator pos;  // position in lru_
    Extent validated_epoch = 0;  // last topology epoch the plan survived
  };

  bool enabled_ = true;
  std::size_t capacity_ = kDefaultCapacity;
  Extent hits_ = 0;
  Extent misses_ = 0;
  Extent evictions_ = 0;
  Extent invalidations_ = 0;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace hpfnt
