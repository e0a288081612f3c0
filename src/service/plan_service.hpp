// The plan service: one process-wide, sharded, thread-safe cache of sealed
// communication plans, shared by every interp session.
//
// A priced CommPlan is keyed purely on *content* signatures
// (Distribution::append_plan_signature, exec/comm_plan.hpp), so it is valid
// for ANY session whose layouts match — N sessions paying N cold prices for
// identical content is pure waste. The PlanService turns the per-session
// memo into a two-level cache hierarchy built from one PlanTable
// (exec/comm_plan.hpp):
//
//   L1  the session-local PlanCache, one unlocked PlanTable, small. The
//       warm path of a hot loop — the 2nd..Nth Jacobi iteration — replays
//       from here and never touches a shard lock.
//   L2  this service: sealed plans hash-sharded by key across S
//       independent shards, each a PlanTable behind its own mutex. A
//       session's first touch of a key misses its L1, takes exactly one
//       shard lock, and — when any session has priced that content before
//       — replays warm and back-fills its L1. Cold misses price once,
//       publish to both levels, and every later session replays.
//
// Both levels apply the same stale-plan rule (PlanTable::lookup): a plan
// that references a failed processor of the caller's machine is erased at
// lookup. Sharding keeps the lock hold times short and the contention
// independent: two sessions pricing different statements almost always hit
// different shards. Shard counters are monotonic across the process
// lifetime — clear() drops entries but never rewinds a counter — so scrapes
// can always be diffed.
//
// Thread-safety contract: lookup/insert/stats/clear are safe to call from
// any number of threads concurrently. The plans handed out are immutable
// (sealed CommPlans behind shared_ptr<const>). What the service does NOT
// make safe is sharing one ProgramState between threads — a session is
// single-threaded; it is the *service* that is shared.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/comm_plan.hpp"

namespace hpfnt {

struct PlanServiceConfig {
  /// Number of independent shards (clamped to >= 1). More shards = less
  /// lock contention; 16 keeps the worst case at ~K/16 threads per lock.
  std::size_t shards = 16;
  /// LRU bound per shard (clamped to >= 1); total capacity is
  /// shards * shard_capacity plans.
  std::size_t shard_capacity = 64;
};

/// One shard's monotonic counters plus its current size and capacity.
struct PlanShardStats {
  Extent hits = 0;
  Extent misses = 0;
  Extent inserts = 0;    ///< insert calls that stored or refreshed a plan
  Extent evictions = 0;  ///< entries dropped from the LRU tail
  Extent invalidations = 0;  ///< entries dropped for referencing a dead proc
  std::size_t size = 0;
  std::size_t capacity = 0;
};

/// A consistent-enough snapshot of every shard (each shard is snapshotted
/// atomically under its own lock; shards are not frozen relative to each
/// other, which a metrics scrape never needs).
struct PlanServiceStats {
  std::vector<PlanShardStats> shards;

  Extent hits() const noexcept;
  Extent misses() const noexcept;
  Extent inserts() const noexcept;
  Extent evictions() const noexcept;
  Extent invalidations() const noexcept;
  std::size_t size() const noexcept;
  std::size_t capacity() const noexcept;
};

/// The process-wide sharded plan cache (L2). See the file comment for the
/// cache hierarchy; ProgramState::set_plan_service attaches a session.
class PlanService {
 public:
  explicit PlanService(PlanServiceConfig config = {});

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// PlanTable::lookup on the key's shard, under its lock. A plan
  /// erased for referencing a processor in `failed` can never be served
  /// again, to this session or any other.
  std::shared_ptr<const CommPlan> lookup(
      const std::string& key, const std::vector<ApId>& failed = {});

  /// lookup() against the machine's current failure set. Safe to call
  /// concurrently with fail_processor — the failure snapshot is read
  /// atomically (machine/topology.hpp).
  std::shared_ptr<const CommPlan> lookup(const std::string& key,
                                         const Machine& topo);

  /// PlanTable::insert on the key's shard. Two sessions racing to publish
  /// the same cold key is benign — the plans are interchangeable by
  /// construction (the key IS the content signature of the priced
  /// schedule).
  void insert(const std::string& key, std::shared_ptr<const CommPlan> plan);

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// The shard `key` maps to (stable for the service's lifetime; exposed
  /// for tests and shard-imbalance diagnostics).
  std::size_t shard_of(const std::string& key) const noexcept;

  /// Snapshot of every shard's counters, size and capacity.
  PlanServiceStats stats() const;

  /// Drops every cached plan. Counters are monotonic and keep their
  /// values — a metrics scrape can always be diffed across a clear.
  void clear();

 private:
  struct Shard {
    explicit Shard(std::size_t capacity) : table(capacity) {}
    mutable std::mutex mu;
    PlanTable table;  // guarded by mu
  };

  Shard& shard_for(const std::string& key) const {
    return *shards_[shard_of(key)];
  }

  std::vector<std::unique_ptr<Shard>> shards_;  // Shard is immovable (mutex)
};

}  // namespace hpfnt
