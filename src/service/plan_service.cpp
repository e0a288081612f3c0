#include "service/plan_service.hpp"

#include <functional>

namespace hpfnt {

// --- PlanServiceStats --------------------------------------------------------

namespace {

template <typename T>
T sum_of(const std::vector<PlanShardStats>& shards, T PlanShardStats::*field) {
  T n = 0;
  for (const PlanShardStats& s : shards) n += s.*field;
  return n;
}

}  // namespace

Extent PlanServiceStats::hits() const noexcept {
  return sum_of(shards, &PlanShardStats::hits);
}

Extent PlanServiceStats::misses() const noexcept {
  return sum_of(shards, &PlanShardStats::misses);
}

Extent PlanServiceStats::inserts() const noexcept {
  return sum_of(shards, &PlanShardStats::inserts);
}

Extent PlanServiceStats::evictions() const noexcept {
  return sum_of(shards, &PlanShardStats::evictions);
}

Extent PlanServiceStats::invalidations() const noexcept {
  return sum_of(shards, &PlanShardStats::invalidations);
}

std::size_t PlanServiceStats::size() const noexcept {
  return sum_of(shards, &PlanShardStats::size);
}

std::size_t PlanServiceStats::capacity() const noexcept {
  return sum_of(shards, &PlanShardStats::capacity);
}

// --- PlanService -------------------------------------------------------------

PlanService::PlanService(PlanServiceConfig config) {
  const std::size_t n = config.shards < 1 ? 1 : config.shards;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(config.shard_capacity));
  }
}

std::size_t PlanService::shard_of(const std::string& key) const noexcept {
  // The plan keys are binary signature strings with most of their entropy
  // spread through the bytes; std::hash mixes them well enough that the
  // shard index and the per-shard unordered_map buckets stay decorrelated.
  return std::hash<std::string>{}(key) % shards_.size();
}

std::shared_ptr<const CommPlan> PlanService::lookup(
    const std::string& key, const std::vector<ApId>& failed) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.table.lookup(key, failed);
}

std::shared_ptr<const CommPlan> PlanService::lookup(const std::string& key,
                                                    const Machine& topo) {
  const std::shared_ptr<const FailureSet> snap = topo.failures();
  return lookup(key, snap->failed);
}

void PlanService::insert(const std::string& key,
                         std::shared_ptr<const CommPlan> plan) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.table.insert(key, std::move(plan));
}

PlanServiceStats PlanService::stats() const {
  PlanServiceStats out;
  out.shards.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& sp : shards_) {
    const Shard& shard = *sp;
    std::lock_guard<std::mutex> lock(shard.mu);
    const PlanTable& t = shard.table;
    out.shards.push_back({t.hits(), t.misses(), t.inserts(), t.evictions(),
                          t.invalidations(), t.size(), t.capacity()});
  }
  return out;
}

void PlanService::clear() {
  for (const std::unique_ptr<Shard>& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    sp->table.clear();
  }
}

}  // namespace hpfnt
