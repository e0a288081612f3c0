#include "exec/comm_plan.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace hpfnt {

// Keys are byte strings of fixed-width fields (append_raw,
// support/strings.hpp) behind one-byte structure tags: unambiguous, cheap
// to build (no formatting), cheap to hash.

bool CommPlan::references_any(const std::vector<ApId>& failed) const {
  auto a = referenced_procs.begin();
  auto b = failed.begin();
  while (a != referenced_procs.end() && b != failed.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      return true;
    }
  }
  return false;
}

void PlanKey::add_tag(const char* tag) {
  key_ += tag;
  key_ += ';';
}

void PlanKey::add_scalar(Extent v) {
  key_ += '#';
  append_raw(key_, v);
}

void PlanKey::add_section(const std::vector<Triplet>& section) {
  key_ += 'S';
  append_raw(key_, static_cast<Extent>(section.size()));
  for (const Triplet& t : section) t.append_signature(key_);
}

void PlanKey::add_distribution(const Distribution& dist) {
  dist.append_plan_signature(key_);
}

namespace {

// Byte counts of the PlanKey fields, for sizing a key's buffer once. They
// mirror the append calls above; an undercount only costs a regrowth.
constexpr std::size_t kScalarBytes = 1 + sizeof(Extent);

std::size_t section_bytes(const std::vector<Triplet>& section) {
  return kScalarBytes + section.size() * 3 * sizeof(Index1);
}

std::size_t signature_bytes(const Distribution& dist) {
  return dist.plan_signature().size();
}

}  // namespace

std::string assign_plan_key(const Distribution& lhs_dist,
                            const std::vector<Triplet>& lhs_section,
                            Extent elem_bytes, Extent flops,
                            const std::vector<AssignKeyLeaf>& leaves) {
  std::size_t capacity = sizeof("assign;") + signature_bytes(lhs_dist) +
                         section_bytes(lhs_section) + 2 * kScalarBytes;
  for (const AssignKeyLeaf& leaf : leaves) {
    capacity += signature_bytes(*leaf.dist) + section_bytes(*leaf.section) +
                kScalarBytes;
    if (leaf.posted) {
      capacity += sizeof("posted;") + leaf.shadow->size() * 2 * kScalarBytes;
    }
  }
  PlanKey k(capacity);
  k.add_tag("assign");
  k.add_distribution(lhs_dist);
  k.add_section(lhs_section);
  k.add_scalar(elem_bytes);
  k.add_scalar(flops);
  for (const AssignKeyLeaf& leaf : leaves) {
    k.add_distribution(*leaf.dist);
    k.add_section(*leaf.section);
    k.add_scalar(leaf.bytes);
    // Posted leaves extend the key with the covering shadow widths, so a
    // shadowed split-phase plan can never collide with the synchronous
    // plan of the same layouts (overlap off, or no shadow declared,
    // contributes nothing — those keys stay byte-identical to the
    // pre-shadow scheme and keep sharing across sessions).
    if (leaf.posted) {
      k.add_tag("posted");
      for (const ShadowWidth& w : *leaf.shadow) {
        k.add_scalar(w.left);
        k.add_scalar(w.right);
      }
    }
  }
  return k.take();
}

std::string remap_plan_key(const Distribution& from, const Distribution& to,
                           Extent elem_bytes) {
  PlanKey k(sizeof("remap;") + signature_bytes(from) + signature_bytes(to) +
            kScalarBytes);
  k.add_tag("remap");
  k.add_distribution(from);
  k.add_distribution(to);
  k.add_scalar(elem_bytes);
  return k.take();
}

std::string copy_plan_key(const Distribution& dst_dist,
                          const std::vector<Triplet>& dst_section,
                          const Distribution& src_dist,
                          const std::vector<Triplet>& src_section,
                          Extent elem_bytes) {
  PlanKey k(sizeof("copy;") + signature_bytes(dst_dist) +
            section_bytes(dst_section) + signature_bytes(src_dist) +
            section_bytes(src_section) + kScalarBytes);
  k.add_tag("copy");
  k.add_distribution(dst_dist);
  k.add_section(dst_section);
  k.add_distribution(src_dist);
  k.add_section(src_section);
  k.add_scalar(elem_bytes);
  return k.take();
}

PlanTable::PlanTable(std::size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {}

std::shared_ptr<const CommPlan> PlanTable::lookup(
    const std::string& key, const std::vector<ApId>& failed) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  Entry& e = it->second;
  if (e.plan->references_any(failed)) {
    lru_.erase(e.pos);
    entries_.erase(it);
    ++invalidations_;
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, e.pos);  // promote to front
  return e.plan;
}

void PlanTable::insert(const std::string& key,
                       std::shared_ptr<const CommPlan> plan) {
  if (!plan || !plan->sealed) return;  // never cache an unsealed schedule
  ++inserts_;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Same key, same content: the plans are interchangeable, so a refresh
    // (a racing session, a back-fill) is only bookkeeping.
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return;
  }
  // Evict the least-recently-used entry, not the whole table: a loop that
  // keeps inserting one-shot plans must not wipe out the plans other
  // arrays in the same loop are replaying, and the replayed (recently
  // touched) plans are exactly the ones LRU order protects. An unlucky
  // eviction of a hot plan just re-prices one step.
  evict_to(capacity_ - 1);
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(plan), lru_.begin()});
}

void PlanTable::evict_to(std::size_t bound) {
  while (entries_.size() > bound) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

void PlanTable::set_capacity(std::size_t capacity) {
  capacity_ = capacity < 1 ? 1 : capacity;
  evict_to(capacity_);
}

void PlanTable::clear() {
  entries_.clear();
  lru_.clear();
}

void PlanTable::for_each(
    const std::function<void(const std::string&, const CommPlan&)>& fn)
    const {
  for (const auto& [key, entry] : entries_) fn(key, *entry.plan);
}

std::shared_ptr<const CommPlan> PlanCache::lookup(const std::string& key,
                                                 const Machine& topo) {
  // One consistent snapshot for the whole check; a concurrent epoch bump
  // is seen wholly or not at all (machine/topology.hpp).
  const std::shared_ptr<const FailureSet> snap = topo.failures();
  return lookup(key, snap->failed);
}

}  // namespace hpfnt
