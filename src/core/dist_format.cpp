#include "core/dist_format.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>

#include "core/set_interner.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

DistFormat DistFormat::block() { return DistFormat(FormatKind::kBlock, 1); }

DistFormat DistFormat::vienna_block() {
  return DistFormat(FormatKind::kViennaBlock, 1);
}

DistFormat DistFormat::general_block(std::vector<Extent> upper_bounds) {
  DistFormat f(FormatKind::kGeneralBlock, 1);
  f.data_ = std::move(upper_bounds);
  return f;
}

DistFormat DistFormat::general_block_sizes(const std::vector<Extent>& sizes) {
  std::vector<Extent> bounds;
  bounds.reserve(sizes.size());
  Extent acc = 0;
  for (Extent s : sizes) {
    if (s < 0) throw ConformanceError("GENERAL_BLOCK sizes must be >= 0");
    if (__builtin_add_overflow(acc, s, &acc)) {
      throw ConformanceError("GENERAL_BLOCK sizes overflow their sum");
    }
    bounds.push_back(acc);
  }
  if (!bounds.empty()) bounds.pop_back();  // last block's end is implied (N)
  return general_block(std::move(bounds));
}

DistFormat DistFormat::cyclic(Extent k) {
  if (k < 1) throw ConformanceError("CYCLIC(k) requires k >= 1");
  return DistFormat(FormatKind::kCyclic, k);
}

DistFormat DistFormat::collapsed() {
  return DistFormat(FormatKind::kCollapsed, 1);
}

DistFormat DistFormat::indirect(std::vector<Extent> owner_map) {
  DistFormat f(FormatKind::kIndirect, 1);
  f.data_ = std::move(owner_map);
  return f;
}

DistFormat DistFormat::user_defined(std::string name, UserDimFunction fn) {
  DistFormat f(FormatKind::kUserDefined, 1);
  f.user_name_ = std::move(name);
  f.user_fn_ = std::move(fn);
  return f;
}

std::string DistFormat::to_string() const {
  switch (kind_) {
    case FormatKind::kBlock:
      return "BLOCK";
    case FormatKind::kViennaBlock:
      return "VIENNA_BLOCK";
    case FormatKind::kGeneralBlock: {
      std::vector<std::string> parts;
      parts.reserve(data_.size());
      for (Extent b : data_) parts.push_back(std::to_string(b));
      return "GENERAL_BLOCK(/" + join(parts, ",") + "/)";
    }
    case FormatKind::kCyclic:
      return k_ == 1 ? "CYCLIC" : cat("CYCLIC(", k_, ")");
    case FormatKind::kCollapsed:
      return ":";
    case FormatKind::kIndirect:
      return cat("INDIRECT(<", data_.size(), " entries>)");
    case FormatKind::kUserDefined:
      return "USER(" + user_name_ + ")";
  }
  return "?";
}

bool operator==(const DistFormat& a, const DistFormat& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case FormatKind::kBlock:
    case FormatKind::kViennaBlock:
    case FormatKind::kCollapsed:
      return true;
    case FormatKind::kCyclic:
      return a.k_ == b.k_;
    case FormatKind::kGeneralBlock:
    case FormatKind::kIndirect:
      return a.data_ == b.data_;
    case FormatKind::kUserDefined:
      return a.user_name_ == b.user_name_;
  }
  return false;
}

namespace {
// a + b - 1 would wrap for an extent near the Extent maximum.
Extent ceil_div(Extent a, Extent b) { return a / b + (a % b != 0); }
}  // namespace

struct DimMapping::SegmentMemo {
  static constexpr std::size_t kMaxEntries = 32;
  std::mutex mu;
  std::map<std::array<Index1, 3>, std::shared_ptr<const DimSegmentList>>
      entries;
};

DimMapping DimMapping::bind(const DistFormat& format, Extent n, Extent np) {
  if (n < 0) throw ConformanceError("dimension extent must be >= 0");
  if (np < 1) throw ConformanceError("target extent must be >= 1");
  DimMapping m;
  m.kind_ = format.kind();
  m.n_ = n;
  m.np_ = np;
  m.seg_memo_ = std::make_shared<SegmentMemo>();
  switch (format.kind()) {
    case FormatKind::kBlock:
      m.q_ = n == 0 ? 1 : ceil_div(n, np);
      break;
    case FormatKind::kViennaBlock:
      m.vb_f_ = n / np;
      m.vb_r_ = n % np;
      break;
    case FormatKind::kCyclic: {
      m.q_ = format.cyclic_k();
      // The block cycle k*NP divides every global/local index conversion
      // below; a wrapped (possibly zero) cycle would trap there.
      Extent cycle = 0;
      if (__builtin_mul_overflow(m.q_, np, &cycle)) {
        throw ConformanceError(cat("CYCLIC(", m.q_, ") over ", np,
                                   " processors: the block cycle k*NP "
                                   "overflows the index range"));
      }
      break;
    }
    case FormatKind::kCollapsed:
      if (np != 1) {
        throw InternalError("collapsed dimensions bind with np == 1");
      }
      break;
    case FormatKind::kGeneralBlock: {
      const std::vector<Extent>& g = format.general_bounds();
      if (static_cast<Extent>(g.size()) < np - 1) {
        throw ConformanceError(
            cat("GENERAL_BLOCK needs at least NP-1 = ", np - 1,
                " bounds, got ", g.size()));
      }
      m.ends_.assign(static_cast<std::size_t>(np) + 1, 0);
      Extent prev = 0;
      for (Extent p = 1; p <= np - 1; ++p) {
        const Extent end = g[static_cast<std::size_t>(p - 1)];
        if (end < prev || end > n) {
          throw ConformanceError(
              cat("GENERAL_BLOCK bound G(", p, ") = ", end,
                  " must be nondecreasing and within [0:", n, "]"));
        }
        m.ends_[static_cast<std::size_t>(p)] = end;
        prev = end;
      }
      m.ends_[static_cast<std::size_t>(np)] = n;
      break;
    }
    case FormatKind::kIndirect: {
      const std::vector<Extent>& map = format.indirect_map();
      if (static_cast<Extent>(map.size()) != n) {
        throw ConformanceError(cat("INDIRECT map has ", map.size(),
                                   " entries for extent ", n));
      }
      auto table = std::make_shared<IndirectTable>();
      table->owner_of.assign(map.begin(), map.end());
      table->globals.resize(static_cast<std::size_t>(np));
      table->local_of.resize(static_cast<std::size_t>(n));
      for (Index1 i = 1; i <= n; ++i) {
        const Extent p = map[static_cast<std::size_t>(i - 1)];
        if (p < 1 || p > np) {
          throw ConformanceError(cat("INDIRECT owner ", p, " of index ", i,
                                     " outside 1:", np));
        }
        auto& bucket = table->globals[static_cast<std::size_t>(p - 1)];
        bucket.push_back(i);
        table->local_of[static_cast<std::size_t>(i - 1)] =
            static_cast<Extent>(bucket.size());
      }
      m.table_ = std::move(table);
      break;
    }
    case FormatKind::kUserDefined: {
      const UserDimFunction& fn = format.user_function();
      if (!fn) throw ConformanceError("user-defined format has no function");
      auto table = std::make_shared<IndirectTable>();
      table->replicated = true;
      table->owner_of.resize(static_cast<std::size_t>(n));
      table->owner_sets.resize(static_cast<std::size_t>(n));
      table->globals.resize(static_cast<std::size_t>(np));
      table->local_of.resize(static_cast<std::size_t>(n));
      for (Index1 i = 1; i <= n; ++i) {
        DimOwnerSet owners = fn(i, n, np);
        if (owners.empty()) {
          throw ConformanceError(
              cat("user-defined distribution '", format.user_name(),
                  "' mapped index ", i,
                  " to no processor (distributions must be total, §2.2)"));
        }
        for (Index1 p : owners) {
          if (p < 1 || p > np) {
            throw ConformanceError(cat("user-defined owner ", p,
                                       " of index ", i, " outside 1:", np));
          }
        }
        // User functions return owner sets in arbitrary order; the primary
        // owner — the one owner()/local_index() report — is the canonical
        // *minimum* position, the replica convention everywhere in the
        // model (owners.front() would elect whichever replica the user
        // happened to list first).
        Index1 primary = owners.front();
        for (Index1 p : owners) primary = std::min(primary, p);
        table->owner_of[static_cast<std::size_t>(i - 1)] = primary;
        auto& bucket =
            table->globals[static_cast<std::size_t>(primary - 1)];
        bucket.push_back(i);
        table->local_of[static_cast<std::size_t>(i - 1)] =
            static_cast<Extent>(bucket.size());
        // Replicas beyond the primary owner also store the element; they
        // are appended to those owners' global lists so local enumeration
        // and counts see them.
        for (Index1 p : owners) {
          if (p == primary) continue;
          table->globals[static_cast<std::size_t>(p - 1)].push_back(i);
        }
        table->owner_sets[static_cast<std::size_t>(i - 1)] = owners;
      }
      for (auto& bucket : table->globals) {
        std::sort(bucket.begin(), bucket.end());
      }
      m.table_ = std::move(table);
      break;
    }
  }
  return m;
}

void DimMapping::check_index(Index1 i) const {
  if (i < 1 || i > n_) {
    throw MappingError(cat("normalized index ", i, " outside 1:", n_));
  }
}

void DimMapping::check_position(Index1 p) const {
  if (p < 1 || p > np_) {
    throw MappingError(cat("target position ", p, " outside 1:", np_));
  }
}

Index1 DimMapping::owner(Index1 i) const {
  check_index(i);
  switch (kind_) {
    case FormatKind::kBlock:
      return (i - 1) / q_ + 1;
    case FormatKind::kViennaBlock: {
      const Extent head = vb_r_ * (vb_f_ + 1);
      if (i <= head) return (i - 1) / (vb_f_ + 1) + 1;
      return vb_r_ + (i - head - 1) / vb_f_ + 1;
    }
    case FormatKind::kCyclic:
      return ((i - 1) / q_) % np_ + 1;
    case FormatKind::kCollapsed:
      return 1;
    case FormatKind::kGeneralBlock: {
      // First p with ends_[p] >= i: blocks are (ends_[p-1], ends_[p]].
      const auto it =
          std::lower_bound(ends_.begin() + 1, ends_.end(), i);
      return static_cast<Index1>(it - ends_.begin());
    }
    case FormatKind::kIndirect:
    case FormatKind::kUserDefined:
      return table_->owner_of[static_cast<std::size_t>(i - 1)];
  }
  throw InternalError("unreachable format kind");
}

DimOwnerSet DimMapping::owners(Index1 i) const {
  if (kind_ == FormatKind::kUserDefined) {
    check_index(i);
    return table_->owner_sets[static_cast<std::size_t>(i - 1)];
  }
  DimOwnerSet out;
  out.push_back(owner(i));
  return out;
}

Index1 DimMapping::local_index(Index1 i) const {
  check_index(i);
  switch (kind_) {
    case FormatKind::kBlock:
      return i - ((i - 1) / q_) * q_;
    case FormatKind::kViennaBlock: {
      const Extent head = vb_r_ * (vb_f_ + 1);
      if (i <= head) return (i - 1) % (vb_f_ + 1) + 1;
      return (i - head - 1) % vb_f_ + 1;
    }
    case FormatKind::kCyclic:
      return ((i - 1) / (q_ * np_)) * q_ + (i - 1) % q_ + 1;
    case FormatKind::kCollapsed:
      return i;
    case FormatKind::kGeneralBlock: {
      const Index1 p = owner(i);
      return i - ends_[static_cast<std::size_t>(p - 1)];
    }
    case FormatKind::kIndirect:
    case FormatKind::kUserDefined:
      return table_->local_of[static_cast<std::size_t>(i - 1)];
  }
  throw InternalError("unreachable format kind");
}

Extent DimMapping::local_count(Index1 p) const {
  check_position(p);
  switch (kind_) {
    case FormatKind::kBlock:
      return std::clamp<Extent>(n_ - (p - 1) * q_, 0, q_);
    case FormatKind::kViennaBlock:
      return vb_f_ + (p <= vb_r_ ? 1 : 0);
    case FormatKind::kCyclic: {
      const Extent cycle = q_ * np_;
      const Extent full = (n_ / cycle) * q_;
      const Extent rem = n_ % cycle;
      return full + std::clamp<Extent>(rem - (p - 1) * q_, 0, q_);
    }
    case FormatKind::kCollapsed:
      return n_;
    case FormatKind::kGeneralBlock:
      return ends_[static_cast<std::size_t>(p)] -
             ends_[static_cast<std::size_t>(p - 1)];
    case FormatKind::kIndirect:
    case FormatKind::kUserDefined:
      return static_cast<Extent>(
          table_->globals[static_cast<std::size_t>(p - 1)].size());
  }
  throw InternalError("unreachable format kind");
}

Index1 DimMapping::global_index(Index1 p, Index1 l) const {
  check_position(p);
  if (l < 1 || l > local_count(p)) {
    throw MappingError(cat("local index ", l, " outside 1:", local_count(p),
                           " on position ", p));
  }
  switch (kind_) {
    case FormatKind::kBlock:
      return (p - 1) * q_ + l;
    case FormatKind::kViennaBlock: {
      const Extent start =
          (p - 1) * vb_f_ + std::min<Extent>(p - 1, vb_r_) + 1;
      return start + l - 1;
    }
    case FormatKind::kCyclic: {
      const Extent cycle = (l - 1) / q_;
      const Extent offset = (l - 1) % q_;
      return cycle * q_ * np_ + (p - 1) * q_ + offset + 1;
    }
    case FormatKind::kCollapsed:
      return l;
    case FormatKind::kGeneralBlock:
      return ends_[static_cast<std::size_t>(p - 1)] + l;
    case FormatKind::kIndirect:
    case FormatKind::kUserDefined:
      return table_->globals[static_cast<std::size_t>(p - 1)]
                            [static_cast<std::size_t>(l - 1)];
  }
  throw InternalError("unreachable format kind");
}

void DimMapping::for_each_owned(Index1 p,
                                const std::function<void(Index1)>& fn) const {
  const Extent count = local_count(p);
  if (is_contiguous()) {
    const auto [first, last] = block_range(p);
    for (Index1 i = first; i <= last; ++i) fn(i);
    return;
  }
  for (Index1 l = 1; l <= count; ++l) fn(global_index(p, l));
}

std::pair<Index1, Index1> DimMapping::segment_range(Index1 i) const {
  check_index(i);
  switch (kind_) {
    case FormatKind::kBlock:
    case FormatKind::kViennaBlock:
    case FormatKind::kGeneralBlock:
      return block_range(owner(i));
    case FormatKind::kCollapsed:
      return {1, n_};
    case FormatKind::kCyclic: {
      const Index1 first = ((i - 1) / q_) * q_ + 1;
      return {first, std::min<Index1>(first + q_ - 1, n_)};
    }
    case FormatKind::kIndirect: {
      const std::vector<Extent>& own = table_->owner_of;
      const Extent o = own[static_cast<std::size_t>(i - 1)];
      Index1 lo = i, hi = i;
      while (lo > 1 && own[static_cast<std::size_t>(lo - 2)] == o) --lo;
      while (hi < n_ && own[static_cast<std::size_t>(hi)] == o) ++hi;
      return {lo, hi};
    }
    case FormatKind::kUserDefined: {
      const std::vector<DimOwnerSet>& sets = table_->owner_sets;
      const DimOwnerSet& s = sets[static_cast<std::size_t>(i - 1)];
      Index1 lo = i, hi = i;
      while (lo > 1 && sets[static_cast<std::size_t>(lo - 2)] == s) --lo;
      while (hi < n_ && sets[static_cast<std::size_t>(hi)] == s) ++hi;
      return {lo, hi};
    }
  }
  throw InternalError("unreachable format kind");
}

std::pair<Index1, Index1> DimMapping::block_range(Index1 p) const {
  check_position(p);
  switch (kind_) {
    case FormatKind::kBlock: {
      const Index1 first = (p - 1) * q_ + 1;
      return {first, first + local_count(p) - 1};
    }
    case FormatKind::kViennaBlock: {
      const Index1 first = (p - 1) * vb_f_ + std::min<Extent>(p - 1, vb_r_) + 1;
      return {first, first + local_count(p) - 1};
    }
    case FormatKind::kGeneralBlock:
      return {ends_[static_cast<std::size_t>(p - 1)] + 1,
              ends_[static_cast<std::size_t>(p)]};
    case FormatKind::kCollapsed:
      return {1, n_};
    default:
      throw InternalError("block_range on a non-contiguous format");
  }
}

DimSegmentList DimMapping::compute_segment_list(const Triplet& t) const {
  DimSegmentList out;
  const Extent len = t.size();
  if (len == 0) return out;
  check_index(t.lower());
  check_index(t.last());
  // Reserve for the segments the triplet can cross, so a long list is
  // written once rather than regrown: owners are monotone in the block
  // family, CYCLIC(k) changes owner every k indices, and a table-backed
  // format may change at every element.
  const Index1 first = std::min(t.lower(), t.last());
  const Index1 last = std::max(t.lower(), t.last());
  Extent bound = len;
  if (is_contiguous()) {
    bound = owner(last) - owner(first) + 1;
  } else if (kind_ == FormatKind::kCyclic) {
    bound = (last - 1) / q_ - (first - 1) / q_ + 1;
  }
  out.segments.reserve(static_cast<std::size_t>(std::min(len, bound)));
  SetInterner<DimOwnerSet> pool(out.sets);
  const Index1 step = t.stride();
  Extent k = 0;
  while (k < len) {
    const Index1 i = t.at(k);
    const std::uint32_t set = may_replicate() ? pool.intern(owners(i))
                                              : pool.intern_single(owner(i));
    ++out.probes;
    const auto [seg_lo, seg_hi] = segment_range(i);
    Extent span = step > 0 ? (seg_hi - i) / step : (i - seg_lo) / (-step);
    span = std::min(span, len - 1 - k);
    if (!out.segments.empty() && out.segments.back().set == set) {
      out.segments.back().count += span + 1;
    } else {
      out.segments.push_back({i, span + 1, set});
    }
    k += span + 1;
  }
  // Table-backed formats with long runs use little of their reservation.
  if (out.segments.size() * 2 < out.segments.capacity()) {
    out.segments.shrink_to_fit();
  }
  return out;
}

std::uint64_t DimMapping::content_digest() const {
  if (kind_ != FormatKind::kIndirect && kind_ != FormatKind::kUserDefined) {
    throw InternalError("content_digest on a non-table-backed format");
  }
  std::uint64_t d = table_->digest.load(std::memory_order_acquire);
  if (d != 0) return d;
  d = fnv1a_mix(fnv1a_mix(fnv1a_basis, n_), np_);
  if (kind_ == FormatKind::kUserDefined) {
    // owner_sets is stored in the order the user function returned it, but
    // the order carries no mapping content — digest a sorted copy so two
    // functions producing the same sets in different orders share a digest.
    // (Safe for plan keys even though run *segmentation* compares sets
    // order-sensitively: a split vs merged equal-set segment prices the
    // same aggregated StepStats — transfers bucket per (src,dst) pair,
    // computes per processor, and the replica decisions use only
    // min_owner/membership, all order-independent.)
    for (const DimOwnerSet& set : table_->owner_sets) {
      DimOwnerSet sorted_set = set;
      std::sort(sorted_set.begin(), sorted_set.end());
      d = fnv1a_mix(d, static_cast<Extent>(sorted_set.size()));
      for (Index1 p : sorted_set) d = fnv1a_mix(d, p);
    }
  } else {
    for (Extent p : table_->owner_of) d = fnv1a_mix(d, p);
  }
  if (d == 0) d = 1;  // reserve 0 for "not yet computed"
  table_->digest.store(d, std::memory_order_release);
  return d;
}

std::shared_ptr<const DimSegmentList> DimMapping::segment_list(
    const Triplet& t, Extent* probes_charged) const {
  if (!seg_memo_) {  // default-constructed mapping: no sharing possible
    auto fresh = std::make_shared<const DimSegmentList>(compute_segment_list(t));
    if (probes_charged) *probes_charged = fresh->probes;
    return fresh;
  }
  const std::array<Index1, 3> key{t.lower(), t.upper(), t.stride()};
  {
    std::lock_guard<std::mutex> lock(seg_memo_->mu);
    auto it = seg_memo_->entries.find(key);
    if (it != seg_memo_->entries.end()) {
      if (probes_charged) *probes_charged = 0;
      return it->second;
    }
  }
  auto fresh = std::make_shared<const DimSegmentList>(compute_segment_list(t));
  if (probes_charged) *probes_charged = fresh->probes;
  std::lock_guard<std::mutex> lock(seg_memo_->mu);
  if (seg_memo_->entries.size() >= SegmentMemo::kMaxEntries &&
      seg_memo_->entries.count(key) == 0) {
    seg_memo_->entries.clear();  // small and recurring; clear wholesale
  }
  auto& slot = seg_memo_->entries[key];
  if (!slot) slot = fresh;  // keep the first on a race
  return slot;
}

}  // namespace hpfnt
