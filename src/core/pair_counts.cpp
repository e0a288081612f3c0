#include "core/pair_counts.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <utility>

#include "core/dist_format.hpp"
#include "core/set_interner.hpp"
#include "support/error.hpp"

namespace hpfnt {

namespace {

using SetIds = std::array<std::uint32_t, kMaxRank>;

// --- the normal form ---------------------------------------------------------

// `count` positions of a feed, position k at root index first + k·step
// (step 0: one index, as a §5.1 clamp gives).
struct IndexPiece {
  Extent count;
  Index1 first;
  Index1 step;
};

using Pieces = SmallVector<IndexPiece, kMaxRank>;

// How one root dimension is fed: section dimension `section_dim` read
// through pieces [begin, end) in position order, or (section_dim < 0)
// every index the pieces list, all owning each element.
struct RootFeed {
  int section_dim;
  std::uint32_t begin;
  std::uint32_t end;
};

struct NormalForm {
  const Distribution* root = nullptr;
  SmallVector<RootFeed, kMaxRank> feeds;  // one per root dimension
  Pieces pieces;
};

// Appends one position at index y, extending the last piece when y
// continues it.
void push_index(Pieces& out, std::size_t begin, Index1 y) {
  if (out.size() > begin) {
    IndexPiece& last = out.back();
    if (last.count == 1) {
      last.step = y - last.first;
      last.count = 2;
      return;
    }
    if (last.first + last.count * last.step == y) {
      ++last.count;
      return;
    }
  }
  out.push_back({1, y, 0});
}

// Appends piece p mapped through base dimension j of α, whose subscript is
// `expr`: a linear a·J+b maps it to at most three pieces — the positions
// whose image falls below the base, inside it, and above it, the outer two
// clamped (§5.1) — and MAX/MIN is evaluated one position at a time.
void map_piece(const IndexPiece& p, const AlignExpr& expr,
               const AlignmentFunction& alpha, int j, Pieces& out,
               std::size_t begin) {
  const std::optional<AlignExpr::Linear> lin = expr.linear();
  if (!lin) {
    for (Extent k = 0; k < p.count; ++k) {
      push_index(out, begin,
                 alpha.clamp_or_throw(expr.eval(p.first + k * p.step), j));
    }
    return;
  }
  const Index1 y0 = lin->a * p.first + lin->b;
  const Index1 dy = lin->a * p.step;
  if (p.count == 1 || dy == 0) {
    out.push_back({p.count, alpha.clamp_or_throw(y0, j), 0});
    return;
  }
  const Index1 lo = alpha.base_domain().lower(j);
  const Index1 hi = alpha.base_domain().upper(j);
  // Leading positions beyond the bound y starts towards, then the first
  // position past the other bound.
  const Index1 near = dy > 0 ? lo : hi;
  const Index1 far = dy > 0 ? hi : lo;
  const Index1 step = dy > 0 ? dy : -dy;
  const Index1 before = dy > 0 ? near - y0 : y0 - near;  // > 0: clamped
  const Index1 room = dy > 0 ? far - y0 : y0 - far;      // >= 0: inside
  const Extent lead =
      before <= 0 ? 0 : std::min<Extent>(p.count, (before + step - 1) / step);
  const Extent inside_end =
      room < 0 ? 0 : std::min<Extent>(p.count, room / step + 1);
  if (lead > 0) out.push_back({lead, alpha.clamp_or_throw(y0, j), 0});
  if (inside_end > lead) {
    out.push_back({inside_end - lead, y0 + lead * dy, dy});
  }
  const Extent tail = p.count - std::max(lead, inside_end);
  if (tail > 0) {
    out.push_back(
        {tail, alpha.clamp_or_throw(y0 + (p.count - 1) * dy, j), 0});
  }
}

// Reduces `dist` over `section` (non-empty) to its normal form.
NormalForm normal_form(const Distribution& dist,
                       const std::vector<Triplet>& section) {
  NormalForm nf;
  for (std::size_t d = 0; d < section.size(); ++d) {
    const Triplet& t = section[d];
    nf.feeds.push_back({static_cast<int>(d), static_cast<std::uint32_t>(d),
                        static_cast<std::uint32_t>(d + 1)});
    nf.pieces.push_back({t.size(), t.lower(), t.stride()});
  }
  const Distribution* cur = &resolve_identity(dist);
  while (cur->kind() != Distribution::Kind::kFormats) {
    if (cur->kind() == Distribution::Kind::kSectionView) {
      // Restriction: view index x of dimension e is the parent's
      // trips[e].at(x - 1).
      const std::vector<Triplet>& trips = cur->section_triplets();
      for (std::size_t e = 0; e < nf.feeds.size(); ++e) {
        const Triplet& t = trips[e];
        for (std::uint32_t k = nf.feeds[e].begin; k < nf.feeds[e].end; ++k) {
          IndexPiece& p = nf.pieces[k];
          p.first = t.at(p.first - 1);
          p.step *= t.stride();
        }
      }
      cur = &resolve_identity(cur->section_parent());
      continue;
    }
    // CONSTRUCT(α, δ_B): base dimension j is a fixed index, every index of
    // the dimension, or alignee dimension i's feed mapped through α.
    const AlignmentFunction& alpha = cur->alignment();
    const std::vector<AlignmentFunction::BaseDim>& bdims = alpha.base_dims();
    NormalForm next;
    for (std::size_t j = 0; j < bdims.size(); ++j) {
      const AlignmentFunction::BaseDim& bd = bdims[j];
      const int jj = static_cast<int>(j);
      const auto begin = static_cast<std::uint32_t>(next.pieces.size());
      int feeder = -1;
      switch (bd.kind) {
        case AlignmentFunction::BaseDim::Kind::kConst:
          next.pieces.push_back({1, alpha.clamp_or_throw(bd.constant, jj), 0});
          break;
        case AlignmentFunction::BaseDim::Kind::kReplicated: {
          const Triplet& t = alpha.base_domain().dim(jj);
          next.pieces.push_back({t.size(), t.lower(), t.stride()});
          break;
        }
        case AlignmentFunction::BaseDim::Kind::kExpr: {
          const RootFeed& from =
              nf.feeds[static_cast<std::size_t>(bd.alignee_dim)];
          feeder = from.section_dim;
          for (std::uint32_t k = from.begin; k < from.end; ++k) {
            map_piece(nf.pieces[k], bd.expr, alpha, jj, next.pieces, begin);
          }
          break;
        }
      }
      next.feeds.push_back(
          {feeder, begin, static_cast<std::uint32_t>(next.pieces.size())});
    }
    nf = std::move(next);
    cur = &resolve_identity(cur->base());
  }
  nf.root = cur;
  return nf;
}

// --- per-dimension lists -----------------------------------------------------

// Where a side's segment lists come from: the pair counts read memoized
// lists of one CYCLIC period and report the probes that built them; a run
// table reads whole lists, memoized (reporting only the probes it spent)
// or computed afresh.
enum class ListSource { kPeriodic, kMemo, kFresh };

// One section dimension of a side: its constant-owner list over one period
// (a CYCLIC dimension whose owners repeat within the section) or over the
// whole triplet.
struct DimSeq {
  std::shared_ptr<const DimSegmentList> list;
  Extent len = 0;                  // section positions
  Extent period = 0;               // positions the list covers
  std::vector<Extent> per_period;  // positions per set id in the list

  bool periodic() const { return period < len; }
  const std::vector<DimSegment>& segments() const { return list->segments; }
};

// Positions per set id of `limit` positions of `seq` from its start: the
// list's whole periods times their repeat count, plus the prefix.
std::vector<Extent> prefix_set_counts(const DimSeq& seq, Extent limit) {
  std::vector<Extent> out(seq.list->sets.size(), 0);
  const Extent reps = limit / seq.period;
  Extent rem = limit % seq.period;
  for (const DimSegment& s : seq.segments()) {
    const Extent part = std::min(s.count, rem);
    out[s.set] += s.count * reps + part;
    rem -= part;
  }
  return out;
}

// The list of normalized triplet `t` of `m`, its probes added to `queries`
// as `source` counts them.
std::shared_ptr<const DimSegmentList> fetch_list(const DimMapping& m,
                                                 const Triplet& t,
                                                 ListSource source,
                                                 Extent& queries) {
  if (source == ListSource::kFresh) {
    auto fresh =
        std::make_shared<const DimSegmentList>(m.compute_segment_list(t));
    queries += fresh->probes;
    return fresh;
  }
  Extent charged = 0;
  std::shared_ptr<const DimSegmentList> list = m.segment_list(t, &charged);
  queries += source == ListSource::kMemo ? charged : list->probes;
  return list;
}

// Calls fn(set, count) for each constant-owner stretch of pieces
// [p, end) of root dimension m (indices normalized by `shift`), in order.
template <class Fn>
void for_each_piece_segment(const DimMapping& m, Index1 shift,
                            const IndexPiece* p, const IndexPiece* end,
                            ListSource source, Extent& queries, Fn&& fn) {
  for (; p != end; ++p) {
    if (p->count == 1 || p->step == 0) {
      ++queries;
      fn(m.owners(p->first - shift), p->count);
      continue;
    }
    const Index1 first = p->first - shift;
    const std::shared_ptr<const DimSegmentList> list = fetch_list(
        m, Triplet(first, first + (p->count - 1) * p->step, p->step), source,
        queries);
    for (const DimSegment& s : list->segments) fn(list->sets[s.set], s.count);
  }
}

}  // namespace

namespace detail {

// One side over one section: a DimSeq per section dimension, and the
// composition of per-dimension set-id tuples into owner-set ids — each
// tuple composed once and interned into the side's pool.
class FormatsSide {
 public:
  FormatsSide(const Distribution& dist, const std::vector<Triplet>& section,
              std::vector<OwnerSet>& pool,
              ListSource source = ListSource::kPeriodic)
      : pool_(pool), interner_(pool) {
    dist.domain().validate_section(section);
    size_ = section_size(section);
    if (size_ == 0) return;  // an empty section reads no list
    const NormalForm nf = normal_form(dist, section);
    root_ = nf.root;
    const IndexDomain& domain = root_->domain();
    if (domain.rank() == 0) queries_ = 1;  // the scalar's one owner set
    dims_.resize(section.size());
    for (std::size_t d = 0; d < section.size(); ++d) {
      dims_[d].len = dims_[d].period = section[d].size();
    }
    for (int r = 0; r < domain.rank(); ++r) {
      const RootFeed& feed = nf.feeds[static_cast<std::size_t>(r)];
      const DimMapping& m = root_->dim_mapping(r);
      const Index1 shift = domain.lower(r) - 1;
      const IndexPiece* first = nf.pieces.data() + feed.begin;
      const IndexPiece* last = nf.pieces.data() + feed.end;
      const bool coord = m.kind() != FormatKind::kCollapsed;
      if (feed.section_dim < 0) {
        // A fixed or replicated root dimension: one constant factor, the
        // union of its indices' owners (none when collapsed).
        if (!coord) continue;
        DimOwnerSet owners;
        for_each_piece_segment(
            m, shift, first, last, source, queries_,
            [&](const DimOwnerSet& set, Extent) {
              for (Index1 q : set) {
                if (std::find(owners.begin(), owners.end(), q) ==
                    owners.end()) {
                  owners.push_back(q);
                }
              }
            });
        slots_.push_back({-1, static_cast<int>(constants_.size())});
        constants_.push_back(std::move(owners));
        continue;
      }
      DimSeq& seq = dims_[static_cast<std::size_t>(feed.section_dim)];
      if (last - first == 1 && first->step != 0) {
        const Index1 lo = first->first - shift;
        const Index1 step = first->step;
        if (source == ListSource::kPeriodic &&
            m.kind() == FormatKind::kCyclic) {
          // Owners repeat every k·NP indices, so every k·NP/gcd(|s|, k·NP)
          // positions at stride s.
          const Extent cycle =
              root_->format_list()[static_cast<std::size_t>(r)].cyclic_k() *
              m.np();
          seq.period =
              std::min(seq.len, cycle / std::gcd(std::abs(step), cycle));
        }
        seq.list = fetch_list(
            m, Triplet(lo, lo + (seq.period - 1) * step, step), source,
            queries_);
        if (seq.periodic()) {
          seq.per_period = prefix_set_counts(seq, seq.period);
        }
      } else {
        seq.list = join(m, shift, first, last, source);
      }
      if (coord) slots_.push_back({feed.section_dim, -1});
    }
    for (DimSeq& seq : dims_) {
      if (seq.list) continue;
      // Fed to no root dimension (an alignee "*"): one constant segment.
      auto constant = std::make_shared<DimSegmentList>();
      constant->segments.push_back({1, seq.len, 0});
      constant->sets.emplace_back();
      seq.list = std::move(constant);
    }
    for (const DimSeq& seq : dims_) tuples_ *= seq.list->sets.size();
    if (tuples_ <= kDenseTuples) composed_.assign(tuples_, 0);
  }

  int rank() const { return static_cast<int>(dims_.size()); }
  const DimSeq& dim(int d) const { return dims_[static_cast<std::size_t>(d)]; }
  Extent size() const { return size_; }
  Extent queries() const { return queries_; }
  const std::vector<OwnerSet>& pool() const { return pool_; }
  const OwnerSet& set(std::uint32_t id) const { return pool_[id]; }

  /// The set ids of a section holding each dimension at its first
  /// position: the fixed ids of unit dimensions.
  SetIds first_ids() const {
    SetIds ids{};
    for (int d = 0; d < rank(); ++d) {
      ids[static_cast<std::size_t>(d)] = dim(d).segments().front().set;
    }
    return ids;
  }

  /// The id of the owner set composed from per-dimension set ids (ids[d]
  /// into dimension d's list).
  std::uint32_t compose(const SetIds& ids) {
    std::uint64_t key = 0;
    for (int d = rank() - 1; d >= 0; --d) {
      key = key * dim(d).list->sets.size() + ids[static_cast<std::size_t>(d)];
    }
    std::uint32_t& slot = tuples_ <= kDenseTuples
                              ? composed_[static_cast<std::size_t>(key)]
                              : hashed_.accumulate(key);
    if (slot == 0) {
      std::array<const DimOwnerSet*, kMaxRank> sets{};
      std::size_t c = 0;
      for (const Slot& s : slots_) {
        sets[c++] =
            s.dim >= 0
                ? &dim(s.dim).list->sets[ids[static_cast<std::size_t>(s.dim)]]
                : &constants_[static_cast<std::size_t>(s.constant)];
      }
      slot = interner_.intern(compose_dim_owners(root_->target(), sets, c)) + 1;
    }
    return slot - 1;
  }

 private:
  // Composed ids + 1 per tuple of set ids: dense for few tuples.
  static constexpr std::uint64_t kDenseTuples = 4096;

  // A target coordinate of the composition, in root dimension order: a
  // section dimension's list, or a constant factor.
  struct Slot {
    int dim;
    int constant;
  };

  // The pieces' segments joined into one list, adjacent equal sets merged.
  std::shared_ptr<const DimSegmentList> join(const DimMapping& m,
                                             Index1 shift,
                                             const IndexPiece* first,
                                             const IndexPiece* last,
                                             ListSource source) {
    auto out = std::make_shared<DimSegmentList>();
    SetInterner<DimOwnerSet> sets(out->sets);
    for_each_piece_segment(
        m, shift, first, last, source, queries_,
        [&](const DimOwnerSet& owners, Extent count) {
          const std::uint32_t id = sets.intern(owners);
          if (!out->segments.empty() && out->segments.back().set == id) {
            out->segments.back().count += count;
          } else {
            out->segments.push_back({0, count, id});
          }
        });
    return out;
  }

  const Distribution* root_ = nullptr;
  const std::vector<OwnerSet>& pool_;
  SetInterner<OwnerSet> interner_;
  std::vector<DimSeq> dims_;
  SmallVector<Slot, kMaxRank> slots_;
  std::vector<DimOwnerSet> constants_;
  Extent size_ = 1;
  Extent queries_ = 0;
  std::uint64_t tuples_ = 1;
  std::vector<std::uint32_t> composed_;
  StepAccumTable<std::uint64_t, std::uint32_t> hashed_;
};

}  // namespace detail

namespace {

using detail::FormatsSide;

// A position in a DimSeq's list, wrapping to the start at its end.
struct Cursor {
  explicit Cursor(const DimSeq& seq)
      : first(seq.segments().data()),
        last(first + seq.segments().size()),
        seg(first),
        left(first->count) {}

  const DimSegment* first;
  const DimSegment* last;
  const DimSegment* seg;
  Extent left;  // positions of *seg not yet passed

  std::uint32_t set() const { return seg->set; }
  void advance(Extent c) {
    left -= c;
    if (left == 0) {
      if (++seg == last) seg = first;
      left = seg->count;
    }
  }
};

// Walks positions [0, limit) of one paired dimension's two sequences from
// their start, calling the visitor's
//   run(sa, sb, count)        count positions with both sets constant,
//   window_b(sa, cursor, f)   f whole periods of b, from cursor, while a
//                             holds sa (a's run covers them),
//   window_a(cursor, sb, f)   the same with the roles swapped.
template <class Visitor>
void merge_dim(const DimSeq& a, const DimSeq& b, Extent limit, Visitor& v) {
  Cursor ca(a);
  Cursor cb(b);
  const Extent pa = a.periodic() ? a.period : limit + 1;
  const Extent pb = b.periodic() ? b.period : limit + 1;
  for (Extent left = limit; left > 0;) {
    const Extent ra = std::min(ca.left, left);
    const Extent rb = std::min(cb.left, left);
    if (ra >= pb) {
      const Extent f = ra / pb;
      v.window_b(ca.set(), cb, f);
      ca.advance(f * pb);
      left -= f * pb;
    } else if (rb >= pa) {
      const Extent f = rb / pa;
      v.window_a(ca, cb.set(), f);
      cb.advance(f * pa);
      left -= f * pa;
    } else {
      const Extent c = std::min(ra, rb);
      v.run(ca.set(), cb.set(), c);
      ca.advance(c);
      cb.advance(c);
      left -= c;
    }
  }
}

// How a paired dimension's positions decompose: `reps` copies of its first
// `body` positions, then their first `rem` again. Two periodic sequences
// repeat jointly every lcm of their periods; otherwise the body is the
// whole dimension.
struct Joint {
  Extent body;
  Extent reps;
  Extent rem;
};

Joint joint_period(const DimSeq& a, const DimSeq& b) {
  const Extent len = a.len;
  if (a.periodic() && b.periodic()) {
    const Extent step = a.period / std::gcd(a.period, b.period);
    if (step < len / b.period) {  // lcm = step * b.period < len
      const Extent body = step * b.period;
      return {body, len / body, len % body};
    }
  }
  return {len, 1, 0};
}

// A paired dimension's counts stay dense up to this many cells, or the walk.
constexpr std::size_t kDenseFactorCells = 4096;

// One nonzero (set a_d, set b_d) count of a paired dimension.
struct Entry {
  std::uint32_t sa;
  std::uint32_t sb;
  Extent count;
};

// A paired dimension's positions cut, in order, into stretches over which
// one side's set (`x`) stays constant, each with its positions per set of
// the other side (`cells`). Over such a stretch every processor's replica
// deltas share one sign: with A constant, an owner in A can only lose its
// replica and any other processor only gain one (with B constant, the
// reverse), so a stretch folds to (net, max(0, net)) from its counts
// alone.
struct Stretches {
  struct Stretch {
    std::uint32_t x;
    std::uint32_t begin;  // cells [begin, end)
    std::uint32_t end;
  };
  bool x_is_a = true;
  std::vector<Stretch> body;
  std::vector<Stretch> prefix;
  std::vector<std::pair<std::uint32_t, Extent>> cells;  // (other set, count)
};

// One factor of the Kronecker product: a paired dimension (da of side a,
// db of side b), its pair counts, and — for the innermost factor of a
// folded pair — its stretches. Once sealed, `entries` lists the nonzero
// counts in ascending (sa, sb) order, and an indexed factor's matrix holds
// each pair's position in it in place of its count.
struct Factor {
  int da;
  int db;
  const DimSeq* a;
  const DimSeq* b;
  SetPairCounts matrix;
  Stretches stretches;
  std::vector<Entry> entries;

  // `expected`: the counts the walk may have made nonzero.
  void seal(bool indexed, std::size_t expected) {
    entries.reserve(expected);
    matrix.for_each([&](Extent count, std::uint32_t sa, std::uint32_t sb) {
      entries.push_back({sa, sb, count});
    });
    if (!indexed) return;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      matrix.at(entries[e].sa, entries[e].sb) = static_cast<Extent>(e);
    }
  }
  std::uint32_t index(std::uint32_t sa, std::uint32_t sb) {
    return static_cast<std::uint32_t>(matrix.at(sa, sb));
  }
};

// Adds `weight` x the counts of positions [0, limit) into a matrix.
struct CountVisitor {
  SetPairCounts* m;
  const DimSeq* a;
  const DimSeq* b;
  Extent weight;

  void run(std::uint32_t sa, std::uint32_t sb, Extent c) {
    m->add(sa, sb, weight * c);
  }
  void window_b(std::uint32_t sa, const Cursor&, Extent f) {
    for (std::size_t s = 0; s < b->per_period.size(); ++s) {
      if (b->per_period[s] != 0) {
        m->add(sa, static_cast<std::uint32_t>(s), weight * f * b->per_period[s]);
      }
    }
  }
  void window_a(const Cursor&, std::uint32_t sb, Extent f) {
    for (std::size_t s = 0; s < a->per_period.size(); ++s) {
      if (a->per_period[s] != 0) {
        m->add(static_cast<std::uint32_t>(s), sb, weight * f * a->per_period[s]);
      }
    }
  }
};

// Cuts a paired dimension's positions into Stretches, keeping the side
// whose list the walk visits fewer times constant.
struct StretchVisitor {
  StretchVisitor(const DimSeq* a, const DimSeq* b, Stretches* out,
                 Extent body)
      : a(a), b(b), out(out) {
    auto visits = [body](const DimSeq& seq) {
      const Extent segs = static_cast<Extent>(seq.segments().size());
      return seq.periodic() ? (body / seq.period + 1) * segs : segs;
    };
    out->x_is_a = visits(*a) <= visits(*b);
    pending.resize((out->x_is_a ? b : a)->list->sets.size(), 0);
  }

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  const DimSeq* a;
  const DimSeq* b;
  Stretches* out;
  std::vector<Stretches::Stretch>* part = nullptr;
  std::vector<Extent> pending;        // per set of the other side
  std::vector<std::uint32_t> touched;  // sets with a pending count
  std::uint32_t x = kNone;

  // Closes the open stretch.
  void flush() {
    if (x == kNone) return;
    const auto first = static_cast<std::uint32_t>(out->cells.size());
    for (std::uint32_t o : touched) {
      out->cells.emplace_back(o, pending[o]);
      pending[o] = 0;
    }
    touched.clear();
    part->push_back({x, first, static_cast<std::uint32_t>(out->cells.size())});
    x = kNone;
  }
  void put(std::uint32_t sx, std::uint32_t so, Extent c) {
    if (sx != x) {
      flush();
      x = sx;
    }
    if (pending[so] == 0) touched.push_back(so);
    pending[so] += c;
  }
  void put_pair(std::uint32_t sa, std::uint32_t sb, Extent c) {
    if (out->x_is_a) {
      put(sa, sb, c);
    } else {
      put(sb, sa, c);
    }
  }
  // f periods of the cycling side `seq` from `cur`, while the other side
  // holds one set; pair_at(s) is the (set a, set b) pair of seq's set s.
  template <class PairAt>
  void cycle(const DimSeq& seq, Cursor cur, Extent f, PairAt&& pair_at) {
    if (out->x_is_a == (&seq == b)) {  // x holds: the period's counts
      for (std::size_t s = 0; s < seq.per_period.size(); ++s) {
        if (seq.per_period[s] != 0) {
          const auto [sa, sb] = pair_at(static_cast<std::uint32_t>(s));
          put_pair(sa, sb, f * seq.per_period[s]);
        }
      }
      return;
    }
    for (Extent k = 0; k < f; ++k) {
      for (Extent left = seq.period; left > 0;) {
        const Extent r = std::min(cur.left, left);
        const auto [sa, sb] = pair_at(cur.set());
        put_pair(sa, sb, r);
        cur.advance(r);
        left -= r;
      }
    }
  }

  void run(std::uint32_t sa, std::uint32_t sb, Extent c) {
    put_pair(sa, sb, c);
  }
  void window_b(std::uint32_t sa, const Cursor& cb, Extent f) {
    cycle(*b, cb, f, [sa](std::uint32_t s) { return std::pair(sa, s); });
  }
  void window_a(const Cursor& ca, std::uint32_t sb, Extent f) {
    cycle(*a, ca, f, [sb](std::uint32_t s) { return std::pair(s, sb); });
  }

  /// Walks positions [0, limit) into `into`'s stretches and adds their
  /// counts, `weight` times, to `m`.
  void walk(Extent limit, std::vector<Stretches::Stretch>* into,
            Extent weight, SetPairCounts& m) {
    part = into;
    merge_dim(*a, *b, limit, *this);
    flush();
    for (const Stretches::Stretch& s : *into) {
      for (std::uint32_t k = s.begin; k < s.end; ++k) {
        const auto [other, count] = out->cells[k];
        if (out->x_is_a) {
          m.add(s.x, other, weight * count);
        } else {
          m.add(other, s.x, weight * count);
        }
      }
    }
  }
};

// Calls fn(ids_a, ids_b, count) for every tuple of nonzero entries, one
// per factor, with count the product of the entries' counts. ids_a/ids_b
// start as the unit dimensions' fixed ids.
template <class Fn>
void for_each_tuple(const std::vector<Factor>& factors, SetIds ids_a,
                    SetIds ids_b, Fn&& fn) {
  const std::size_t n = factors.size();
  SmallVector<std::size_t, kMaxRank> pos(n, 0);
  for (const Factor& f : factors) {
    if (f.entries.empty()) return;
  }
  while (true) {
    Extent count = 1;
    for (std::size_t j = 0; j < n; ++j) {
      const Entry& e = factors[j].entries[pos[j]];
      ids_a[static_cast<std::size_t>(factors[j].da)] = e.sa;
      ids_b[static_cast<std::size_t>(factors[j].db)] = e.sb;
      count *= e.count;
    }
    fn(ids_a, ids_b, count);
    std::size_t j = 0;
    for (; j < n; ++j) {
      if (++pos[j] < factors[j].entries.size()) break;
      pos[j] = 0;
    }
    if (j == n) break;
  }
}

// --- the memory fold ---------------------------------------------------------

// One processor's folded delta stream: the net change, the largest prefix
// rise (>= 0), and whether any delta touched it (MemoryDeltaFold's rows).
struct Rise {
  Extent net = 0;
  Extent rise = 0;
  bool touched = false;
};

// x := x · (m repeats of y).
void then_repeat(Rise& x, const Rise& y, Extent m) {
  if (!y.touched || m == 0) return;
  const Extent net = m * y.net;
  const Extent rise = y.rise + std::max<Extent>(0, (m - 1) * y.net);
  x.rise = std::max(x.rise, x.net + rise);
  x.net += net;
  x.touched = true;
}

// Folds a remap's replica deltas in position order, one dimension at a
// time. Level j folds factor j's merged list with the pairs of the outer
// factors (j+1 ...) fixed — a "tuple" of level j is (entry of factor j,
// tuple of level j+1) — so each distinct outer tuple's row pattern is
// folded once, and a level's list takes its inner level's folds as
// elements, raised to their run lengths. Level 0's elements are single
// positions, so it folds whole stretches at a time (Stretches). A folded
// row keeps only its touched processors, as a range of `arena_`.
class MemoryFolder {
 public:
  MemoryFolder(FormatsSide& a, FormatsSide& b, std::vector<Factor>& factors,
               const SetIds& fixed_a, const SetIds& fixed_b,
               Extent elem_bytes, std::size_t nproc)
      : a_(a),
        b_(b),
        factors_(factors),
        fixed_a_(fixed_a),
        fixed_b_(fixed_b),
        elem_bytes_(elem_bytes),
        nproc_(nproc),
        levels_(factors.size()) {}

  /// Calls fn(p, rise) for every processor the whole fold touches.
  template <class Fn>
  void fold(Fn&& fn) {
    const Row row = factors_.empty()
                        ? leaf(fixed_a_, fixed_b_)
                        : fold_level(static_cast<int>(factors_.size()) - 1, 0);
    for (std::uint32_t k = row.begin; k < row.end; ++k) {
      fn(arena_[k].first, arena_[k].second);
    }
  }

 private:
  struct Row {
    std::uint32_t begin;
    std::uint32_t end;
  };
  struct Level {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> tuples;  // (e, t)
    std::vector<Rise> window;                                    // scratch
  };
  static constexpr Row kUnmade{~std::uint32_t{0}, 0};

  Row push(const std::vector<Rise>& dense) {
    const auto begin = static_cast<std::uint32_t>(arena_.size());
    for (std::size_t p = 0; p < nproc_; ++p) {
      if (dense[p].touched) arena_.push_back({static_cast<ApId>(p), dense[p]});
    }
    return {begin, static_cast<std::uint32_t>(arena_.size())};
  }

  // The fold of one position holding pair (A, B): +elem_bytes on B's
  // owners outside A, -elem_bytes on A's outside B.
  Row leaf(const SetIds& ids_a, const SetIds& ids_b) {
    const OwnerSet& from = a_.set(a_.compose(ids_a));
    const OwnerSet& to = b_.set(b_.compose(ids_b));
    const auto begin = static_cast<std::uint32_t>(arena_.size());
    for (ApId q : to) {
      if (!owner_set_contains(from, q)) {
        arena_.push_back({q, {elem_bytes_, elem_bytes_, true}});
      }
    }
    for (ApId o : from) {
      if (!owner_set_contains(to, o)) {
        arena_.push_back({o, {-elem_bytes_, 0, true}});
      }
    }
    return {begin, static_cast<std::uint32_t>(arena_.size())};
  }

  // The row of a new tuple (entry e of factor j, outer tuple t): a leaf
  // at level 0, each factor's pair read off the chain of tuples; else
  // level j-1's fold under it.
  Row make_row(int j, std::uint32_t e, std::uint32_t t) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& tuples =
        levels_[static_cast<std::size_t>(j)].tuples;
    const auto id = static_cast<std::uint32_t>(tuples.size());
    tuples.emplace_back(e, t);
    if (j > 0) return fold_level(j - 1, id);
    SetIds ids_a = fixed_a_;
    SetIds ids_b = fixed_b_;
    std::uint32_t k = id;
    for (std::size_t level = 0; level < factors_.size(); ++level) {
      const auto [entry, outer] = levels_[level].tuples[k];
      const Entry& pair = factors_[level].entries[entry];
      ids_a[static_cast<std::size_t>(factors_[level].da)] = pair.sa;
      ids_b[static_cast<std::size_t>(factors_[level].db)] = pair.sb;
      k = outer;
    }
    return leaf(ids_a, ids_b);
  }

  // Folds factor j's list into `acc` with the outer tuple fixed. Each
  // entry's row is made once per fold_level call (`rows`), and a tuple of
  // level j is only ever made by the one call that owns its t.
  struct Visitor {
    MemoryFolder* self;
    int j;
    std::uint32_t t;
    Factor* factor;
    std::vector<Row>* rows;  // per entry of factor j, kUnmade until made
    std::vector<Rise>* acc;

    void add(std::vector<Rise>& into, std::uint32_t sa, std::uint32_t sb,
             Extent c) {
      const std::uint32_t e = factor->index(sa, sb);
      Row& row = (*rows)[e];
      if (row.begin == kUnmade.begin) row = self->make_row(j, e, t);
      const std::pair<ApId, Rise>* cells = self->arena_.data();
      for (std::uint32_t k = row.begin; k < row.end; ++k) {
        then_repeat(into[static_cast<std::size_t>(cells[k].first)],
                    cells[k].second, c);
      }
    }
    void run(std::uint32_t sa, std::uint32_t sb, Extent c) {
      add(*acc, sa, sb, c);
    }
    // One whole period of the cycling side from its cursor, with the
    // other side's set fixed, then f repeats of it.
    template <class PairAt>
    void window(Cursor cur, Extent period, Extent f, PairAt&& pair_at) {
      std::vector<Rise>& w = self->levels_[static_cast<std::size_t>(j)].window;
      w.assign(self->nproc_, Rise{});
      for (Extent left = period; left > 0;) {
        const Extent r = std::min(cur.left, left);
        const auto [sa, sb] = pair_at(cur.set());
        add(w, sa, sb, r);
        cur.advance(r);
        left -= r;
      }
      for (std::size_t p = 0; p < w.size(); ++p) then_repeat((*acc)[p], w[p], f);
    }
    void window_b(std::uint32_t sa, const Cursor& cb, Extent f) {
      const Factor& fac = self->factors_[static_cast<std::size_t>(j)];
      window(cb, fac.b->period, f,
             [sa](std::uint32_t s) { return std::pair(sa, s); });
    }
    void window_a(const Cursor& ca, std::uint32_t sb, Extent f) {
      const Factor& fac = self->factors_[static_cast<std::size_t>(j)];
      window(ca, fac.a->period, f,
             [sb](std::uint32_t s) { return std::pair(s, sb); });
    }
  };

  // Folds stretches into `acc` in order under outer tuple t: each
  // stretch's per-processor net, from its counts and the leaves' deltas,
  // rising by max(0, net).
  void fold_stretches(const std::vector<Stretches::Stretch>& part,
                      std::uint32_t t, std::vector<Row>& rows,
                      std::vector<Rise>& acc) {
    Factor& f = factors_.front();
    const Stretches& st = f.stretches;
    std::vector<Extent>& net = stretch_net_;
    net.assign(nproc_, 0);
    std::vector<char>& seen = stretch_seen_;
    seen.assign(nproc_, 0);
    std::vector<ApId>& touched = stretch_touched_;
    for (const Stretches::Stretch& s : part) {
      for (std::uint32_t k = s.begin; k < s.end; ++k) {
        const auto [other, count] = st.cells[k];
        const std::uint32_t e =
            st.x_is_a ? f.index(s.x, other) : f.index(other, s.x);
        Row& row = rows[e];
        if (row.begin == kUnmade.begin) row = make_row(0, e, t);
        for (std::uint32_t c = row.begin; c < row.end; ++c) {
          const auto& [p, r] = arena_[c];
          const auto i = static_cast<std::size_t>(p);
          if (!seen[i]) {
            seen[i] = 1;
            touched.push_back(p);
          }
          net[i] += count * r.net;
        }
      }
      for (ApId p : touched) {
        const Extent n = net[static_cast<std::size_t>(p)];
        then_repeat(acc[static_cast<std::size_t>(p)],
                    {n, std::max<Extent>(0, n), true}, 1);
        net[static_cast<std::size_t>(p)] = 0;
        seen[static_cast<std::size_t>(p)] = 0;
      }
      touched.clear();
    }
  }

  // Factor j's whole dimension folded under outer tuple t: the joint body
  // raised to its repeat count, then the prefix.
  Row fold_level(int j, std::uint32_t t) {
    Factor& f = factors_[static_cast<std::size_t>(j)];
    const Joint jp = joint_period(*f.a, *f.b);
    std::vector<Row> rows(f.entries.size(), kUnmade);
    // Folds positions [0, limit) into acc: by stretches at level 0, by
    // the merged list's pieces above it.
    auto fold_part = [&](Extent limit,
                         const std::vector<Stretches::Stretch>& stretches,
                         std::vector<Rise>& acc) {
      if (j == 0) {
        fold_stretches(stretches, t, rows, acc);
        return;
      }
      Visitor v{this, j, t, &f, &rows, &acc};
      merge_dim(*f.a, *f.b, limit, v);
    };
    std::vector<Rise> body(nproc_);
    fold_part(jp.body, f.stretches.body, body);
    std::vector<Rise> out(nproc_);
    for (std::size_t p = 0; p < nproc_; ++p) {
      then_repeat(out[p], body[p], jp.reps);
    }
    fold_part(jp.rem, f.stretches.prefix, out);
    return push(out);
  }

  FormatsSide& a_;
  FormatsSide& b_;
  std::vector<Factor>& factors_;
  SetIds fixed_a_;
  SetIds fixed_b_;
  Extent elem_bytes_;
  std::size_t nproc_;
  std::vector<Level> levels_;
  std::vector<std::pair<ApId, Rise>> arena_;
  std::vector<Extent> stretch_net_;  // fold_stretches scratch
  std::vector<char> stretch_seen_;
  std::vector<ApId> stretch_touched_;
};

// The dimensions of a side whose section holds more than one position, in
// order: the dimensions conformance pairs.
SmallVector<int, kMaxRank> squeezed_dims(const FormatsSide& side) {
  SmallVector<int, kMaxRank> out;
  for (int d = 0; d < side.rank(); ++d) {
    if (side.dim(d).len > 1) out.push_back(d);
  }
  return out;
}

}  // namespace

SectionCounts::SectionCounts(const Distribution& dist,
                             const std::vector<Triplet>& section) {
  side_ = std::make_unique<FormatsSide>(dist, section, own_);
  FormatsSide& side = *side_;
  queries_ = side.queries();
  if (side.size() == 0) return;
  // Each dimension alone is a factor of one side: its per-set counts.
  std::vector<Factor> factors;
  factors.reserve(static_cast<std::size_t>(side.rank()));
  for (int d = 0; d < side.rank(); ++d) {
    const DimSeq& seq = side.dim(d);
    const std::vector<Extent> sums = prefix_set_counts(seq, seq.len);
    factors.push_back(
        {d, 0, &seq, nullptr, SetPairCounts(sums.size(), 1, 0), {}, {}});
    for (std::size_t s = 0; s < sums.size(); ++s) {
      if (sums[s] != 0) {
        factors.back().matrix.add(static_cast<std::uint32_t>(s), 0, sums[s]);
      }
    }
    factors.back().seal(/*indexed=*/false, sums.size());
  }
  for_each_tuple(factors, SetIds{}, SetIds{},
                 [&](const SetIds& ids, const SetIds&, Extent count) {
                   const std::uint32_t id = side.compose(ids);
                   if (id >= counts_.size()) counts_.resize(id + 1, 0);
                   counts_[id] += count;
                 });
  counts_.resize(own_.size(), 0);
}

SectionCounts::~SectionCounts() = default;

PairCounts::PairCounts(const MappedSection& a, const MappedSection& b,
                       MemoryDeltaFold* fold, Extent elem_bytes) {
  FormatsSide side_a(*a.dist, *a.section, own_a_);
  FormatsSide side_b(*b.dist, *b.section, own_b_);
  count(side_a, side_b, fold, elem_bytes);
}

PairCounts::PairCounts(SectionCounts& a, const MappedSection& b)
    : pool_a_(&a.own_) {
  FormatsSide side_b(*b.dist, *b.section, own_b_);
  count(*a.side_, side_b, nullptr, 0);
}

void PairCounts::count(FormatsSide& side_a, FormatsSide& side_b,
                       MemoryDeltaFold* fold, Extent elem_bytes) {
  queries_a_ = side_a.queries();
  queries_b_ = side_b.queries();
  if (side_a.size() != side_b.size()) {
    throw InternalError("pair counts over sections of different sizes");
  }
  if (side_a.size() == 0) {
    counts_.emplace(side_a.pool().size(), side_b.pool().size(), 0);
    return;
  }
  const SmallVector<int, kMaxRank> dims_a = squeezed_dims(side_a);
  const SmallVector<int, kMaxRank> dims_b = squeezed_dims(side_b);
  if (dims_a.size() != dims_b.size()) {
    throw InternalError("pair counts over nonconforming sections");
  }
  std::vector<Factor> factors;
  factors.reserve(dims_a.size());
  for (std::size_t j = 0; j < dims_a.size(); ++j) {
    const DimSeq& sa = side_a.dim(dims_a[j]);
    const DimSeq& sb = side_b.dim(dims_b[j]);
    if (sa.len != sb.len) {
      throw InternalError("pair counts over nonconforming sections");
    }
    const std::size_t na = sa.list->sets.size();
    const std::size_t nb = sb.list->sets.size();
    const std::size_t walk = sa.segments().size() + sb.segments().size();
    factors.push_back({dims_a[j], dims_b[j], &sa, &sb,
                       SetPairCounts(na, nb, std::max(walk, kDenseFactorCells)),
                       {}, {}});
    Factor& f = factors.back();
    const Joint jp = joint_period(sa, sb);
    if (fold != nullptr && j == 0) {
      StretchVisitor v(&sa, &sb, &f.stretches, jp.body);
      v.walk(jp.body, &f.stretches.body, jp.reps, f.matrix);
      v.walk(jp.rem, &f.stretches.prefix, 1, f.matrix);
    } else {
      CountVisitor v{&f.matrix, &sa, &sb, jp.reps};
      merge_dim(sa, sb, jp.body, v);
      v.weight = 1;
      merge_dim(sa, sb, jp.rem, v);
    }
    f.seal(/*indexed=*/fold != nullptr, std::min(walk, na * nb));
  }

  struct Combo {
    std::uint32_t ia;
    std::uint32_t ib;
    Extent count;
  };
  std::vector<Combo> combos;
  std::size_t tuples = 1;
  for (const Factor& f : factors) tuples *= f.entries.size();
  combos.reserve(tuples);
  const SetIds fixed_a = side_a.first_ids();
  const SetIds fixed_b = side_b.first_ids();
  for_each_tuple(factors, fixed_a, fixed_b,
                 [&](const SetIds& ids_a, const SetIds& ids_b, Extent count) {
                   combos.push_back(
                       {side_a.compose(ids_a), side_b.compose(ids_b), count});
                 });
  counts_.emplace(side_a.pool().size(), side_b.pool().size(), combos.size());
  for (const Combo& c : combos) counts_->add(c.ia, c.ib, c.count);

  if (fold == nullptr) return;
  // Every tuple the fold reaches was composed above, so the pools are
  // complete: size the per-processor rows by their largest owner.
  ApId top = 0;
  for (const std::vector<OwnerSet>* pool : {&side_a.pool(), &side_b.pool()}) {
    for (const OwnerSet& set : *pool) {
      for (ApId p : set) top = std::max(top, p);
    }
  }
  MemoryFolder folder(side_a, side_b, factors, fixed_a, fixed_b, elem_bytes,
                      static_cast<std::size_t>(top) + 1);
  folder.fold([&](ApId p, const Rise& r) { fold->add_folded(p, r.net, r.rise); });
}

namespace detail {

void build_run_table(const Distribution& dist,
                     const std::vector<Triplet>& section, RunTable& out,
                     bool use_dim_memo) {
  // The table's rows compose dimension 0's segments with the outer
  // dimensions' set ids. A row's owner sets depend only on its outer ids,
  // so each row recomposes its dimension-0 sets only when they change.
  FormatsSide side(dist, section, out.sets,
                   use_dim_memo ? ListSource::kMemo : ListSource::kFresh);
  out.ownership_queries += side.queries();
  if (side.size() == 0) return;
  const int rank = side.rank();
  if (rank == 0) {  // a scalar: its one owner set
    out.runs.push_back({0, 1, side.compose(SetIds{})});
    return;
  }

  // Each outer dimension's list expanded into per-position set ids.
  std::vector<std::vector<std::uint32_t>> outer_ids(
      static_cast<std::size_t>(rank - 1));
  Extent rows = 1;
  for (int d = 1; d < rank; ++d) {
    auto& ids = outer_ids[static_cast<std::size_t>(d - 1)];
    ids.reserve(static_cast<std::size_t>(side.dim(d).len));
    for (const DimSegment& s : side.dim(d).segments()) {
      ids.insert(ids.end(), static_cast<std::size_t>(s.count), s.set);
    }
    rows *= side.dim(d).len;
  }

  const DimSeq& dim0 = side.dim(0);
  // Every dim-0 segment of every row opening a run bounds the table.
  out.runs.reserve(dim0.segments().size() * static_cast<std::size_t>(rows));
  std::vector<std::uint32_t> row_ids(dim0.list->sets.size());
  SetIds ids{};
  bool row_valid = false;
  SmallVector<Extent, kMaxRank> opos(static_cast<std::size_t>(rank - 1), 0);
  Extent linear = 0;
  while (true) {
    bool changed = !row_valid;
    for (std::size_t o = 0; o + 1 < static_cast<std::size_t>(rank); ++o) {
      const std::uint32_t id = outer_ids[o][static_cast<std::size_t>(opos[o])];
      if (id != ids[o + 1]) {
        ids[o + 1] = id;
        changed = true;
      }
    }
    if (changed) {
      for (std::uint32_t s0 = 0; s0 < row_ids.size(); ++s0) {
        ids[0] = s0;
        row_ids[s0] = side.compose(ids);
      }
      row_valid = true;
    }
    // Emit this row's runs, merging adjacent equal owner sets (distinct
    // per-dimension positions can compose to one owner set, e.g. under a
    // folded oversize arrangement).
    const std::size_t row_first = out.runs.size();
    Extent k = 0;
    for (const DimSegment& s : dim0.segments()) {
      const std::uint32_t id = row_ids[s.set];
      if (out.runs.size() > row_first && out.runs.back().set == id) {
        out.runs.back().count += s.count;
      } else {
        out.runs.push_back({linear + k, s.count, id});
      }
      k += s.count;
    }
    linear += dim0.len;
    int d = 1;
    for (; d < rank; ++d) {
      Extent& o = opos[static_cast<std::size_t>(d - 1)];
      if (++o < side.dim(d).len) break;
      o = 0;
    }
    if (d == rank) break;
  }
  // Merges (rare: only when distinct positions fold onto one owner set)
  // can leave most of the reservation unused.
  if (out.runs.size() * 2 < out.runs.capacity()) out.runs.shrink_to_fit();
}

}  // namespace detail

}  // namespace hpfnt
