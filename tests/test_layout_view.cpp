// Property tests for the run-based ownership API (core/layout_view.hpp).
//
// For random distributions of every Distribution::Kind (formats,
// constructed, section view) and random triplet-sections, the computed run
// table must
//   * cover the section's linear position space exactly once, in order,
//   * keep every run inside one row, so its elements step along dimension 0
//     only (parent_index agrees with the section triplets),
//   * pool its owner sets without duplicates, address them by in-range ids,
//     and never give adjacent runs of one row the same id (maximality), and
//   * report, for sampled elements inside every run, exactly the owner set
//     the per-element payload query owners_uncached(i) yields.
// On top of the properties: the memo cache shares tables between equal
// sections, the owners() shim answers from a memoized whole-domain table,
// and the analytic formats need >= 5x fewer ownership queries than a
// per-element sweep (the E1 acceptance bar) on BLOCK and GENERAL_BLOCK,
// while CYCLIC(1) keeps E1's exact run and probe counts. An
// identity-aligned array's views hold its base's tables (one object per
// section); every other alignment builds its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/data_env.hpp"
#include "core/layout_view.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "replicate_all.hpp"

namespace hpfnt {
namespace {

IndexTuple idx(std::initializer_list<Index1> values) {
  IndexTuple t;
  for (Index1 v : values) t.push_back(v);
  return t;
}

IndexDomain random_domain(Rng& rng, int rank) {
  std::vector<Triplet> dims;
  for (int d = 0; d < rank; ++d) {
    const Index1 lo = rng.uniform(-3, 5);
    dims.emplace_back(lo, lo + rng.uniform(0, 39));
  }
  return IndexDomain(std::move(dims));
}

// The format kinds format_of_kind builds; random_format draws one of the
// six by number, so their order is part of the property tests' data.
enum FormatCase {
  kBlockCase,
  kViennaBlockCase,
  kCyclicCase,
  kGeneralBlockCase,
  kIndirectCase,
  kReplicatedUserCase,
};

DistFormat format_of_kind(Rng& rng, int kind, Extent n, Extent np) {
  switch (kind) {
    case kBlockCase:
      return DistFormat::block();
    case kViennaBlockCase:
      return DistFormat::vienna_block();
    case kCyclicCase:
      return DistFormat::cyclic(rng.uniform(1, 5));
    case kGeneralBlockCase: {
      std::vector<Extent> bounds;
      Extent prev = 0;
      for (Extent p = 1; p < np; ++p) {
        prev = std::min<Extent>(n, prev + rng.uniform(0, (2 * n) / np + 1));
        bounds.push_back(prev);
      }
      return DistFormat::general_block(std::move(bounds));
    }
    case kIndirectCase: {
      std::vector<Extent> map(static_cast<std::size_t>(n));
      for (auto& owner : map) owner = rng.uniform(1, np);
      return DistFormat::indirect(std::move(map));
    }
    default:  // kReplicatedUserCase
      // Deterministic replicating user-defined format: every fourth index
      // is also stored on position 1.
      return DistFormat::user_defined(
          "stripe_rep", [](Index1 i, Extent, Extent np_) {
            DimOwnerSet owners;
            owners.push_back((i - 1) % np_ + 1);
            if (i % 4 == 0 && owners.front() != 1) owners.push_back(1);
            return owners;
          });
  }
}

DistFormat random_format(Rng& rng, Extent n, Extent np) {
  return format_of_kind(rng, static_cast<int>(rng.uniform(0, 5)), n, np);
}

/// A random kFormats distribution over `domain`; arrangement extents are
/// picked per distributed dimension. The ProcessorSpace must outlive the
/// distribution, so the caller owns it.
/// With `kind` >= 0, every dimension is distributed by that format kind.
Distribution random_formats_dist(Rng& rng, const IndexDomain& domain,
                                 ProcessorSpace& ps, const std::string& name,
                                 int kind = -1) {
  const int rank = domain.rank();
  std::vector<DistFormat> formats;
  std::vector<Extent> extents;
  for (int d = 0; d < rank; ++d) {
    if (kind < 0 && rank > 1 && rng.uniform(0, 3) == 0) {
      formats.push_back(DistFormat::collapsed());
    } else {
      const Extent np = rng.uniform(2, 5);
      formats.push_back(kind < 0
                            ? random_format(rng, domain.extent(d), np)
                            : format_of_kind(rng, kind, domain.extent(d), np));
      extents.push_back(np);
    }
  }
  if (extents.empty()) {
    // All dimensions collapsed: the target must be conceptually scalar.
    const ProcessorArrangement& scalar = ps.declare_scalar(name);
    return Distribution::formats(domain, std::move(formats),
                                 ProcessorRef(scalar));
  }
  const ProcessorArrangement& arr =
      ps.declare(name, IndexDomain::of_extents(extents));
  return Distribution::formats(domain, std::move(formats),
                               ProcessorRef(arr));
}

std::vector<Triplet> random_section(Rng& rng, const IndexDomain& domain) {
  std::vector<Triplet> section;
  for (int d = 0; d < domain.rank(); ++d) {
    const Index1 lo = domain.lower(d);
    const Index1 hi = domain.upper(d);
    Index1 a = rng.uniform(lo, hi);
    Index1 b = rng.uniform(lo, hi);
    const Index1 stride = rng.uniform(1, 3);
    if (a <= b) {
      section.emplace_back(a, b, stride);
    } else {
      section.emplace_back(a, b, -stride);
    }
  }
  return section;
}

/// The pool holds each distinct owner set once.
void check_pool(const RunTable& table) {
  for (std::size_t i = 0; i < table.sets.size(); ++i) {
    for (std::size_t j = i + 1; j < table.sets.size(); ++j) {
      EXPECT_NE(table.sets[i], table.sets[j])
          << "pool entries " << i << " and " << j << " are equal";
    }
  }
}

void expect_owner_match(const Distribution& dist, const LayoutView& view,
                        const OwnerRun& run, Extent offset) {
  const IndexTuple element = view.parent_index(run, offset);
  EXPECT_EQ(dist.owners_uncached(element), view.owners(run))
      << "element offset " << offset << " of run at linear " << run.begin;
}

void check_view(const Distribution& dist, const std::vector<Triplet>& section,
                Rng& rng) {
  const LayoutView view(dist, section);
  const IndexDomain& shape = view.section_domain();
  ASSERT_EQ(shape, dist.domain().section_domain(section));

  // Coverage: runs partition [0, size) exactly once, in order.
  Extent pos = 0;
  for (const OwnerRun& run : view.runs()) {
    ASSERT_EQ(run.begin, pos);
    ASSERT_GE(run.count, 1);
    ASSERT_LT(run.set, view.table().sets.size());
    ASSERT_FALSE(view.owners(run).empty());
    pos += run.count;
  }
  ASSERT_EQ(pos, shape.size());
  check_pool(view.table());

  // Rows and owner sets at sampled offsets of every run.
  const std::vector<OwnerRun>& runs = view.runs();
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const OwnerRun& run = runs[r];
    if (dist.domain().rank() > 0) {
      // A run stays inside one row: its elements step along dimension 0
      // by the section's stride, all other indices fixed.
      const Extent len0 = section[0].size();
      ASSERT_LE(run.begin % len0 + run.count, len0);
      const IndexTuple first = view.parent_index(run, 0);
      const IndexTuple last = view.parent_index(run, run.count - 1);
      EXPECT_EQ(last[0], first[0] + (run.count - 1) * section[0].stride());
      for (std::size_t d = 1; d < first.size(); ++d) {
        EXPECT_EQ(last[d], first[d]);
      }
      // Maximality: the next run of the same row has another owner set.
      if (r + 1 < runs.size() && runs[r + 1].begin % len0 != 0) {
        EXPECT_NE(runs[r + 1].set, run.set)
            << "adjacent runs at linear " << run.begin << " share a set";
      }
    }
    expect_owner_match(dist, view, run, 0);
    expect_owner_match(dist, view, run, run.count - 1);
    expect_owner_match(dist, view, run, run.count / 2);
    expect_owner_match(dist, view, run, rng.uniform(0, run.count - 1));
  }
}

// --- kFormats ---------------------------------------------------------------

TEST(LayoutViewProperties, FormatsRandomSections) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 7919 + 1);
    ProcessorSpace ps(4096, ScalarPlacement::kReplicated);
    const IndexDomain domain =
        random_domain(rng, static_cast<int>(rng.uniform(1, 3)));
    const Distribution dist = random_formats_dist(rng, domain, ps, "P");
    check_view(dist, domain.dims(), rng);
    check_view(dist, random_section(rng, domain), rng);
  }
}

// --- kConstructed -----------------------------------------------------------

TEST(LayoutViewProperties, ConstructedRandomAlignments) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 104729 + 3);
    ProcessorSpace ps(4096, ScalarPlacement::kReplicated);
    const IndexDomain base_domain =
        random_domain(rng, static_cast<int>(rng.uniform(1, 3)));
    const Distribution base = random_formats_dist(rng, base_domain, ps, "P");
    const int alignee_rank = static_cast<int>(rng.uniform(1, 2));
    const IndexDomain alignee_domain = random_domain(rng, alignee_rank);

    std::vector<AlignmentFunction::BaseDim> base_dims(
        static_cast<std::size_t>(base_domain.rank()));
    // §5.1: each alignee dimension feeds at most one base dimension.
    std::vector<char> fed(static_cast<std::size_t>(alignee_rank), 0);
    for (std::size_t b = 0; b < base_dims.size(); ++b) {
      AlignmentFunction::BaseDim& bd = base_dims[b];
      switch (rng.uniform(0, 3)) {
        case 0:
          bd.kind = AlignmentFunction::BaseDim::Kind::kReplicated;
          break;
        case 1:
          bd.kind = AlignmentFunction::BaseDim::Kind::kConst;
          bd.constant = rng.uniform(-5, 45);  // may clamp
          break;
        default: {
          const int alignee_dim =
              static_cast<int>(rng.uniform(0, alignee_rank - 1));
          if (fed[static_cast<std::size_t>(alignee_dim)]) {
            bd.kind = AlignmentFunction::BaseDim::Kind::kConst;
            bd.constant = rng.uniform(-5, 45);
            break;
          }
          fed[static_cast<std::size_t>(alignee_dim)] = 1;
          bd.kind = AlignmentFunction::BaseDim::Kind::kExpr;
          bd.alignee_dim = alignee_dim;
          Index1 a = rng.uniform(1, 2);
          if (rng.uniform(0, 1) == 1) a = -a;
          // Offsets large enough to exercise the §5.1 clamp rule at both
          // ends of the base dimension.
          bd.expr = AlignExpr::dummy(bd.alignee_dim) * a + rng.uniform(-8, 8);
          // MAX/MIN subscripts (§5.1's explicit truncation) give the span
          // analysis no guarantee: every element of a row is probed, and
          // the probe-and-merge loop alone must keep the runs maximal.
          const int dim = static_cast<int>(b);
          switch (rng.uniform(0, 3)) {
            case 0:
              bd.expr = AlignExpr::max(
                  bd.expr, AlignExpr::constant(base_domain.lower(dim) +
                                               rng.uniform(0, 8)));
              break;
            case 1:
              bd.expr = AlignExpr::min(
                  bd.expr, AlignExpr::constant(base_domain.upper(dim) -
                                               rng.uniform(0, 8)));
              break;
            default:
              break;
          }
          break;
        }
      }
    }
    const Distribution dist = Distribution::constructed(
        AlignmentFunction(alignee_domain, base_domain, std::move(base_dims)),
        base);
    check_view(dist, alignee_domain.dims(), rng);
    check_view(dist, random_section(rng, alignee_domain), rng);
  }
}

// --- kSectionView -----------------------------------------------------------

TEST(LayoutViewProperties, SectionViewRandomRestrictions) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 6151 + 5);
    ProcessorSpace ps(4096, ScalarPlacement::kReplicated);
    const IndexDomain domain =
        random_domain(rng, static_cast<int>(rng.uniform(1, 3)));
    const Distribution parent = random_formats_dist(rng, domain, ps, "P");
    std::vector<Triplet> restriction = random_section(rng, domain);
    const Distribution dist =
        Distribution::section_view(parent, std::move(restriction));
    if (dist.domain().size() == 0) continue;
    check_view(dist, dist.domain().dims(), rng);
    check_view(dist, random_section(rng, dist.domain()), rng);
  }
}

// --- replicated layouts ---------------------------------------------------

TEST(LayoutViewProperties, ReplicatedExplicitCollapsesToOneRunPerRow) {
  ProcessorSpace ps(8);
  ps.declare("Q", IndexDomain::of_extents({8}));
  const Distribution dist =
      replicated_over(IndexDomain{Dim(1, 64)}, ProcessorRef(ps.find("Q")));
  const LayoutView view = LayoutView::whole(dist);
  ASSERT_EQ(view.run_count(), 1);
  EXPECT_EQ(view.runs().front().count, 64);
  EXPECT_EQ(view.owners(view.runs().front()).size(), 8u);
}

// --- rank-0 and empty sections ----------------------------------------------

TEST(LayoutViewProperties, ScalarDomainYieldsOneRun) {
  ProcessorSpace ps(4);
  const ProcessorArrangement& s = ps.declare_scalar("S");
  const Distribution dist =
      Distribution::formats(IndexDomain(), {}, ProcessorRef(s));
  const LayoutView view = LayoutView::whole(dist);
  ASSERT_EQ(view.run_count(), 1);
  EXPECT_EQ(view.runs().front().count, 1);
  EXPECT_EQ(view.owners(view.runs().front()),
            dist.owners_uncached(IndexTuple{}));
}

TEST(LayoutViewProperties, EmptySectionYieldsNoRuns) {
  ProcessorSpace ps(4);
  ps.declare("Q", IndexDomain::of_extents({4}));
  const Distribution dist =
      Distribution::formats(IndexDomain{Dim(1, 16)}, {DistFormat::block()},
                            ProcessorRef(ps.find("Q")));
  const LayoutView view(dist, {Triplet(5, 4, 1)});
  EXPECT_EQ(view.run_count(), 0);
  EXPECT_EQ(view.size(), 0);
}

TEST(LayoutViewProperties, RankAboveFortranMaximumIsRejected) {
  // FormatsPayload's per-dimension scratch is sized for kMaxRank (R512);
  // distributing a higher-rank domain must fail at construction, not
  // overflow at the first ownership query.
  ProcessorSpace ps(2);
  ps.declare("Q", IndexDomain::of_extents({2}));
  std::vector<Triplet> dims(static_cast<std::size_t>(kMaxRank) + 1,
                            Triplet(1, 2));
  std::vector<DistFormat> formats(static_cast<std::size_t>(kMaxRank),
                                  DistFormat::collapsed());
  formats.push_back(DistFormat::block());
  EXPECT_THROW(Distribution::formats(IndexDomain(std::move(dims)),
                                     std::move(formats),
                                     ProcessorRef(ps.find("Q"))),
               ConformanceError);
}

// --- memoization and the owners() shim --------------------------------------

TEST(LayoutViewMemo, EqualSectionsShareOneTable) {
  ProcessorSpace ps(8);
  ps.declare("Q", IndexDomain::of_extents({8}));
  const Distribution dist =
      Distribution::formats(IndexDomain{Dim(1, 100)}, {DistFormat::cyclic(3)},
                            ProcessorRef(ps.find("Q")));
  const LayoutView a(dist, {Triplet(10, 90, 2)});
  const LayoutView b(dist, {Triplet(10, 90, 2)});
  EXPECT_EQ(&a.table(), &b.table());
  // A copy of the distribution shares the payload, hence the memo.
  const Distribution copy = dist;  // NOLINT(performance-unnecessary-copy)
  const LayoutView c(copy, {Triplet(10, 90, 2)});
  EXPECT_EQ(&a.table(), &c.table());
}

TEST(LayoutViewMemo, OwnersShimAnswersFromWholeDomainTable) {
  ProcessorSpace ps(8);
  ps.declare("Q", IndexDomain::of_extents({8}));
  const Distribution dist = Distribution::formats(
      IndexDomain{Dim(1, 97)}, {DistFormat::cyclic(5)},
      ProcessorRef(ps.find("Q")));
  const LayoutView whole = LayoutView::whole(dist);  // arms the shim
  for (Index1 i = 1; i <= 97; ++i) {
    EXPECT_EQ(dist.owners(idx({i})), dist.owners_uncached(idx({i})));
  }
  EXPECT_THROW(dist.owners(idx({98})), MappingError);
}

// --- identity-aligned arrays share their base's tables ---------------------

/// Every element of every run of `view` has exactly the run's owner set
/// under the per-element payload query of `dist` (which, for a constructed
/// payload, goes through α to the base payload and never reads a table).
void expect_runs_match_sweep(const Distribution& dist, const LayoutView& view) {
  for (const OwnerRun& run : view.runs()) {
    for (Extent k = 0; k < run.count; ++k) {
      ASSERT_EQ(dist.owners_uncached(view.parent_index(run, k)),
                view.owners(run))
          << "offset " << k << " of run at linear " << run.begin;
    }
  }
}

// ALIGN W(I,...) WITH U(I,...): CONSTRUCT(id, δ_U) = δ_U, so W's view of a
// section is U's view of it — one RunTable object, whichever is asked
// first — and its runs still agree with W's own per-element owners.
TEST(LayoutViewSharing, IdentityAlignedViewsHoldTheBaseTable) {
  for (int kind : {kBlockCase, kCyclicCase, kGeneralBlockCase, kIndirectCase,
                   kReplicatedUserCase}) {
    for (int rank = 1; rank <= 2; ++rank) {
      for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(seed * 7727 + static_cast<std::uint64_t>(kind * 10 + rank));
        ProcessorSpace ps(4096, ScalarPlacement::kReplicated);
        const IndexDomain domain = random_domain(rng, rank);
        const Distribution u =
            random_formats_dist(rng, domain, ps, "P", kind);
        const Distribution w = Distribution::constructed(
            AlignmentFunction::identity(domain, domain), u);
        ASSERT_TRUE(w.alignment().is_identity());
        const bool alignee_first = seed % 2 == 0;
        for (const std::vector<Triplet>& section :
             {domain.dims(), random_section(rng, domain),
              random_section(rng, domain)}) {
          const LayoutView first =
              alignee_first ? LayoutView(w, section) : LayoutView(u, section);
          const LayoutView second =
              alignee_first ? LayoutView(u, section) : LayoutView(w, section);
          EXPECT_EQ(&first.table(), &second.table())
              << "kind " << kind << " rank " << rank << " seed " << seed;
          expect_runs_match_sweep(w, LayoutView(w, section));
        }
        // W's own memo still arms its owners() shim with the whole table.
        const LayoutView whole = LayoutView::whole(w);
        for (const OwnerRun& run : whole.runs()) {
          const IndexTuple i = whole.parent_index(run, 0);
          EXPECT_EQ(w.owners(i), w.owners_uncached(i));
        }
      }
    }
  }
}

// REDISTRIBUTE U re-derives W from U's new mapping, so W's view reads the
// new base table, not the one it shared before.
TEST(LayoutViewSharing, RedistributedBaseGivesTheAlignedArrayItsNewTable) {
  ProcessorSpace ps(8);
  DataEnv env(ps);
  DistArray& u = env.real("U", IndexDomain{Dim(1, 40), Dim(1, 24)});
  DistArray& w = env.real("W", IndexDomain{Dim(1, 40), Dim(1, 24)});
  env.dynamic(u);
  env.distribute(u, {DistFormat::block(), DistFormat::block()});
  env.align(w, u, AlignSpec::colons(2));
  const std::vector<Triplet> section{Triplet(3, 38, 1), Triplet(2, 23, 3)};
  const LayoutView before(env.distribution_of(w), section);
  EXPECT_EQ(&before.table(),
            &LayoutView(env.distribution_of(u), section).table());

  env.redistribute(u, {DistFormat::cyclic(3), DistFormat::block()});
  const LayoutView after(env.distribution_of(w), section);
  EXPECT_NE(&after.table(), &before.table());
  EXPECT_EQ(&after.table(),
            &LayoutView(env.distribution_of(u), section).table());
  expect_runs_match_sweep(env.distribution_of(w), after);
}

// Any other α — an offset (clamped at the end), a permutation, a stride —
// builds the alignee's own table through α, never the base's.
TEST(LayoutViewSharing, NonIdentityAlignmentsBuildTheirOwnTables) {
  using BaseDim = AlignmentFunction::BaseDim;
  auto expr_dim = [](int alignee_dim, Index1 a, Index1 b) {
    BaseDim d;
    d.kind = BaseDim::Kind::kExpr;
    d.alignee_dim = alignee_dim;
    d.expr = AlignExpr::dummy(alignee_dim) * a + b;
    return d;
  };
  ProcessorSpace ps(16);
  ps.declare("Q", IndexDomain::of_extents({4, 4}));
  const IndexDomain square{Dim(1, 24), Dim(1, 24)};
  const IndexDomain wide{Dim(1, 48), Dim(1, 24)};
  struct Case {
    const char* name;
    IndexDomain alignee;
    IndexDomain base;
    std::vector<BaseDim> dims;
  };
  const std::vector<Case> cases = {
      {"offset", square, square, {expr_dim(0, 1, 1), expr_dim(1, 1, 0)}},
      {"permuted", square, square, {expr_dim(1, 1, 0), expr_dim(0, 1, 0)}},
      {"strided", square, wide, {expr_dim(0, 2, 0), expr_dim(1, 1, 0)}},
  };
  Rng rng(11);
  for (const Case& c : cases) {
    const Distribution u = Distribution::formats(
        c.base, {DistFormat::cyclic(2), DistFormat::block()},
        ProcessorRef(ps.find("Q")));
    const Distribution w = Distribution::constructed(
        AlignmentFunction(c.alignee, c.base, c.dims), u);
    ASSERT_FALSE(w.alignment().is_identity()) << c.name;
    // Sections valid in both domains, so U has a table for each.
    for (const std::vector<Triplet>& section :
         {c.alignee.dims(), random_section(rng, c.alignee)}) {
      const LayoutView wv(w, section);
      EXPECT_NE(&wv.table(), &LayoutView(u, section).table()) << c.name;
      EXPECT_GT(wv.ownership_queries(), 0) << c.name;
      expect_runs_match_sweep(w, wv);
      check_view(w, section, rng);
    }
  }
}

// --- pooled owner sets -------------------------------------------------------

// The five layouts a cold remap walks (CYCLIC(1) -> CYCLIC(8) ->
// GENERAL_BLOCK -> INDIRECT -> BLOCK) at 2^14 elements on 16 processors:
// exact run counts, and never more pooled sets than processors.
TEST(LayoutViewPool, RemapFormatsAtSixteenKOnSixteenProcessors) {
  constexpr Extent kN = 1 << 14;
  constexpr Extent kNp = 16;
  ProcessorSpace ps(kNp);
  ps.declare("Q", IndexDomain::of_extents({kNp}));
  Rng rng(3);
  std::vector<Extent> sizes(kNp);
  Extent used = 0;
  for (std::size_t p = 0; p + 1 < sizes.size(); ++p) {
    used += (sizes[p] = rng.uniform(1, kN / kNp));
  }
  sizes.back() = kN - used;
  std::vector<Extent> owner(static_cast<std::size_t>(kN));
  for (Extent& o : owner) o = rng.uniform(1, kNp);
  Extent indirect_runs = 1;
  for (std::size_t i = 1; i < owner.size(); ++i) {
    if (owner[i] != owner[i - 1]) ++indirect_runs;
  }

  const std::vector<std::pair<DistFormat, Extent>> cases = {
      {DistFormat::cyclic(1), kN},
      {DistFormat::cyclic(8), kN / 8},
      {DistFormat::general_block_sizes(sizes), kNp},
      {DistFormat::indirect(owner), indirect_runs},
      {DistFormat::block(), kNp}};
  for (const auto& [format, runs] : cases) {
    const Distribution dist = Distribution::formats(
        IndexDomain{Dim(kN)}, {format}, ProcessorRef(ps.find("Q")));
    const RunTable table = LayoutView::compute(dist, dist.domain().dims());
    EXPECT_EQ(static_cast<Extent>(table.runs.size()), runs)
        << format.to_string();
    EXPECT_LE(table.sets.size(), static_cast<std::size_t>(kNp))
        << format.to_string();
    check_pool(table);
  }
}

// A user-defined format with n distinct owner sets (each used twice, never
// by neighbours) pools exactly n sets, in its segment list and in its run
// table. n is large enough that interning must not be quadratic.
TEST(LayoutViewPool, UserDefinedFormatPoolsEachDistinctSetOnce) {
  constexpr Extent kNp = 64;
  constexpr Extent kDistinct = 2048;
  ProcessorSpace ps(kNp);
  ps.declare("Q", IndexDomain::of_extents({kNp}));
  const DistFormat pairs = DistFormat::user_defined(
      "pairs", [](Index1 i, Extent, Extent) {
        const Index1 j = (i - 1) % kDistinct;
        const Index1 a = j % kNp + 1;
        const Index1 b = j / kNp + 1;
        DimOwnerSet owners;
        owners.push_back(a);
        if (b != a) owners.push_back(b);
        return owners;
      });
  const Distribution dist =
      Distribution::formats(IndexDomain{Dim(2 * kDistinct)}, {pairs},
                            ProcessorRef(ps.find("Q")));
  const DimSegmentList list =
      dist.dim_mapping(0).compute_segment_list(Triplet(1, 2 * kDistinct));
  EXPECT_EQ(list.sets.size(), static_cast<std::size_t>(kDistinct));
  EXPECT_EQ(list.segments.size(), static_cast<std::size_t>(2 * kDistinct));

  const LayoutView view = LayoutView::whole(dist);
  EXPECT_EQ(view.table().sets.size(), static_cast<std::size_t>(kDistinct));
  EXPECT_EQ(view.run_count(), 2 * kDistinct);
  EXPECT_EQ(view.owners(view.runs()[0]), view.owners(view.runs()[kDistinct]));
  check_pool(view.table());
}

// --- the E1 acceptance bar ---------------------------------------------------

TEST(LayoutViewQueries, AnalyticFormatsNeedFarFewerQueriesThanElements) {
  constexpr Extent kN = 1 << 20;
  constexpr Extent kNp = 64;
  ProcessorSpace ps(kNp);
  ps.declare("Q", IndexDomain::of_extents({kNp}));

  std::vector<Extent> bounds;
  Rng rng(7);
  Extent prev = 0;
  for (Extent p = 1; p < kNp; ++p) {
    const Extent jitter = (kN / kNp) / 3;
    prev = std::max(prev, std::min(kN, kN * p / kNp +
                                            rng.uniform(-jitter, jitter)));
    bounds.push_back(prev);
  }

  const std::vector<DistFormat> formats = {
      DistFormat::block(), DistFormat::general_block(std::move(bounds))};
  for (const DistFormat& f : formats) {
    const Distribution dist = Distribution::formats(
        IndexDomain{Dim(kN)}, {f}, ProcessorRef(ps.find("Q")));
    const RunTable table = LayoutView::compute(dist, dist.domain().dims());
    EXPECT_LE(table.ownership_queries * 5, kN)
        << f.to_string() << " spent " << table.ownership_queries
        << " queries for " << kN << " elements";
    // Sanity: the sweep is not just cheap but structurally right — one run
    // per (non-empty) processor segment.
    EXPECT_LE(static_cast<Extent>(table.runs.size()), kNp);
  }
}

TEST(LayoutViewQueries, CyclicOneAtTwoToTheTwentyOnSixteenProcessors) {
  // The exact E1 counters of BM_SweepRuns/2/16 (bench/bench_dist_lookup),
  // pinned here so the per-dimension table builder cannot drift: CYCLIC(1)
  // over 2^20 elements on 16 processors is one run and one segment-list
  // probe per element.
  constexpr Extent kN = Extent{1} << 20;
  ProcessorSpace ps(16);
  ps.declare("Q", IndexDomain::of_extents({16}));
  const Distribution dist = Distribution::formats(
      IndexDomain{Dim(kN)}, {DistFormat::cyclic(1)}, ProcessorRef(ps.find("Q")));
  const RunTable table = LayoutView::compute(dist, dist.domain().dims());
  EXPECT_EQ(static_cast<Extent>(table.runs.size()), kN);
  EXPECT_EQ(table.ownership_queries, kN);
  EXPECT_EQ(table.sets.size(), 16u);
}

}  // namespace
}  // namespace hpfnt
