// The shared charge walks (exec/pricing.hpp) charge once per distinct
// owner-set pair, with the pair's element count from the per-dimension
// pair counts of core/pair_counts.hpp (run tables only for sides that are
// not a formats product):
//
//   * exact engine-call counts: a remap or an assign leaf makes at most one
//     call per (set, set) pair, however many segments the pair covers;
//   * a golden of the remap_cold sequence's StepStats and memory gauges,
//     fixed before the walks aggregated, so the summed charges are shown to
//     price exactly as the per-segment ones did — and the same sequence
//     builds no run table;
//   * property tests against a test-local per-segment reference over
//     random run tables: the pair counts, per-set counts, priced stats and
//     folded memory rows of random formats, sections and arrangements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "core/data_env.hpp"
#include "core/layout_view.hpp"
#include "core/pair_counts.hpp"
#include "exec/assign.hpp"
#include "exec/pricing.hpp"
#include "exec/redistribute_exec.hpp"
#include "machine/memory.hpp"
#include "machine/step_pricer.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "replicate_all.hpp"

namespace hpfnt {
namespace {

/// An Engine (exec/pricing.hpp) that forwards to a StepPricer and counts
/// the calls it receives. `calls_per_phase` gets one entry per posted
/// bracket, so a test can read one leaf's calls.
struct CountingEngine {
  explicit CountingEngine(StepPricer* p) : pricer(p) {}

  StepPricer* pricer;
  bool posted = false;
  Extent transfer_calls = 0;
  Extent local_read_calls = 0;
  Extent compute_calls = 0;
  std::vector<Extent> calls_per_phase;

  void begin_posted() {
    posted = true;
    calls_per_phase.push_back(0);
  }
  void end_posted() { posted = false; }
  void transfer_block(ApId src, ApId dst, Extent elem_bytes, Extent count) {
    ++transfer_calls;
    if (posted) ++calls_per_phase.back();
    pricer->transfer_block(src, dst, elem_bytes, count, posted);
  }
  void count_local_reads(Extent n) {
    ++local_read_calls;
    if (posted) ++calls_per_phase.back();
    pricer->count_local_reads(n);
  }
  void compute(ApId p, Extent flops) {
    ++compute_calls;
    pricer->compute(p, flops);
  }
};

/// The distribution and section a view was built over.
MappedSection of(const LayoutView& view) {
  return {&view.distribution(), &view.section()};
}

std::vector<MappedSection> of(const std::vector<LayoutView>& views) {
  std::vector<MappedSection> out;
  for (const LayoutView& v : views) out.push_back(of(v));
  return out;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

// --- exact engine-call counts ------------------------------------------------

TEST(ChargeWalkCalls, BlockToCyclicRemapCallsTheEngineOncePerPair) {
  // 2^14 elements on 16 processors: BLOCK -> CYCLIC(1) has 16,384 common
  // segments, 15,360 of them remote, over 16 x 16 owner-set pairs. The
  // 240 off-diagonal pairs are one transfer_block each.
  constexpr Extent kN = Extent{1} << 14;
  constexpr Extent kP = 16;
  Machine machine(kP);
  ProcessorSpace ps(kP);
  const ProcessorRef q(ps.declare("Q", IndexDomain::of_extents({kP})));
  const IndexDomain dom{Dim(kN)};
  const Distribution block =
      Distribution::formats(dom, {DistFormat::block()}, q);
  const Distribution cyclic =
      Distribution::formats(dom, {DistFormat::cyclic(1)}, q);

  StepPricer pricer(machine.cost());
  CountingEngine engine(&pricer);
  charge_remap_step(block, cyclic, 8, engine, /*fold=*/nullptr);
  EXPECT_EQ(engine.transfer_calls, kP * (kP - 1));
  EXPECT_EQ(engine.local_read_calls, 0);
  EXPECT_EQ(engine.compute_calls, 0);
  const StepStats stats = pricer.price("remap");
  EXPECT_EQ(stats.messages, kP * (kP - 1));
  EXPECT_EQ(stats.element_transfers, kN - kN / kP);
  EXPECT_EQ(stats.bytes, 8 * (kN - kN / kP));
  EXPECT_EQ(pricer.local_reads(), 0);
}

TEST(ChargeWalkCalls, StencilLeafCallsAreBoundedBySetPairs) {
  // A 128^2 (CYCLIC(2),BLOCK) 5-point assign on a 4x4 grid: each shifted
  // leaf covers thousands of common segments with the LHS, but calls the
  // engine at most once per (LHS set, leaf set) pair.
  constexpr Extent kR = 128;
  Machine machine(16);
  ProcessorSpace ps(16);
  const ProcessorRef g(ps.declare("G", IndexDomain::of_extents({4, 4})));
  const Distribution dist = Distribution::formats(
      IndexDomain{Dim(kR), Dim(kR)},
      {DistFormat::cyclic(2), DistFormat::block()}, g);
  auto section = [&](Index1 ilo, Index1 jlo) {
    return std::vector<Triplet>{Triplet(ilo, ilo + kR - 3),
                                Triplet(jlo, jlo + kR - 3)};
  };
  const std::vector<Triplet> lhs_section = section(2, 2);
  const LayoutView lhs(dist, lhs_section);
  std::vector<std::vector<Triplet>> leaf_sections;
  std::vector<LayoutView> leaves;
  for (const auto& [i, j] : std::vector<std::pair<Index1, Index1>>{
           {1, 2}, {3, 2}, {2, 1}, {2, 3}}) {
    leaf_sections.push_back(section(i, j));
    leaves.emplace_back(dist, leaf_sections.back());
  }
  std::vector<MappedSection> leaf_maps;
  for (const auto& s : leaf_sections) leaf_maps.push_back({&dist, &s});
  const std::vector<Extent> bytes(leaves.size(), 8);
  const std::vector<char> posted(leaves.size(), 1);  // one bracket per leaf

  StepPricer pricer(machine.cost());
  CountingEngine engine(&pricer);
  charge_assign_step(MappedSection{&dist, &lhs_section}, leaf_maps, bytes,
                     posted, 8, 4, engine);
  ASSERT_EQ(engine.calls_per_phase.size(), leaves.size());
  const Extent lhs_sets = static_cast<Extent>(lhs.table().sets.size());
  Extent segments = 0;
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const Extent leaf_sets = static_cast<Extent>(leaves[l].table().sets.size());
    EXPECT_LE(engine.calls_per_phase[l], lhs_sets * leaf_sets) << "leaf " << l;
    EXPECT_GT(engine.calls_per_phase[l], 0) << "leaf " << l;
    for_each_common_segment_ids(lhs.table(), leaves[l].table(),
                                [&](Extent, Extent, std::uint32_t,
                                    std::uint32_t) { ++segments; });
  }
  EXPECT_GT(segments, 16 * lhs_sets * lhs_sets);
  EXPECT_EQ(engine.compute_calls, lhs_sets);  // single-owner LHS sets
  const StepStats stats = pricer.price("stencil");
  EXPECT_EQ(stats.flops, 4 * lhs.size());
  EXPECT_EQ(stats.element_transfers + pricer.local_reads(), 4 * lhs.size());
}

// --- golden of the remap_cold sequence ---------------------------------------

struct StepRow {
  Extent messages;
  Extent bytes;
  Extent element_transfers;
  Extent local_reads;
  Extent flops;
  std::uint64_t time_bits;

  friend bool operator==(const StepRow& a, const StepRow& b) {
    return a.messages == b.messages && a.bytes == b.bytes &&
           a.element_transfers == b.element_transfers &&
           a.local_reads == b.local_reads && a.flops == b.flops &&
           a.time_bits == b.time_bits;
  }
};

std::ostream& operator<<(std::ostream& os, const StepRow& r) {
  return os << "{" << r.messages << ", " << r.bytes << ", "
            << r.element_transfers << ", " << r.local_reads << ", "
            << r.flops << ", 0x" << std::hex << r.time_bits << std::dec
            << "}";
}

/// {bytes_on(p), peak_on(p)} for p = 0..15 after one remap.
using Gauges = std::vector<std::pair<Extent, Extent>>;

/// One fresh 16-processor session: A and B of 2^14 reals start BLOCK; A is
/// REDISTRIBUTEd through CYCLIC(1), CYCLIC(8), a fixed GENERAL_BLOCK, an
/// LCG-seeded INDIRECT and back to BLOCK, with B = A + 1 after each step;
/// then one cold 5-point stencil on a 128^2 (CYCLIC(2),BLOCK) pair. With
/// `layouts`, collects every distribution the sequence prices.
void run_cold_sequence(std::vector<StepRow>& rows, std::vector<Gauges>& gauges,
                       std::vector<Distribution>* layouts = nullptr) {
  constexpr Extent kN = Extent{1} << 14;
  constexpr Extent kR = 128;
  Machine machine(16);
  ProcessorSpace space(16);
  DataEnv env(space);
  ProgramState state(machine);
  const ProcessorArrangement& q =
      space.declare("Q", IndexDomain::of_extents({16}));
  const ProcessorArrangement& g =
      space.declare("G", IndexDomain::of_extents({4, 4}));

  std::vector<Extent> sizes;
  for (Extent p = 0; p + 1 < 16; ++p) sizes.push_back(300 + 131 * (p % 7));
  Extent used = 0;
  for (Extent s : sizes) used += s;
  sizes.push_back(kN - used);
  std::vector<Extent> owner(static_cast<std::size_t>(kN));
  std::uint64_t lcg = 12345;
  for (Extent& o : owner) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    o = static_cast<Extent>(lcg >> 60) + 1;
  }
  const std::vector<DistFormat> formats = {
      DistFormat::cyclic(1), DistFormat::cyclic(8),
      DistFormat::general_block_sizes(sizes), DistFormat::indirect(owner),
      DistFormat::block()};

  DistArray& a = env.real("A", IndexDomain{Dim(kN)});
  DistArray& b = env.real("B", IndexDomain{Dim(kN)});
  env.distribute(a, {DistFormat::block()}, ProcessorRef(q));
  env.distribute(b, {DistFormat::block()}, ProcessorRef(q));
  env.dynamic(a);
  state.create(env, a);
  state.create(env, b);

  auto row = [](const StepStats& s, Extent local_reads) {
    return StepRow{s.messages,          s.bytes, s.element_transfers,
                   local_reads,         s.flops, bits_of(s.time_us)};
  };
  const SecExpr a_plus_1 = SecExpr::whole(a) + 1.0;
  for (const DistFormat& f : formats) {
    const Extent reads_before = state.comm().local_reads();
    const std::vector<RemapEvent> events =
        env.redistribute(a, {f}, ProcessorRef(q));
    for (const RemapEvent& e : events) {
      if (layouts) layouts->insert(layouts->end(), {e.from, e.to});
    }
    const std::vector<StepStats> steps = apply_remaps(state, env, events);
    ASSERT_EQ(steps.size(), 1u);
    rows.push_back(row(steps[0], state.comm().local_reads() - reads_before));
    Gauges now;
    for (ApId p = 0; p < 16; ++p) {
      now.emplace_back(state.memory().bytes_on(p), state.memory().peak_on(p));
    }
    gauges.push_back(now);
    const AssignResult r = assign(state, env, b, a_plus_1, "B");
    rows.push_back(row(r.step, r.local_reads));
  }

  DistArray& c = env.real("C", IndexDomain{Dim(kR), Dim(kR)});
  DistArray& d = env.real("D", IndexDomain{Dim(kR), Dim(kR)});
  for (DistArray* x : {&c, &d}) {
    env.distribute(*x, {DistFormat::cyclic(2), DistFormat::block()},
                   ProcessorRef(g));
    state.create(env, *x);
  }
  auto sec = [&](Index1 ilo, Index1 jlo) {
    return SecExpr::section(
        c, {Triplet(ilo, ilo + kR - 3), Triplet(jlo, jlo + kR - 3)});
  };
  const SecExpr stencil =
      (sec(1, 2) + sec(3, 2) + sec(2, 1) + sec(2, 3)) * 0.25;
  const AssignResult r = assign(state, env, d,
                                {Triplet(2, kR - 1), Triplet(2, kR - 1)},
                                stencil, "D");
  rows.push_back(row(r.step, r.local_reads));
  if (layouts) {
    for (const DistArray* x : {&a, &b, &c, &d}) {
      layouts->push_back(state.layout(x->id()));
      layouts->push_back(env.distribution_of(*x));
    }
  }
}

// Recorded from the per-segment charge walks, before they summed per pair.
const std::vector<StepRow> kGoldenRows = {
    {240, 61440, 15360, 0, 0, 0x40a396cccccccccdULL},  // BLOCK -> CYCLIC(1)
    {240, 61440, 15360, 1024, 16384, 0x40a463999999999aULL},  // B = A + 1
    {120, 61440, 15360, 0, 0, 0x40a0351eb851eb85ULL},  // -> CYCLIC(8)
    {240, 61440, 15360, 1024, 16384, 0x40a463999999999aULL},  // B = A + 1
    {240, 61420, 15355, 0, 0, 0x40c3058a3d70a3d7ULL},  // -> GENERAL_BLOCK
    {28, 60240, 15060, 1324, 16384, 0x40c025f5c28f5c28ULL},  // B = A + 1
    {240, 61264, 15316, 0, 0, 0x40c3008000000000ULL},  // -> INDIRECT
    {240, 61600, 15400, 984, 16384, 0x40a507c28f5c28f5ULL},  // B = A + 1
    {240, 61600, 15400, 0, 0, 0x40a43af5c28f5c28ULL},  // -> BLOCK
    {0, 0, 0, 16384, 16384, 0x405999999999999aULL},  // B = A + 1
    {56, 66528, 16632, 46872, 63504, 0x40a1c8a3d70a3d70ULL},  // stencil
};

const std::vector<Gauges> kGoldenGauges = {
    {{8192, 8192}, {8192, 8448}, {8192, 8704}, {8192, 8960}, {8192, 9216},
     {8192, 9472}, {8192, 9728}, {8192, 9984}, {8192, 10240}, {8192, 10496},
     {8192, 10752}, {8192, 11008}, {8192, 11264}, {8192, 11520}, {8192, 11776},
     {8192, 12032}},
    {{8192, 8220}, {8192, 8448}, {8192, 8704}, {8192, 8960}, {8192, 9216},
     {8192, 9472}, {8192, 9728}, {8192, 9984}, {8192, 10240}, {8192, 10496},
     {8192, 10752}, {8192, 11008}, {8192, 11264}, {8192, 11520}, {8192, 11776},
     {8192, 12032}},
    {{5296, 9296}, {5820, 9724}, {6344, 10120}, {6868, 10452}, {7392, 10784},
     {7916, 11052}, {8440, 11320}, {5296, 9984}, {5820, 10240}, {6344, 10496},
     {6868, 10752}, {7392, 11008}, {7916, 11264}, {8440, 11520}, {5296, 11776},
     {29624, 29624}},
    {{8308, 9296}, {8152, 9724}, {8236, 10120}, {8108, 10452}, {8132, 10784},
     {7920, 11052}, {8156, 11320}, {8304, 9984}, {8392, 10240}, {8152, 10496},
     {8092, 10752}, {8308, 11008}, {8204, 11264}, {8056, 11520}, {8276, 11776},
     {8276, 32176}},
    {{8192, 12180}, {8192, 11724}, {8192, 11612}, {8192, 11248}, {8192, 10924},
     {8192, 11052}, {8192, 11320}, {8192, 10260}, {8192, 10240}, {8192, 10496},
     {8192, 10752}, {8192, 11008}, {8192, 11264}, {8192, 11520}, {8192, 11776},
     {8192, 32176}},
};

TEST(ChargeWalkGolden, ColdRemapSequenceKeepsItsStatsAndGauges) {
  std::vector<StepRow> rows;
  std::vector<Gauges> gauges;
  run_cold_sequence(rows, gauges);
  ASSERT_EQ(rows.size(), kGoldenRows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(rows[k], kGoldenRows[k]) << "step " << k;
  }
  ASSERT_EQ(gauges.size(), kGoldenGauges.size());
  for (std::size_t k = 0; k < gauges.size(); ++k) {
    EXPECT_EQ(gauges[k], kGoldenGauges[k]) << "remap " << k;
  }
}

TEST(ChargeWalkGolden, ColdRemapSequenceBuildsNoRunTable) {
  // Every layout of the sequence is a formats payload, so creation, the
  // remaps, the assigns and the stencil price from per-dimension segment
  // lists: no payload memoizes a whole-domain or a section run table.
  std::vector<StepRow> rows;
  std::vector<Gauges> gauges;
  std::vector<Distribution> layouts;
  run_cold_sequence(rows, gauges, &layouts);
  ASSERT_EQ(layouts.size(), 2 * 5 + 2 * 4u);
  for (std::size_t k = 0; k < layouts.size(); ++k) {
    SCOPED_TRACE(cat("layout ", k));
    EXPECT_EQ(layouts[k].run_memo().whole_table(), nullptr);
    EXPECT_EQ(layouts[k].run_memo().size(), 0u);
  }
}

// --- the pair walk against a per-segment reference ---------------------------

// The per-segment charge walks the pair walks replaced, kept here as the
// reference: one engine call per common segment.

template <class Engine>
void ref_assign(const LayoutView& lhs_view,
                const std::vector<LayoutView>& leaf_views, Extent bytes,
                const std::vector<char>& posted, Extent elem_bytes,
                Extent flops, Engine& engine) {
  auto charge_reads = [&](Extent count, const OwnerSet& lhs_owners,
                          const OwnerSet& leaf_owners) {
    const ApId p = min_owner(lhs_owners);
    if (owner_set_contains(leaf_owners, p)) {
      engine.count_local_reads(count);
    } else {
      engine.transfer_block(min_owner(leaf_owners), p, bytes, count);
    }
  };
  for (std::size_t l = 0; l < leaf_views.size(); ++l) {
    const LayoutView& leaf_view = leaf_views[l];
    if (leaf_view.size() != lhs_view.size()) {
      const OwnerSet& leaf_owners = leaf_view.owners(leaf_view.runs().front());
      for (const OwnerRun& r : lhs_view.runs()) {
        charge_reads(r.count, lhs_view.owners(r), leaf_owners);
      }
      continue;
    }
    if (posted[l]) engine.begin_posted();
    for_each_common_segment(
        lhs_view.table(), leaf_view.table(),
        [&](Extent, Extent count, const OwnerSet& a, const OwnerSet& b) {
          charge_reads(count, a, b);
        });
    if (posted[l]) engine.end_posted();
  }
  for (const OwnerRun& r : lhs_view.runs()) {
    const OwnerSet& owners = lhs_view.owners(r);
    const ApId p = min_owner(owners);
    if (flops > 0) engine.compute(p, flops * r.count);
    for (ApId q : owners) {
      if (q != p) engine.transfer_block(p, q, elem_bytes, r.count);
    }
  }
}

template <class Engine>
void ref_remap(const Distribution& from, const Distribution& to,
               Extent elem_bytes, Engine& engine, MemoryDeltaFold& fold) {
  const LayoutView from_view = LayoutView::whole(from);
  const LayoutView to_view = LayoutView::whole(to);
  for_each_common_segment(
      from_view.table(), to_view.table(),
      [&](Extent, Extent count, const OwnerSet& old_owners,
          const OwnerSet& new_owners) {
        const ApId src = min_owner(old_owners);
        for (ApId q : new_owners) {
          if (!owner_set_contains(old_owners, q)) {
            engine.transfer_block(src, q, elem_bytes, count);
          }
        }
        for (ApId q : new_owners) {
          if (!owner_set_contains(old_owners, q)) {
            fold.add(q, elem_bytes * count);
          }
        }
        for (ApId o : old_owners) {
          if (!owner_set_contains(new_owners, o)) {
            fold.add(o, -(elem_bytes * count));
          }
        }
      });
}

/// The remap's replica deltas of two section tables, per common segment in
/// position order.
void ref_fold(const RunTable& from, const RunTable& to, Extent elem_bytes,
              MemoryDeltaFold& fold) {
  for_each_common_segment(
      from, to,
      [&](Extent, Extent count, const OwnerSet& old_owners,
          const OwnerSet& new_owners) {
        for (ApId q : new_owners) {
          if (!owner_set_contains(old_owners, q)) {
            fold.add(q, elem_bytes * count);
          }
        }
        for (ApId o : old_owners) {
          if (!owner_set_contains(new_owners, o)) {
            fold.add(o, -(elem_bytes * count));
          }
        }
      });
}

template <class Engine>
void ref_copy(const LayoutView& dst_view, const LayoutView& src_view,
              Extent elem_bytes, Engine& engine) {
  for_each_common_segment(
      dst_view.table(), src_view.table(),
      [&](Extent, Extent count, const OwnerSet& dst_owners,
          const OwnerSet& src_owners) {
        const ApId sender = min_owner(src_owners);
        for (ApId q : dst_owners) {
          if (owner_set_contains(src_owners, q)) {
            engine.count_local_reads(count);
          } else {
            engine.transfer_block(sender, q, elem_bytes, count);
          }
        }
      });
}

using SetKey = std::pair<std::vector<ApId>, std::vector<ApId>>;

std::vector<ApId> members(const OwnerSet& set) {
  return std::vector<ApId>(set.begin(), set.end());
}

/// Per-pair sums as SetPairCounts emits them over two tables' common
/// segments; also checks that each pair comes once, in ascending id order.
std::map<SetKey, Extent> pair_sums(const RunTable& a, const RunTable& b) {
  std::map<SetKey, Extent> out;
  std::pair<std::ptrdiff_t, std::ptrdiff_t> last(-1, -1);
  SetPairCounts counts(a, b);
  for_each_common_segment_ids(
      a, b, [&](Extent, Extent count, std::uint32_t ia, std::uint32_t ib) {
        counts.add(ia, ib, count);
      });
  counts.for_each([&](Extent count, const OwnerSet& sa, const OwnerSet& sb) {
    const std::pair<std::ptrdiff_t, std::ptrdiff_t> ids(&sa - a.sets.data(),
                                                        &sb - b.sets.data());
    EXPECT_LT(last, ids) << "pairs out of id order";
    last = ids;
    EXPECT_GT(count, 0);
    EXPECT_TRUE(out.emplace(SetKey(members(sa), members(sb)), count).second)
        << "pair emitted twice";
  });
  return out;
}

/// The same sums from the per-segment walk.
std::map<SetKey, Extent> ref_pair_sums(const RunTable& a, const RunTable& b) {
  std::map<SetKey, Extent> out;
  for_each_common_segment(
      a, b, [&](Extent, Extent count, const OwnerSet& sa, const OwnerSet& sb) {
        out[SetKey(members(sa), members(sb))] += count;
      });
  return out;
}

/// Per-pair counts as `pairs` emits them; also checks that each pair comes
/// once, with a positive count.
std::map<SetKey, Extent> pair_sums(const PairCounts& pairs) {
  std::map<SetKey, Extent> out;
  pairs.for_each([&](Extent count, const OwnerSet& sa, const OwnerSet& sb) {
    EXPECT_GT(count, 0);
    EXPECT_TRUE(out.emplace(SetKey(members(sa), members(sb)), count).second)
        << "pair emitted twice";
  });
  return out;
}

std::map<SetKey, Extent> primitive_pair_sums(const MappedSection& a,
                                             const MappedSection& b) {
  return pair_sums(PairCounts(a, b));
}

/// The same, with a's side counted first and reused, as an assignment
/// reuses its LHS.
std::map<SetKey, Extent> reused_pair_sums(const MappedSection& a,
                                          const MappedSection& b) {
  SectionCounts counted(*a.dist, *a.section);
  return pair_sums(PairCounts(counted, b));
}

/// Per-set counts of SectionCounts, and of a run table.
std::map<std::vector<ApId>, Extent> primitive_set_sums(
    const Distribution& dist, const std::vector<Triplet>& section) {
  std::map<std::vector<ApId>, Extent> out;
  const SectionCounts counts(dist, section);
  for (std::size_t i = 0; i < counts.sets().size(); ++i) {
    if (counts.counts()[i] != 0) {
      EXPECT_TRUE(out.emplace(members(counts.sets()[i]), counts.counts()[i])
                      .second)
          << "set pooled twice";
    }
  }
  return out;
}

std::map<std::vector<ApId>, Extent> ref_set_sums(const RunTable& table) {
  std::map<std::vector<ApId>, Extent> out;
  for (const OwnerRun& r : table.runs) out[members(table.owners(r))] += r.count;
  return out;
}

void expect_same_pricing(const StepPricer& got, const StepPricer& want) {
  const StepStats g = got.price("step");
  const StepStats w = want.price("step");
  EXPECT_EQ(g.messages, w.messages);
  EXPECT_EQ(g.bytes, w.bytes);
  EXPECT_EQ(g.element_transfers, w.element_transfers);
  EXPECT_EQ(g.flops, w.flops);
  EXPECT_EQ(bits_of(g.time_us), bits_of(w.time_us));
  EXPECT_EQ(bits_of(g.exposed_comm_us), bits_of(w.exposed_comm_us));
  EXPECT_EQ(bits_of(g.hidden_comm_us), bits_of(w.hidden_comm_us));
  EXPECT_EQ(got.local_reads(), want.local_reads());
  EXPECT_EQ(got.traffic(), want.traffic());
  const auto gc = got.compute_rows();
  const auto wc = want.compute_rows();
  ASSERT_EQ(gc.size(), wc.size());
  for (std::size_t i = 0; i < gc.size(); ++i) {
    EXPECT_EQ(gc[i].key, wc[i].key);
    EXPECT_EQ(gc[i].payload, wc[i].payload);
  }
}

bool same_ops(const std::vector<MemoryDelta>& a,
              const std::vector<MemoryDelta>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const MemoryDelta& x, const MemoryDelta& y) {
                      return x.p == y.p && x.delta == y.delta;
                    });
}

class PairWalkProperty : public ::testing::Test {
 protected:
  static constexpr Extent kP = 8;

  PairWalkProperty() : machine_(kP), ps_(kP) {
    ps_.declare("Q", IndexDomain::of_extents({kP}));
    ps_.declare("G", IndexDomain::of_extents({2, 4}));
    ps_.declare("H", IndexDomain::of_extents({4, 2}));
    ps_.declare("T", IndexDomain::of_extents({3}));
    ps_.declare("R", IndexDomain::of_extents({2, 2, 2}));
  }

  /// Any format for an extent-n dimension over np positions: BLOCK,
  /// VIENNA_BLOCK, GENERAL_BLOCK with empty blocks, CYCLIC(k) with k·np
  /// below and above n, INDIRECT, or replicating.
  DistFormat any_format(Rng& rng, Extent n, Extent np) {
    switch (rng.uniform(0, 6)) {
      case 0:
        return DistFormat::block();
      case 1:
        return DistFormat::vienna_block();
      case 2: {
        // Few busy blocks: most of the np blocks stay empty.
        std::vector<Extent> sizes(static_cast<std::size_t>(np), 0);
        const Extent busy = rng.uniform(1, np);
        for (Extent k = 0; k < n; ++k) {
          ++sizes[static_cast<std::size_t>(rng.uniform(0, busy - 1))];
        }
        return DistFormat::general_block_sizes(sizes);
      }
      case 3:
        return DistFormat::cyclic(rng.uniform(1, 3));
      case 4:
        return DistFormat::cyclic(n / np + rng.uniform(1, 3));
      case 5: {
        std::vector<Extent> owner(static_cast<std::size_t>(n));
        for (Extent& o : owner) o = rng.uniform(1, np);
        return DistFormat::indirect(owner);
      }
      default:
        return replicating_format(rng.next());
    }
  }

  /// A random formats distribution of `dom` (rank >= 1) onto an
  /// arrangement of rank <= dom's; the dimensions not distributed are
  /// collapsed.
  Distribution random_formats(Rng& rng, const IndexDomain& dom) {
    std::vector<const char*> names;
    for (const char* name : {"Q", "T", "G", "H", "R"}) {
      if (ps_.find(name).domain().rank() <= dom.rank()) names.push_back(name);
    }
    const ProcessorArrangement& target = ps_.find(
        names[static_cast<std::size_t>(
            rng.uniform(0, static_cast<Extent>(names.size()) - 1))]);
    // Distribute a random subset of the dimensions, one per target dim.
    std::vector<int> dims(static_cast<std::size_t>(dom.rank()));
    for (int d = 0; d < dom.rank(); ++d) dims[static_cast<std::size_t>(d)] = d;
    for (std::size_t k = dims.size(); k > 1; --k) {
      std::swap(dims[k - 1],
                dims[static_cast<std::size_t>(
                    rng.uniform(0, static_cast<Extent>(k) - 1))]);
    }
    dims.resize(static_cast<std::size_t>(target.domain().rank()));
    std::sort(dims.begin(), dims.end());
    std::vector<DistFormat> formats(static_cast<std::size_t>(dom.rank()),
                                    DistFormat::collapsed());
    for (std::size_t t = 0; t < dims.size(); ++t) {
      const int d = dims[t];
      formats[static_cast<std::size_t>(d)] =
          any_format(rng, dom.extent(d), target.domain().extent(static_cast<int>(t)));
    }
    return Distribution::formats(dom, std::move(formats), ProcessorRef(target));
  }

  /// A domain of rank 1-3 and a section of it whose squeezed shape is
  /// `shape`: unit dimensions at random places, shifted lower bounds,
  /// strides of either sign.
  static std::pair<IndexDomain, std::vector<Triplet>> random_section(
      Rng& rng, const std::vector<Extent>& shape) {
    const Extent m = static_cast<Extent>(shape.size());
    const int rank = static_cast<int>(std::max<Extent>(1, rng.uniform(m, 3)));
    std::vector<char> wide(static_cast<std::size_t>(rank), 0);
    for (Extent k = 0; k < m; ++k) wide[static_cast<std::size_t>(k)] = 1;
    for (std::size_t k = wide.size(); k > 1; --k) {
      std::swap(wide[k - 1], wide[static_cast<std::size_t>(
                                 rng.uniform(0, static_cast<Extent>(k) - 1))]);
    }
    std::vector<Triplet> dims;
    std::vector<Triplet> section;
    std::size_t next = 0;
    for (int d = 0; d < rank; ++d) {
      const Index1 lo = rng.uniform(-3, 3);
      if (!wide[static_cast<std::size_t>(d)]) {
        const Extent n = rng.uniform(1, 5);
        dims.emplace_back(lo, lo + n - 1);
        section.push_back(Triplet::single(lo + rng.uniform(0, n - 1)));
        continue;
      }
      const Extent e = shape[next++];
      const Index1 step = rng.uniform(1, 2);
      const Extent span = (e - 1) * step + 1;
      const Extent n = span + rng.uniform(0, 5);
      dims.emplace_back(lo, lo + n - 1);
      const Index1 first = lo + rng.uniform(0, n - span);
      section.push_back(rng.uniform(0, 1) == 0
                            ? Triplet(first, first + span - 1, step)
                            : Triplet(first + span - 1, first, -step));
    }
    return {IndexDomain(std::move(dims)), std::move(section)};
  }

  /// A random single-owner format for an extent-n dimension over np
  /// positions.
  DistFormat single_owner_format(Rng& rng, Extent n, Extent np) {
    switch (rng.uniform(0, 3)) {
      case 0:
        return DistFormat::block();
      case 1:
        return DistFormat::cyclic(rng.uniform(1, 5));
      case 2: {
        std::vector<Extent> sizes(static_cast<std::size_t>(np), 0);
        for (Extent k = 0; k < n; ++k) {
          ++sizes[static_cast<std::size_t>(rng.uniform(0, np - 1))];
        }
        return DistFormat::general_block_sizes(sizes);
      }
      default: {
        std::vector<Extent> owner(static_cast<std::size_t>(n));
        for (Extent& o : owner) o = rng.uniform(1, np);
        return DistFormat::indirect(owner);
      }
    }
  }

  /// A user-defined format replicating each index over 1-3 positions,
  /// chosen by a hash of the index and `salt`, listed in no sorted order.
  static DistFormat replicating_format(std::uint64_t salt) {
    return DistFormat::user_defined(
        cat("rep", salt), [salt](Index1 i, Extent, Extent np) {
          std::uint64_t h = (static_cast<std::uint64_t>(i) / 3 + salt) *
                            0x9e3779b97f4a7c15ULL;
          DimOwnerSet owners;
          const int k = static_cast<int>(h >> 62) % 3 + 1;
          for (int c = 0; c < k; ++c) {
            h = h * 6364136223846793005ULL + 1442695040888963407ULL;
            const Index1 p = static_cast<Index1>(h >> 40) % np + 1;
            if (std::find(owners.begin(), owners.end(), p) == owners.end()) {
              owners.push_back(p);
            }
          }
          return owners;
        });
  }

  /// A random distribution of `dom` (rank 1 onto Q, rank 2 onto G).
  Distribution random_dist(Rng& rng, const IndexDomain& dom) {
    const bool rank2 = dom.rank() == 2;
    const ProcessorRef target(ps_.find(rank2 ? "G" : "Q"));
    const Extent pick = rng.uniform(0, 9);
    if (pick == 0) return replicated_over(dom, target);
    std::vector<DistFormat> formats;
    for (int d = 0; d < dom.rank(); ++d) {
      const Extent n = dom.dims()[static_cast<std::size_t>(d)].size();
      const Extent np = rank2 ? (d == 0 ? 2 : 4) : kP;
      formats.push_back(pick <= 3 ? replicating_format(rng.next())
                                  : single_owner_format(rng, n, np));
    }
    return Distribution::formats(dom, std::move(formats), target);
  }

  /// Checks every walk over (a, b): pair sums, the copy and remap charges
  /// with their memory folds, and an assign of b's and a's sections.
  void check_pair(const Distribution& a, const Distribution& b) {
    const LayoutView va = LayoutView::whole(a);
    const LayoutView vb = LayoutView::whole(b);
    EXPECT_EQ(pair_sums(va.table(), vb.table()),
              ref_pair_sums(va.table(), vb.table()));
    {
      SCOPED_TRACE("copy");
      StepPricer got(machine_.cost());
      StepPricer want(machine_.cost());
      CountingEngine ge(&got);
      CountingEngine we(&want);
      charge_copy_step(of(va), of(vb), 8, ge);
      ref_copy(va, vb, 8, we);
      expect_same_pricing(got, want);
    }
    {
      SCOPED_TRACE("remap");
      StepPricer got(machine_.cost());
      StepPricer want(machine_.cost());
      CountingEngine ge(&got);
      CountingEngine we(&want);
      MemoryDeltaFold got_fold;
      MemoryDeltaFold want_fold;
      charge_remap_step(a, b, 8, ge, &got_fold);
      ref_remap(a, b, 8, we, want_fold);
      expect_same_pricing(got, want);
      EXPECT_TRUE(same_ops(got_fold.ops(), want_fold.ops()));
    }
    {
      SCOPED_TRACE("assign");
      const std::vector<LayoutView> leaves = {vb, va, vb};
      const std::vector<char> posted = {1, 0, 0};
      StepPricer got(machine_.cost());
      StepPricer want(machine_.cost());
      CountingEngine ge(&got);
      CountingEngine we(&want);
      charge_assign_step(of(va), of(leaves), std::vector<Extent>(3, 4), posted,
                         8, 3, ge);
      ref_assign(va, leaves, 4, posted, 8, 3, we);
      expect_same_pricing(got, want);
    }
  }

  Machine machine_;
  ProcessorSpace ps_;
};

TEST_F(PairWalkProperty, RandomTablesMatchThePerSegmentWalks) {
  Rng rng(2024);
  int dense = 0;
  int hashed = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(cat("trial ", trial));
    const IndexDomain dom =
        rng.uniform(0, 2) == 0
            ? IndexDomain{Dim(rng.uniform(1, 12)), Dim(rng.uniform(1, 12))}
            : IndexDomain{Dim(rng.uniform(1, 120))};
    const Distribution a = random_dist(rng, dom);
    const Distribution b = random_dist(rng, dom);
    const LayoutView va = LayoutView::whole(a);
    const LayoutView vb = LayoutView::whole(b);
    ++(SetPairCounts(va.table(), vb.table()).dense() ? dense : hashed);
    check_pair(a, b);
  }
  // Replicated sets make pools large enough for the hashed regime.
  EXPECT_GT(dense, 0);
  EXPECT_GT(hashed, 0);
}

TEST_F(PairWalkProperty, RandomSectionsMatchThePerSegmentWalks) {
  // Conforming sections of two random formats layouts, ranks 1-3, over
  // arrangements of different shapes: the per-dimension pair counts, the
  // per-set counts, the charges and the position-order memory fold equal
  // those of the two run tables' per-segment walks.
  Rng rng(1993);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(cat("trial ", trial));
    std::vector<Extent> shape(static_cast<std::size_t>(rng.uniform(0, 3)));
    // Long rank-1 sections let whole CYCLIC periods fit inside a block.
    const Extent widest[] = {0, 60, 15, 7};
    for (Extent& e : shape) e = rng.uniform(2, widest[shape.size()]);
    const auto [dom_a, sec_a] = random_section(rng, shape);
    const auto [dom_b, sec_b] = random_section(rng, shape);
    const Distribution a = random_formats(rng, dom_a);
    const Distribution b = random_formats(rng, dom_b);
    SCOPED_TRACE(cat(a.to_string(), " x ", b.to_string()));
    const MappedSection ma{&a, &sec_a};
    const MappedSection mb{&b, &sec_b};
    const RunTable ta = LayoutView::compute(a, sec_a);
    const RunTable tb = LayoutView::compute(b, sec_b);

    EXPECT_EQ(primitive_set_sums(a, sec_a), ref_set_sums(ta));
    EXPECT_EQ(primitive_pair_sums(ma, mb), ref_pair_sums(ta, tb));
    EXPECT_EQ(reused_pair_sums(ma, mb), ref_pair_sums(ta, tb));
    {
      SCOPED_TRACE("fold");
      MemoryDeltaFold got;
      MemoryDeltaFold want;
      const PairCounts pairs(ma, mb, &got, 8);
      ref_fold(ta, tb, 8, want);
      EXPECT_TRUE(same_ops(got.ops(), want.ops()));
    }
    const LayoutView va(a, sec_a);
    const LayoutView vb(b, sec_b);
    {
      SCOPED_TRACE("copy");
      StepPricer got(machine_.cost());
      StepPricer want(machine_.cost());
      CountingEngine ge(&got);
      CountingEngine we(&want);
      charge_copy_step(ma, mb, 8, ge);
      ref_copy(va, vb, 8, we);
      expect_same_pricing(got, want);
    }
    {
      SCOPED_TRACE("assign");
      // b's section, a's own, and one element of b broadcast.
      const auto [dom_one, sec_one] = random_section(rng, {});
      const Distribution one = random_formats(rng, dom_one);
      const std::vector<LayoutView> leaves = {vb, va,
                                              LayoutView(one, sec_one)};
      const std::vector<char> posted = {1, 0, 0};
      StepPricer got(machine_.cost());
      StepPricer want(machine_.cost());
      CountingEngine ge(&got);
      CountingEngine we(&want);
      const Extent queries = charge_assign_step(
          ma, of(leaves), std::vector<Extent>(3, 4), posted, 8, 3, ge);
      ref_assign(va, leaves, 4, posted, 8, 3, we);
      expect_same_pricing(got, want);
      EXPECT_GT(queries, 0);
    }
    {
      SCOPED_TRACE("remap");
      const Distribution to = random_formats(rng, dom_a);
      StepPricer got(machine_.cost());
      StepPricer want(machine_.cost());
      CountingEngine ge(&got);
      CountingEngine we(&want);
      MemoryDeltaFold got_fold;
      MemoryDeltaFold want_fold;
      charge_remap_step(a, to, 8, ge, &got_fold);
      ref_remap(a, to, 8, we, want_fold);
      expect_same_pricing(got, want);
      EXPECT_TRUE(same_ops(got_fold.ops(), want_fold.ops()));
    }
  }
}

TEST_F(PairWalkProperty, SizeZeroAndSizeOneTables) {
  const Distribution block = Distribution::formats(
      IndexDomain{Dim(16)}, {DistFormat::block()}, ProcessorRef(ps_.find("Q")));
  const Distribution rep =
      Distribution::formats(IndexDomain{Dim(16)}, {replicating_format(7)},
                            ProcessorRef(ps_.find("Q")));
  // Size 0: empty sections walk nothing and charge nothing.
  const LayoutView empty_a(block, {Triplet(5, 4, 1)});
  const LayoutView empty_b(rep, {Triplet(9, 8, 1)});
  EXPECT_TRUE(pair_sums(empty_a.table(), empty_b.table()).empty());
  StepPricer pricer(machine_.cost());
  CountingEngine engine(&pricer);
  charge_copy_step(of(empty_a), of(empty_b), 8, engine);
  charge_assign_step(of(empty_a), {of(empty_b)}, {8}, {0}, 8, 2, engine);
  const StepStats none = pricer.price("empty");
  EXPECT_EQ(none.messages, 0);
  EXPECT_EQ(none.flops, 0);
  EXPECT_EQ(pricer.local_reads(), 0);
  EXPECT_TRUE(pricer.compute_rows().empty());

  // Size 1 on both sides, and a size-1 leaf broadcast over a whole LHS.
  for (Index1 i = 1; i <= 16; ++i) {
    SCOPED_TRACE(cat("element ", i));
    const LayoutView one_a(block, {Triplet::single(i)});
    const LayoutView one_b(rep, {Triplet::single(17 - i)});
    EXPECT_EQ(pair_sums(one_a.table(), one_b.table()),
              ref_pair_sums(one_a.table(), one_b.table()));
    for (const Distribution* lhs : {&block, &rep}) {
      const LayoutView whole = LayoutView::whole(*lhs);
      const std::vector<LayoutView> leaves = {one_b, whole, one_a};
      const std::vector<char> posted = {0, 1, 0};
      StepPricer got(machine_.cost());
      StepPricer want(machine_.cost());
      CountingEngine ge(&got);
      CountingEngine we(&want);
      charge_assign_step(of(whole), of(leaves), std::vector<Extent>(3, 8),
                         posted, 8, 5, ge);
      ref_assign(whole, leaves, 8, posted, 8, 5, we);
      expect_same_pricing(got, want);
    }
  }
}

TEST_F(PairWalkProperty, ThousandsOfSetsTakeTheHashedRegime) {
  // The LayoutViewPool format: 2,048 distinct replicated sets over 64
  // processors, each used twice. Against BLOCK the dense matrix would hold
  // 2,048 x 64 counts for a 4,160-run walk, so the counts are hashed.
  constexpr Extent kNp = 64;
  constexpr Extent kDistinct = 2048;
  ProcessorSpace ps(kNp);
  const ProcessorRef q(ps.declare("Q", IndexDomain::of_extents({kNp})));
  Machine machine(kNp);
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
  const IndexDomain dom{Dim(2 * kDistinct)};
  const Distribution many = Distribution::formats(dom, {pairs}, q);
  const Distribution block =
      Distribution::formats(dom, {DistFormat::block()}, q);
  const LayoutView vm = LayoutView::whole(many);
  const LayoutView vb = LayoutView::whole(block);
  ASSERT_EQ(vm.table().sets.size(), static_cast<std::size_t>(kDistinct));
  EXPECT_FALSE(SetPairCounts(vm.table(), vb.table()).dense());
  EXPECT_FALSE(SetPairCounts(vb.table(), vm.table()).dense());
  // BLOCK against CYCLIC(1): 64 x 64 counts for a 4,160-run walk, dense.
  const Distribution cyclic =
      Distribution::formats(dom, {DistFormat::cyclic(1)}, q);
  EXPECT_TRUE(
      SetPairCounts(vb.table(), LayoutView::whole(cyclic).table()).dense());

  for (const auto& [from, to] : {std::pair(&many, &block),
                                 std::pair(&block, &many)}) {
    const LayoutView vf = LayoutView::whole(*from);
    const LayoutView vt = LayoutView::whole(*to);
    EXPECT_EQ(pair_sums(vf.table(), vt.table()),
              ref_pair_sums(vf.table(), vt.table()));
    StepPricer got(machine.cost());
    StepPricer want(machine.cost());
    CountingEngine ge(&got);
    CountingEngine we(&want);
    MemoryDeltaFold got_fold;
    MemoryDeltaFold want_fold;
    charge_remap_step(*from, *to, 8, ge, &got_fold);
    ref_remap(*from, *to, 8, we, want_fold);
    expect_same_pricing(got, want);
    EXPECT_TRUE(same_ops(got_fold.ops(), want_fold.ops()));

    StepPricer got_a(machine.cost());
    StepPricer want_a(machine.cost());
    CountingEngine ga(&got_a);
    CountingEngine wa(&want_a);
    const std::vector<LayoutView> leaves = {vt, vf};
    charge_assign_step(of(vf), of(leaves), {8, 8}, {1, 0}, 8, 2, ga);
    ref_assign(vf, leaves, 8, {1, 0}, 8, 2, wa);
    expect_same_pricing(got_a, want_a);
  }
}

}  // namespace
}  // namespace hpfnt
