// The shared charge walks (exec/pricing.hpp) charge once per distinct
// owner-set pair, with the pair's element count from the per-dimension
// pair counts of core/pair_counts.hpp, for every payload kind:
//
//   * exact engine-call counts: a remap or an assign leaf makes at most one
//     call per (set, set) pair, however many segments the pair covers;
//   * a golden of the remap_cold sequence's StepStats and memory gauges,
//     fixed before the walks aggregated, so the summed charges are shown to
//     price exactly as the per-segment ones did — and neither that sequence
//     nor one with aligned, orphaned and section-view payloads builds a run
//     table;
//   * property tests against a test-local per-segment reference over run
//     tables built element by element from the definitions: the pair
//     counts, per-set counts, priced stats and folded memory rows of random
//     formats, alignments, section views and chains of them, sections and
//     arrangements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
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

/// Walks two run tables over the same linear position space in lock step,
/// calling fn(begin, count, id_a, id_b) once per maximal segment on which
/// both owner sets are constant; id_a and id_b are the two runs' set ids.
/// The reference for the pair counts, kept here since the library no
/// longer walks tables.
template <typename Fn>
void for_each_common_segment_ids(const RunTable& a, const RunTable& b,
                                 Fn&& fn) {
  const Extent total = a.section_domain.size();
  ASSERT_EQ(total, b.section_domain.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  Extent pos = 0;
  while (pos < total) {
    const OwnerRun& ra = a.runs[ia];
    const OwnerRun& rb = b.runs[ib];
    const Extent end_a = ra.begin + ra.count;
    const Extent end_b = rb.begin + rb.count;
    const Extent end = std::min(end_a, end_b);
    fn(pos, end - pos, ra.set, rb.set);
    pos = end;
    if (pos == end_a) ++ia;
    if (pos == end_b) ++ib;
  }
}

/// for_each_common_segment_ids with the pooled sets in place of the ids.
template <typename Fn>
void for_each_common_segment(const RunTable& a, const RunTable& b, Fn&& fn) {
  for_each_common_segment_ids(a, b, [&](Extent begin, Extent count,
                                        std::uint32_t ia, std::uint32_t ib) {
    fn(begin, count, a.sets[ia], b.sets[ib]);
  });
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

/// Every payload `dist` is built on: itself, and (transitively) the base
/// of an alignment or the parent of a section view.
void collect_payloads(const Distribution& dist,
                      std::vector<Distribution>& out) {
  out.push_back(dist);
  if (dist.kind() == Distribution::Kind::kConstructed) {
    collect_payloads(dist.base(), out);
  } else if (dist.kind() == Distribution::Kind::kSectionView) {
    collect_payloads(dist.section_parent(), out);
  }
}

TEST(ChargeWalkGolden, EveryPayloadKindPricesWithoutARunTable) {
  // An array aligned by a clamping offset, one aligned through a MAX
  // subscript, an array orphaned by a REALIGN of its base, and the
  // section-view dummy of a CALL inheriting a section of an aligned actual:
  // creation, assigns, the call's copies and the remaps all count from the
  // payloads' per-dimension normal form, so no payload (nor any base or
  // parent beneath one) memoizes a run table.
  Machine machine(8);
  ProcessorSpace space(8);
  DataEnv env(space);
  ProgramState state(machine);
  const ProcessorRef q(space.declare("Q", IndexDomain::of_extents({8})));
  const IndexDomain dom{Dim(64)};
  DistArray& a = env.real("A", dom);
  DistArray& b = env.real("B", dom);
  DistArray& c = env.real("C", dom);
  DistArray& d = env.real("D", dom);
  DistArray& e = env.real("E", dom);
  DistArray& f = env.real("F", dom);
  env.distribute(a, {DistFormat::cyclic(2)}, q);
  env.distribute(e, {DistFormat::block()}, q);
  env.distribute(f, {DistFormat::cyclic(3)}, q);
  env.dynamic(a);
  env.dynamic(f);
  auto align = [&](DistArray& alignee, DistArray& base, AlignExpr expr) {
    env.align(alignee, base,
              AlignSpec({AligneeSub::dummy(0, "I")},
                        {BaseSub::of_expr(std::move(expr))}));
  };
  align(b, a, AlignExpr::dummy(0) + 5);  // B(60:64) clamp to A(64)
  align(c, a, AlignExpr::max(AlignExpr::dummy(0) * 2 - 40,
                             AlignExpr::constant(1)));
  align(d, f, AlignExpr::dummy(0) * -1 + 65);
  for (DistArray* x : {&a, &b, &c, &d, &e, &f}) state.create(env, *x);

  std::vector<Distribution> payloads;
  auto note = [&](const Distribution& dist) { collect_payloads(dist, payloads); };
  // REALIGN F WITH E orphans D: it keeps CONSTRUCT(α, δ_F) of the old F.
  const RemapEvent realigned = env.realign(f, e, AlignSpec::colons(1));
  note(realigned.from);
  note(realigned.to);
  apply_remaps(state, env, {realigned});
  ASSERT_TRUE(env.is_primary(d));
  ASSERT_EQ(env.distribution_of(d).kind(), Distribution::Kind::kConstructed);

  assign(state, env, b, SecExpr::whole(a) + 1.0, "B");
  assign(state, env, c, SecExpr::whole(d) * 2.0, "C");
  assign(state, env, d, {Triplet(1, 32)},
         SecExpr::section(b, {Triplet(33, 64)}) + SecExpr::section(c, {Triplet(64, 2, -2)}),
         "D");

  ProcedureSig sub{"SUB", {DummySpec{"X", ElemType::kReal,
                                     DummyMapping::inherit(), false}}};
  CallFrame frame =
      env.call(sub, {ActualArg::of_section(c.id(), {Triplet(3, 61, 2)})});
  enter_call(state, env, frame);
  const DistArray& x = frame.callee->find("X");
  ASSERT_EQ(state.layout(x.id()).kind(), Distribution::Kind::kSectionView);
  assign(state, *frame.callee, x, SecExpr::whole(x) * 2.0, "X");
  note(state.layout(x.id()));
  for (const BoundArg& arg : frame.args) {
    note(arg.inherited);
    note(arg.entry);
  }
  exit_call(state, env, frame);

  // REDISTRIBUTE A: B and C follow (§4.2), constructed to constructed.
  const std::vector<RemapEvent> events =
      env.redistribute(a, {DistFormat::block()}, q);
  ASSERT_EQ(events.size(), 3u);
  for (const RemapEvent& ev : events) {
    note(ev.from);
    note(ev.to);
  }
  apply_remaps(state, env, events);
  assign(state, env, a, SecExpr::whole(b) + SecExpr::whole(c), "A");

  for (const DistArray* arr : {&a, &b, &c, &d, &e, &f}) {
    note(env.distribution_of(*arr));
    note(state.layout(arr->id()));
  }
  bool aligned = false;
  bool view = false;
  for (const Distribution& p : payloads) {
    aligned |= p.kind() == Distribution::Kind::kConstructed &&
               !p.alignment().is_identity();
    view |= p.kind() == Distribution::Kind::kSectionView;
  }
  EXPECT_TRUE(aligned);
  EXPECT_TRUE(view);
  for (std::size_t k = 0; k < payloads.size(); ++k) {
    SCOPED_TRACE(cat("payload ", k, ": ", payloads[k].to_string()));
    EXPECT_EQ(payloads[k].run_memo().whole_table(), nullptr);
    EXPECT_EQ(payloads[k].run_memo().size(), 0u);
  }
}

// --- the pair walk against a per-segment reference ---------------------------

/// δ(i) evaluated straight from the definitions, one element at a time:
/// owners_uncached for a formats payload, Definition 4's union over α's
/// images for an alignment, and the parent's index for a section view. It
/// shares no code with the library's per-dimension algebra.
OwnerSet ref_owners(const Distribution& dist, const IndexTuple& index) {
  switch (dist.kind()) {
    case Distribution::Kind::kFormats:
      return dist.owners_uncached(index);
    case Distribution::Kind::kSectionView: {
      const Distribution& parent = dist.section_parent();
      return ref_owners(parent, parent.domain().section_parent_index(
                                    dist.section_triplets(), index));
    }
    case Distribution::Kind::kConstructed:
      break;
  }
  OwnerSet out;
  dist.alignment().for_each_image(index, [&](const IndexTuple& j) {
    for (ApId p : ref_owners(dist.base(), j)) {
      if (!owner_set_contains(out, p)) out.push_back(p);
    }
  });
  return out;
}

/// The run table of `section` built from ref_owners element by element in
/// Fortran order, runs cut at every row: the reference the algebra is
/// checked against.
RunTable element_table(const Distribution& dist,
                       const std::vector<Triplet>& section) {
  RunTable out;
  out.section_domain = dist.domain().section_domain(section);
  auto add = [&](Extent pos, bool row_start, const OwnerSet& owners) {
    std::uint32_t id = 0;
    while (id < out.sets.size() && out.sets[id] != owners) ++id;
    if (id == out.sets.size()) out.sets.push_back(owners);
    if (!row_start && out.runs.back().set == id) {
      ++out.runs.back().count;
    } else {
      out.runs.push_back({pos, 1, id});
    }
  };
  if (section.empty()) {
    add(0, true, ref_owners(dist, IndexTuple{}));
    return out;
  }
  const Extent row = section[0].size();
  for (Extent k = 0; k < out.section_domain.size(); ++k) {
    add(k, k % row == 0,
        ref_owners(dist, dist.domain().section_parent_index(
                             section, out.section_domain.delinearize(k))));
  }
  return out;
}

RunTable element_table(const LayoutView& view) {
  return element_table(view.distribution(), view.section());
}

std::vector<RunTable> element_tables(const std::vector<LayoutView>& views) {
  std::vector<RunTable> out;
  for (const LayoutView& v : views) out.push_back(element_table(v));
  return out;
}

// The per-segment charge walks the pair walks replaced, kept here as the
// reference: one engine call per common segment.

template <class Engine>
void ref_assign(const RunTable& lhs, const std::vector<RunTable>& leaves,
                Extent bytes, const std::vector<char>& posted,
                Extent elem_bytes, Extent flops, Engine& engine) {
  auto charge_reads = [&](Extent count, const OwnerSet& lhs_owners,
                          const OwnerSet& leaf_owners) {
    const ApId p = min_owner(lhs_owners);
    if (owner_set_contains(leaf_owners, p)) {
      engine.count_local_reads(count);
    } else {
      engine.transfer_block(min_owner(leaf_owners), p, bytes, count);
    }
  };
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const RunTable& leaf = leaves[l];
    if (leaf.section_domain.size() != lhs.section_domain.size()) {
      const OwnerSet& leaf_owners = leaf.owners(leaf.runs.front());
      for (const OwnerRun& r : lhs.runs) {
        charge_reads(r.count, lhs.owners(r), leaf_owners);
      }
      continue;
    }
    if (posted[l]) engine.begin_posted();
    for_each_common_segment(
        lhs, leaf,
        [&](Extent, Extent count, const OwnerSet& a, const OwnerSet& b) {
          charge_reads(count, a, b);
        });
    if (posted[l]) engine.end_posted();
  }
  for (const OwnerRun& r : lhs.runs) {
    const OwnerSet& owners = lhs.owners(r);
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
  for_each_common_segment(
      element_table(from, from.domain().dims()),
      element_table(to, to.domain().dims()),
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
void ref_copy(const RunTable& dst, const RunTable& src, Extent elem_bytes,
              Engine& engine) {
  for_each_common_segment(
      dst, src,
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

/// A set's members in pool order: two ids holding this same list are one
/// set interned twice.
std::vector<ApId> raw_members(const OwnerSet& set) {
  return std::vector<ApId>(set.begin(), set.end());
}

/// A set's members, sorted: the reference lists a union's owners in the
/// order it meets them, and a pool may hold one set in two orders (a
/// user format lists its owners in its own order).
std::vector<ApId> members(const OwnerSet& set) {
  std::vector<ApId> out = raw_members(set);
  std::sort(out.begin(), out.end());
  return out;
}

/// The two tables' walk size: the adds a per-segment walk of them makes
/// at most.
std::size_t walk_of(const RunTable& a, const RunTable& b) {
  return a.runs.size() + b.runs.size();
}

/// Per-pair sums as SetPairCounts emits them over two tables' common
/// segments; also checks that each pair comes once, in ascending id order.
std::map<SetKey, Extent> pair_sums(const RunTable& a, const RunTable& b) {
  std::map<SetKey, Extent> out;
  std::set<SetKey> emitted;
  std::pair<std::int64_t, std::int64_t> last(-1, -1);
  SetPairCounts counts(a.sets.size(), b.sets.size(), walk_of(a, b));
  for_each_common_segment_ids(
      a, b, [&](Extent, Extent count, std::uint32_t ia, std::uint32_t ib) {
        counts.add(ia, ib, count);
      });
  counts.for_each([&](Extent count, std::uint32_t ia, std::uint32_t ib) {
    const std::pair<std::int64_t, std::int64_t> ids(ia, ib);
    EXPECT_LT(last, ids) << "pairs out of id order";
    last = ids;
    EXPECT_GT(count, 0);
    EXPECT_TRUE(emitted
                    .emplace(raw_members(a.sets[ia]), raw_members(b.sets[ib]))
                    .second)
        << "pair emitted twice";
    out[SetKey(members(a.sets[ia]), members(b.sets[ib]))] += count;
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
  std::set<SetKey> emitted;
  pairs.for_each([&](Extent count, const OwnerSet& sa, const OwnerSet& sb) {
    EXPECT_GT(count, 0);
    EXPECT_TRUE(emitted.emplace(raw_members(sa), raw_members(sb)).second)
        << "pair emitted twice";
    out[SetKey(members(sa), members(sb))] += count;
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
  std::set<std::vector<ApId>> pooled;
  const SectionCounts counts(dist, section);
  for (std::size_t i = 0; i < counts.sets().size(); ++i) {
    EXPECT_GT(counts.counts()[i], 0);
    EXPECT_TRUE(pooled.insert(raw_members(counts.sets()[i])).second)
        << "set pooled twice";
    out[members(counts.sets()[i])] += counts.counts()[i];
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

/// The two tables hold equal owner sets at every position (the library's
/// table against the element-by-element reference).
void expect_same_positions(const RunTable& got, const RunTable& want) {
  ASSERT_EQ(got.section_domain.size(), want.section_domain.size());
  for_each_common_segment(
      got, want,
      [&](Extent begin, Extent, const OwnerSet& g, const OwnerSet& w) {
        EXPECT_EQ(members(g), members(w)) << "position " << begin;
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

  /// random_section, rebased half the time onto a 1-based domain, as a
  /// dummy's domain is (only such a domain can be a section view's).
  static std::pair<IndexDomain, std::vector<Triplet>> random_side(
      Rng& rng, const std::vector<Extent>& shape) {
    auto [dom, section] = random_section(rng, shape);
    if (rng.uniform(0, 1) == 0) return {std::move(dom), std::move(section)};
    std::vector<Triplet> dims;
    for (int d = 0; d < dom.rank(); ++d) {
      const Index1 shift = 1 - dom.lower(d);
      dims.emplace_back(1, dom.extent(d));
      Triplet& t = section[static_cast<std::size_t>(d)];
      t = Triplet(t.lower() + shift, t.upper() + shift, t.stride());
    }
    return {IndexDomain(std::move(dims)), std::move(section)};
  }

  /// A random alignment of `alignee` onto `base`: each base dimension is
  /// replicated, a fixed index that may clamp, or fed by an alignee
  /// dimension no other base dimension uses (§5.1) through a·J + b, a =
  /// ±1 or ±2, with an offset that may clamp at either end, sometimes under
  /// MAX or MIN. Alignee dimensions left unused are collapsed. One in six
  /// is the identity when the extents allow it.
  static AlignmentFunction random_alignment(Rng& rng,
                                            const IndexDomain& alignee,
                                            const IndexDomain& base) {
    bool same_extents = alignee.rank() == base.rank();
    for (int d = 0; same_extents && d < base.rank(); ++d) {
      same_extents = alignee.extent(d) == base.extent(d);
    }
    if (same_extents && rng.uniform(0, 5) == 0) {
      return AlignmentFunction::identity(alignee, base);
    }
    std::vector<int> unused;
    for (int i = 0; i < alignee.rank(); ++i) unused.push_back(i);
    std::vector<AlignmentFunction::BaseDim> dims(
        static_cast<std::size_t>(base.rank()));
    for (int j = 0; j < base.rank(); ++j) {
      AlignmentFunction::BaseDim& bd = dims[static_cast<std::size_t>(j)];
      const Extent pick = rng.uniform(0, 5);
      if (pick == 0 || (unused.empty() && pick >= 2)) {
        bd.kind = AlignmentFunction::BaseDim::Kind::kReplicated;
        continue;
      }
      if (pick == 1) {
        bd.kind = AlignmentFunction::BaseDim::Kind::kConst;
        bd.constant = rng.uniform(base.lower(j) - 3, base.upper(j) + 3);
        continue;
      }
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform(0, static_cast<Extent>(unused.size()) - 1));
      const int i = unused[k];
      unused.erase(unused.begin() + static_cast<std::ptrdiff_t>(k));
      Index1 a = rng.uniform(1, 2);
      if (rng.uniform(0, 1) == 1) a = -a;
      // Start near the bound the images start from, off by up to 8 either
      // way, so either end may clamp.
      const Index1 start = a > 0 ? alignee.lower(i) : alignee.upper(i);
      const Index1 b = base.lower(j) - a * start + rng.uniform(-8, 8);
      bd.kind = AlignmentFunction::BaseDim::Kind::kExpr;
      bd.alignee_dim = i;
      bd.expr = AlignExpr::dummy(i) * a + b;
      switch (rng.uniform(0, 3)) {
        case 0:
          bd.expr = AlignExpr::max(
              bd.expr, AlignExpr::constant(base.lower(j) + rng.uniform(0, 8)));
          break;
        case 1:
          bd.expr = AlignExpr::min(
              bd.expr, AlignExpr::constant(base.upper(j) - rng.uniform(0, 8)));
          break;
        default:
          break;
      }
    }
    return AlignmentFunction(alignee, base, std::move(dims));
  }

  /// A random payload over `dom`: a formats layout, or (depth > 0) an
  /// array aligned to a random payload of a random base domain, or — over
  /// a 1-based domain — a section view of a random payload.
  Distribution random_payload(Rng& rng, const IndexDomain& dom, int depth) {
    bool one_based = true;
    for (int d = 0; d < dom.rank(); ++d) one_based &= dom.lower(d) == 1;
    const Extent pick = depth == 0 ? 0 : rng.uniform(0, one_based ? 2 : 1);
    if (pick == 0) return random_formats(rng, dom);
    if (pick == 1) {
      std::vector<Triplet> dims;
      const bool alike = rng.uniform(0, 2) == 0;  // room for the identity
      const int rank =
          alike ? dom.rank() : static_cast<int>(rng.uniform(1, 3));
      for (int d = 0; d < rank; ++d) {
        const Index1 lo = rng.uniform(-3, 3);
        const Extent n = alike ? dom.extent(d) : rng.uniform(1, 12);
        dims.emplace_back(lo, lo + n - 1);
      }
      const IndexDomain base_dom(std::move(dims));
      return Distribution::constructed(random_alignment(rng, dom, base_dom),
                                       random_payload(rng, base_dom, depth - 1));
    }
    // The view's dimension d is a triplet of stride ±1 or ±2 inside a
    // parent dimension a little wider than it spans.
    std::vector<Triplet> parent_dims;
    std::vector<Triplet> restriction;
    for (int d = 0; d < dom.rank(); ++d) {
      const Extent n = dom.extent(d);
      const Index1 step = rng.uniform(1, 2);
      const Extent span = (n - 1) * step + 1;
      const Index1 lo = rng.uniform(-3, 3);
      const Extent m = span + rng.uniform(0, 4);
      parent_dims.emplace_back(lo, lo + m - 1);
      const Index1 first = lo + rng.uniform(0, m - span);
      restriction.push_back(rng.uniform(0, 1) == 0
                                ? Triplet(first, first + span - 1, step)
                                : Triplet(first + span - 1, first, -step));
    }
    const IndexDomain parent_dom(std::move(parent_dims));
    return Distribution::section_view(random_payload(rng, parent_dom, depth - 1),
                                      std::move(restriction));
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
    const RunTable ta = element_table(va);
    const RunTable tb = element_table(vb);
    EXPECT_EQ(pair_sums(va.table(), vb.table()), ref_pair_sums(ta, tb));
    {
      SCOPED_TRACE("copy");
      StepPricer got(machine_.cost());
      StepPricer want(machine_.cost());
      CountingEngine ge(&got);
      CountingEngine we(&want);
      charge_copy_step(of(va), of(vb), 8, ge);
      ref_copy(ta, tb, 8, we);
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
      ref_assign(ta, element_tables(leaves), 4, posted, 8, 3, we);
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
    ++(PairCounts(of(va), of(vb)).dense() ? dense : hashed);
    check_pair(a, b);
  }
  // Replicated sets make pools large enough for the hashed regime.
  EXPECT_GT(dense, 0);
  EXPECT_GT(hashed, 0);
}

TEST_F(PairWalkProperty, RandomSectionsMatchThePerSegmentWalks) {
  // Conforming sections of two random payloads, ranks 1-3, over
  // arrangements of different shapes: formats layouts, arrays aligned to
  // them (clamping offsets, strides of ±1/±2, permutations, fixed and
  // replicated base dimensions, MAX/MIN subscripts, collapsed alignee
  // dimensions), section views, and chains of these — views of views,
  // views of aligned arrays, arrays aligned to views. The per-dimension
  // pair counts, the per-set counts, the charges, the position-order
  // memory fold and the library's run tables equal those of tables built
  // element by element from the definitions.
  Rng rng(1993);
  std::map<std::pair<int, int>, int> kinds;  // (kind a, kind b) -> trials
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE(cat("trial ", trial));
    std::vector<Extent> shape(static_cast<std::size_t>(rng.uniform(0, 3)));
    // Long rank-1 sections let whole CYCLIC periods fit inside a block.
    const Extent widest[] = {0, 60, 15, 7};
    for (Extent& e : shape) e = rng.uniform(2, widest[shape.size()]);
    const auto [dom_a, sec_a] = random_side(rng, shape);
    const auto [dom_b, sec_b] = random_side(rng, shape);
    const Distribution a = random_payload(rng, dom_a, 2);
    const Distribution b = random_payload(rng, dom_b, 2);
    SCOPED_TRACE(cat(a.to_string(), " x ", b.to_string()));
    ++kinds[{static_cast<int>(a.kind()), static_cast<int>(b.kind())}];
    const MappedSection ma{&a, &sec_a};
    const MappedSection mb{&b, &sec_b};
    const RunTable ta = element_table(a, sec_a);
    const RunTable tb = element_table(b, sec_b);

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
    expect_same_positions(va.table(), ta);
    expect_same_positions(LayoutView::compute(b, sec_b), tb);
    {
      SCOPED_TRACE("copy");
      StepPricer got(machine_.cost());
      StepPricer want(machine_.cost());
      CountingEngine ge(&got);
      CountingEngine we(&want);
      charge_copy_step(ma, mb, 8, ge);
      ref_copy(ta, tb, 8, we);
      expect_same_pricing(got, want);
    }
    {
      SCOPED_TRACE("assign");
      // b's section, a's own, and one element of b broadcast.
      const auto [dom_one, sec_one] = random_side(rng, {});
      const Distribution one = random_payload(rng, dom_one, 1);
      const std::vector<LayoutView> leaves = {vb, va,
                                              LayoutView(one, sec_one)};
      const std::vector<char> posted = {1, 0, 0};
      StepPricer got(machine_.cost());
      StepPricer want(machine_.cost());
      CountingEngine ge(&got);
      CountingEngine we(&want);
      const Extent queries = charge_assign_step(
          ma, of(leaves), std::vector<Extent>(3, 4), posted, 8, 3, ge);
      ref_assign(ta, {tb, ta, element_table(leaves[2])}, 4, posted, 8, 3, we);
      expect_same_pricing(got, want);
      EXPECT_GT(queries, 0);
    }
    {
      SCOPED_TRACE("remap");
      const Distribution to = random_payload(rng, dom_a, 1);
      SCOPED_TRACE(to.to_string());
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
  // Every kind meets every kind.
  for (int ka = 0; ka < 3; ++ka) {
    for (int kb = 0; kb < 3; ++kb) {
      EXPECT_GT((kinds[{ka, kb}]), 0) << "kinds " << ka << " x " << kb;
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
              ref_pair_sums(element_table(one_a), element_table(one_b)));
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
      ref_assign(element_table(whole), element_tables(leaves), 8, posted, 8,
                 5, we);
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
  EXPECT_FALSE(PairCounts(of(vm), of(vb)).dense());
  EXPECT_FALSE(PairCounts(of(vb), of(vm)).dense());
  // BLOCK against CYCLIC(1): 64 x 64 counts for a 4,160-run walk, dense.
  const Distribution cyclic =
      Distribution::formats(dom, {DistFormat::cyclic(1)}, q);
  const LayoutView vc = LayoutView::whole(cyclic);
  EXPECT_TRUE(SetPairCounts(vb.table().sets.size(), vc.table().sets.size(),
                            walk_of(vb.table(), vc.table()))
                  .dense());

  for (const auto& [from, to] : {std::pair(&many, &block),
                                 std::pair(&block, &many)}) {
    const LayoutView vf = LayoutView::whole(*from);
    const LayoutView vt = LayoutView::whole(*to);
    EXPECT_EQ(pair_sums(vf.table(), vt.table()),
              ref_pair_sums(element_table(vf), element_table(vt)));
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
    ref_assign(element_table(vf), element_tables(leaves), 8, {1, 0}, 8, 2,
               wa);
    expect_same_pricing(got_a, want_a);
  }
}

}  // namespace
}  // namespace hpfnt
