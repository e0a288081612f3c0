#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/comm_plan.hpp"
#include "machine/comm.hpp"
#include "machine/memory.hpp"
#include "machine/metrics.hpp"
#include "machine/topology.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hpfnt {
namespace {

TEST(Machine, CostModelIsLinear) {
  CostParams c;
  c.alpha_us = 100.0;
  c.beta_us_per_byte = 0.5;
  EXPECT_DOUBLE_EQ(c.message_us(0), 100.0);
  EXPECT_DOUBLE_EQ(c.message_us(200), 200.0);
}

TEST(Machine, RejectsNonPositiveProcessorCount) {
  EXPECT_THROW(Machine(0), ConformanceError);
  EXPECT_NO_THROW(Machine(1));
}

TEST(CommEngine, BatchesPairsIntoMessages) {
  Machine m(4);
  CommEngine comm(m);
  comm.begin_step("test");
  comm.transfer(0, 1, 8);
  comm.transfer(0, 1, 8);   // same pair: rides the same message
  comm.transfer(0, 2, 8);   // second pair
  comm.transfer(1, 0, 8);   // direction matters: third pair
  StepStats s = comm.end_step();
  EXPECT_EQ(s.messages, 3);
  EXPECT_EQ(s.bytes, 32);
  EXPECT_EQ(s.element_transfers, 4);
}

TEST(CommEngine, LocalTransfersAreFree) {
  Machine m(4);
  CommEngine comm(m);
  comm.begin_step("local");
  comm.transfer(2, 2, 8);
  StepStats s = comm.end_step();
  EXPECT_EQ(s.messages, 0);
  EXPECT_EQ(s.bytes, 0);
  EXPECT_EQ(comm.local_reads(), 1);
}

TEST(CommEngine, TimeIsBspMax) {
  CostParams c;
  c.alpha_us = 10.0;
  c.beta_us_per_byte = 1.0;
  c.flop_us = 0.0;
  Machine m(4, c);
  CommEngine comm(m);
  // Processor 0 sends to 1 and 2 (two messages of 8B each = 2*(10+8)=36us),
  // processor 3 sends one 8B message (18us). Bound = 36us.
  comm.begin_step("bsp");
  comm.transfer(0, 1, 8);
  comm.transfer(0, 2, 8);
  comm.transfer(3, 1, 8);
  StepStats s = comm.end_step();
  // Receiver 1 gets two messages (18+18=36) as well.
  EXPECT_DOUBLE_EQ(s.time_us, 36.0);
}

TEST(CommEngine, ComputeAddsToStepTime) {
  CostParams c;
  c.alpha_us = 0.0;
  c.beta_us_per_byte = 0.0;
  c.flop_us = 2.0;
  Machine m(2, c);
  CommEngine comm(m);
  comm.begin_step("compute");
  comm.compute(0, 5);
  comm.compute(1, 3);
  StepStats s = comm.end_step();
  EXPECT_DOUBLE_EQ(s.time_us, 10.0);  // max over processors
  EXPECT_EQ(s.flops, 8);
}

TEST(CommEngine, TotalsAccumulateAndReset) {
  Machine m(4);
  CommEngine comm(m);
  comm.begin_step("a");
  comm.transfer(0, 1, 8);
  comm.end_step();
  comm.begin_step("b");
  comm.transfer(1, 2, 16);
  comm.end_step();
  EXPECT_EQ(comm.total_messages(), 2);
  EXPECT_EQ(comm.total_bytes(), 24);
  comm.reset();
  EXPECT_EQ(comm.total_messages(), 0);
  EXPECT_EQ(comm.total_bytes(), 0);
}

TEST(CommEngine, StepDisciplineEnforced) {
  Machine m(2);
  CommEngine comm(m);
  EXPECT_THROW(comm.transfer(0, 1, 8), InternalError);
  EXPECT_THROW(comm.end_step(), InternalError);
  comm.begin_step("open");
  EXPECT_THROW(comm.begin_step("nested"), InternalError);
  comm.end_step();
}

TEST(CommEngine, StepStatsStringKeepsGoldenFormatWhenSync) {
  // Satellite regression: golden strings recorded before split-phase
  // pricing must survive verbatim for purely synchronous steps.
  StepStats s;
  s.label = "step";
  s.messages = 2;
  s.bytes = 16;
  s.element_transfers = 2;
  s.flops = 4;
  s.time_us = 36.0;
  EXPECT_EQ(s.to_string(),
            "step: msgs=2 bytes=16 transfers=2 flops=4 time=36us");
  s.hidden_comm_us = 10.0;
  s.exposed_comm_us = 8.0;
  EXPECT_EQ(s.to_string(),
            "step: msgs=2 bytes=16 transfers=2 flops=4 time=36us "
            "exposed=8us hidden=10us");
}

TEST(SplitPhase, PostedCommOverlapsCompute) {
  CostParams c;
  c.alpha_us = 10.0;
  c.beta_us_per_byte = 1.0;
  c.flop_us = 2.0;
  Machine m(4, c);
  CommEngine comm(m);
  comm.begin_step("overlap");
  comm.begin_posted();
  comm.transfer(0, 1, 8);  // V = 18us, lands in a shadow region
  comm.end_posted();
  comm.compute(0, 5);      // C = 10us
  comm.transfer(2, 3, 8);  // X = 18us, must complete before compute
  StepStats s = comm.end_step();
  EXPECT_DOUBLE_EQ(s.time_us, 36.0);  // max(10, 18) + 18
  EXPECT_DOUBLE_EQ(s.hidden_comm_us, 10.0);
  EXPECT_DOUBLE_EQ(s.exposed_comm_us, 8.0);
  EXPECT_EQ(s.messages, 2);
  EXPECT_EQ(s.bytes, 16);
  EXPECT_DOUBLE_EQ(comm.total_hidden_comm_us(), 10.0);
  EXPECT_DOUBLE_EQ(comm.total_exposed_comm_us(), 8.0);
  comm.reset();
  EXPECT_DOUBLE_EQ(comm.total_hidden_comm_us(), 0.0);
  EXPECT_DOUBLE_EQ(comm.total_exposed_comm_us(), 0.0);
}

TEST(SplitPhase, FullyHiddenPostedCommCostsNothingExtra) {
  CostParams c;
  c.alpha_us = 10.0;
  c.beta_us_per_byte = 1.0;
  c.flop_us = 2.0;
  Machine m(4, c);
  CommEngine comm(m);
  comm.begin_step("hidden");
  comm.begin_posted();
  comm.transfer(0, 1, 8);  // V = 18us
  comm.end_posted();
  comm.compute(0, 20);     // C = 40us swallows the posted exchange
  StepStats s = comm.end_step();
  EXPECT_DOUBLE_EQ(s.time_us, 40.0);
  EXPECT_DOUBLE_EQ(s.hidden_comm_us, 18.0);
  EXPECT_DOUBLE_EQ(s.exposed_comm_us, 0.0);
}

TEST(SplitPhase, ZeroPostedCollapsesToSyncPricing) {
  // The differential oracle: a step with an empty posted phase prices
  // byte-identically to one that never opened a posted phase at all.
  CostParams c;
  c.alpha_us = 10.0;
  c.beta_us_per_byte = 1.0;
  c.flop_us = 2.0;
  Machine m(4, c);
  CommEngine with(m);
  with.begin_step("s");
  with.begin_posted();
  with.end_posted();
  with.transfer(0, 1, 8);
  with.compute(0, 5);
  StepStats a = with.end_step();
  CommEngine without(m);
  without.begin_step("s");
  without.transfer(0, 1, 8);
  without.compute(0, 5);
  StepStats b = without.end_step();
  EXPECT_EQ(a.time_us, b.time_us);  // exact, not approximate
  EXPECT_DOUBLE_EQ(a.time_us, 28.0);  // C + X = 10 + 18
  EXPECT_DOUBLE_EQ(a.exposed_comm_us, 0.0);
  EXPECT_DOUBLE_EQ(a.hidden_comm_us, 0.0);
}

TEST(SplitPhase, SamePairInBothPhasesCarriesTwoMessages) {
  CostParams c;
  c.alpha_us = 10.0;
  c.beta_us_per_byte = 1.0;
  c.flop_us = 0.0;
  Machine m(4, c);
  CommEngine comm(m);
  comm.begin_step("two-phase-pair");
  comm.transfer(0, 1, 8);
  comm.begin_posted();
  comm.transfer(0, 1, 8);
  comm.end_posted();
  StepStats s = comm.end_step();
  // The posted message really is a separate message on the wire: the pair
  // pays alpha twice even though src/dst coincide.
  EXPECT_EQ(s.messages, 2);
  EXPECT_DOUBLE_EQ(s.time_us, 36.0);  // max(0, 18) + 18
}

TEST(SplitPhase, PostedPhaseDisciplineEnforced) {
  Machine m(2);
  CommEngine comm(m);
  EXPECT_THROW(comm.begin_posted(), InternalError);
  EXPECT_THROW(comm.end_posted(), InternalError);
  comm.begin_step("open");
  comm.begin_posted();
  EXPECT_THROW(comm.begin_posted(), InternalError);
  EXPECT_THROW(comm.end_step(), InternalError);
  comm.end_posted();
  EXPECT_THROW(comm.end_posted(), InternalError);
  comm.end_step();
}

TEST(SplitPhase, PostWaitReplaysBetweenSteps) {
  CostParams c;
  c.alpha_us = 10.0;
  c.beta_us_per_byte = 1.0;
  c.flop_us = 2.0;
  Machine m(4, c);
  CommEngine comm(m);
  auto plan = std::make_shared<CommPlan>();
  comm.begin_step("record");
  comm.record_into(plan);
  comm.begin_posted();
  comm.transfer(0, 1, 8);
  comm.end_posted();
  comm.compute(0, 5);
  StepStats recorded = comm.end_step();
  ASSERT_TRUE(plan->sealed);
  ASSERT_EQ(plan->flows.size(), 1u);
  EXPECT_TRUE(plan->flows[0].posted);

  comm.reset();
  comm.post(*plan);
  // Ordinary steps may run while the plan is in flight — that interleaving
  // is the point of posting.
  comm.begin_step("interior");
  comm.compute(1, 3);
  comm.end_step();
  StepStats waited = comm.wait(*plan, "waited");
  EXPECT_EQ(waited.label, "waited");
  EXPECT_EQ(waited.time_us, recorded.time_us);
  EXPECT_EQ(waited.hidden_comm_us, recorded.hidden_comm_us);
  EXPECT_EQ(comm.total_messages(), recorded.messages);
  EXPECT_DOUBLE_EQ(comm.total_hidden_comm_us(), recorded.hidden_comm_us);
}

TEST(SplitPhase, PostWaitDisciplineEnforced) {
  Machine m(2);
  CommEngine comm(m);
  auto plan = std::make_shared<CommPlan>();
  EXPECT_THROW(comm.post(*plan), InternalError);  // unsealed
  comm.begin_step("seal");
  comm.record_into(plan);
  comm.transfer(0, 1, 8);
  comm.end_step();

  auto other = std::make_shared<CommPlan>();
  comm.begin_step("seal-other");
  comm.record_into(other);
  comm.transfer(1, 0, 8);
  comm.end_step();

  EXPECT_THROW(comm.wait(*plan), InternalError);  // nothing posted
  comm.post(*plan);
  EXPECT_THROW(comm.post(*other), InternalError);  // one in flight at a time
  EXPECT_THROW(comm.wait(*other), InternalError);  // wrong plan
  EXPECT_THROW(comm.reset(), InternalError);       // pending post
  comm.wait(*plan);
  comm.post(*other);
  comm.wait(*other);
  comm.reset();
}

TEST(MemoryTracker, TracksPerProcessorBytes) {
  MemoryTracker mem(4);
  mem.allocate(0, 100);
  mem.allocate(0, 50);
  mem.allocate(2, 30);
  EXPECT_EQ(mem.bytes_on(0), 150);
  EXPECT_EQ(mem.bytes_on(1), 0);
  EXPECT_EQ(mem.total_bytes(), 180);
  EXPECT_EQ(mem.max_bytes(), 150);
  mem.release(0, 100);
  EXPECT_EQ(mem.bytes_on(0), 50);
  EXPECT_EQ(mem.peak_on(0), 150);
}

TEST(MemoryDeltaFold, FoldedRowsReproduceTheRawSequence) {
  // Random +/- delta streams over P processors, on top of a random
  // baseline (allocations then releases, so peaks sit above the bytes):
  // committing the fold must leave every bytes_on(p) and peak_on(p)
  // exactly where applying the raw stream in order does.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const Extent procs = rng.uniform(1, 9);
    MemoryTracker raw(procs);
    MemoryTracker folded(procs);
    for (ApId p = 0; p < procs; ++p) {
      const Extent base = rng.uniform(0, 500);
      const Extent freed = rng.uniform(0, base);
      for (MemoryTracker* mem : {&raw, &folded}) {
        mem->allocate(p, base);
        mem->release(p, freed);
      }
    }
    MemoryDeltaFold fold;
    const std::int64_t length = rng.uniform(0, 120);
    for (std::int64_t k = 0; k < length; ++k) {
      const auto p = static_cast<ApId>(rng.uniform(0, procs - 1));
      const Extent delta = rng.uniform(-300, 300);
      if (delta >= 0) {
        raw.allocate(p, delta);
      } else {
        raw.release(p, -delta);
      }
      fold.add(p, delta);
    }
    const std::vector<MemoryDelta> ops = fold.ops();
    EXPECT_LE(ops.size(), static_cast<std::size_t>(2 * procs));
    folded.apply(ops);
    for (ApId p = 0; p < procs; ++p) {
      EXPECT_EQ(folded.bytes_on(p), raw.bytes_on(p))
          << "seed " << seed << " proc " << p;
      EXPECT_EQ(folded.peak_on(p), raw.peak_on(p))
          << "seed " << seed << " proc " << p;
    }
  }
}

TEST(MemoryDeltaFold, EveryTouchedProcessorKeepsARow) {
  // A processor that only releases still names itself in the folded rows
  // (a zero allocate), so a plan's footprint sees every processor whose
  // memory the step changed.
  MemoryDeltaFold fold;
  fold.add(3, -40);
  fold.add(1, 24);
  fold.add(1, -24);
  fold.add(3, -8);
  const std::vector<MemoryDelta> ops = fold.ops();
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].p, 1);
  EXPECT_EQ(ops[0].delta, 24);
  EXPECT_EQ(ops[1].p, 1);
  EXPECT_EQ(ops[1].delta, -24);
  EXPECT_EQ(ops[2].p, 3);
  EXPECT_EQ(ops[2].delta, 0);
  EXPECT_EQ(ops[3].p, 3);
  EXPECT_EQ(ops[3].delta, -48);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  std::string out = t.to_string();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), InternalError);
}

TEST(Formatting, Units) {
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1500000), "1.50M");
  EXPECT_EQ(format_us(500.0), "500.0 us");
  EXPECT_EQ(format_us(2500.0), "2.50 ms");
  EXPECT_EQ(format_us(3200000.0), "3.200 s");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(format_ratio(1.875), "1.88x");
  EXPECT_EQ(format_pct(0.932), "93.2%");
}

}  // namespace
}  // namespace hpfnt
