// The fault-injected machine (src/fault/): the zero-fault differential
// oracle, deterministic retry pricing (cold == replay under the same seed),
// all-or-nothing exhaustion, sealed-plan purity, failure-set invalidation
// on BOTH cache levels, processor-loss recovery (replica / checkpoint /
// lost three-way), CHECKPOINT/RESTORE semantics, and the PlanService
// lookup-vs-fail_processor race the TSan CI job hammers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/layout_view.hpp"
#include "directives/interp.hpp"
#include "exec/comm_plan.hpp"
#include "exec/storage.hpp"
#include "fault/fault_model.hpp"
#include "fault/recovery.hpp"
#include "machine/comm.hpp"
#include "machine/topology.hpp"
#include "service/plan_service.hpp"
#include "support/error.hpp"

namespace hpfnt {
namespace {

using dir::Interpreter;

/// Byte-for-byte StepStats equality: every field, exact doubles. The
/// zero-fault guarantee is equality of the whole struct, not closeness.
void expect_identical(const StepStats& a, const StepStats& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.element_transfers, b.element_transfers);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.time_us, b.time_us);
  EXPECT_EQ(a.exposed_comm_us, b.exposed_comm_us);
  EXPECT_EQ(a.hidden_comm_us, b.hidden_comm_us);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retry_us, b.retry_us);
}

/// A session running a fixed Jacobi-flavoured workload: remap loop +
/// stencil assigns, enough traffic that a nonzero fault probability is
/// guaranteed to fire somewhere.
struct Session {
  Machine machine;
  ProcessorSpace space;
  ProgramState state;
  Interpreter interp;

  explicit Session(Extent procs = 8)
      : machine(procs), space(procs), state(machine), interp(space) {
    interp.set_state(&state);
  }

  void run_workload() {
    interp.run(
        "!HPF$ PROCESSORS P(8)\n"
        "REAL A(64), B(64)\n"
        "!HPF$ DYNAMIC A\n"
        "!HPF$ SHADOW A(1:1)\n"
        "!HPF$ SHADOW B(1:1)\n"
        "!HPF$ DISTRIBUTE A(BLOCK) TO P\n"
        "!HPF$ DISTRIBUTE B(BLOCK) TO P\n"
        "A(1:64) = 1\n"
        "B(2:63) = A(1:62) + A(3:64)\n"
        "!HPF$ REDISTRIBUTE A(CYCLIC)\n"
        "B(2:63) = A(1:62) + A(3:64)\n"
        "!HPF$ REDISTRIBUTE A(BLOCK)\n"
        "B(2:63) = A(1:62) + A(3:64)\n");
  }

  ArrayId id(const std::string& name) {
    return interp.env().find(name).id();
  }
};

// --- the zero-fault differential oracle -------------------------------------

TEST(FaultOracle, ZeroProbabilityConfigIsByteIdenticalToTheFaultFreeMachine) {
  Session plain;
  plain.run_workload();

  Session zeroed;
  zeroed.interp.run("FAULTS(12345, 0, 3)\n");  // configured but disabled
  zeroed.run_workload();

  ASSERT_EQ(plain.interp.steps().size(), zeroed.interp.steps().size());
  for (std::size_t i = 0; i < plain.interp.steps().size(); ++i) {
    expect_identical(plain.interp.steps()[i], zeroed.interp.steps()[i]);
  }
  EXPECT_EQ(plain.state.comm().total_time_us(),
            zeroed.state.comm().total_time_us());
  EXPECT_EQ(zeroed.state.comm().total_retries(), 0);
  EXPECT_EQ(zeroed.state.comm().total_retry_us(), 0.0);
  EXPECT_EQ(plain.state.checksum(plain.id("B")),
            zeroed.state.checksum(zeroed.id("B")));
}

TEST(FaultOracle, FaultsPerturbOnlyTheRetryFieldsAndTime) {
  Session plain;
  plain.run_workload();

  Session faulty;
  faulty.interp.run("FAULTS(7, 200, 50)\n");  // 20% per message, deep budget
  faulty.run_workload();

  ASSERT_EQ(plain.interp.steps().size(), faulty.interp.steps().size());
  Extent retries = 0;
  for (std::size_t i = 0; i < plain.interp.steps().size(); ++i) {
    const StepStats& p = plain.interp.steps()[i];
    const StepStats& f = faulty.interp.steps()[i];
    // The fault-free schedule is untouched: every base field matches...
    EXPECT_EQ(p.messages, f.messages);
    EXPECT_EQ(p.bytes, f.bytes);
    EXPECT_EQ(p.element_transfers, f.element_transfers);
    EXPECT_EQ(p.flops, f.flops);
    EXPECT_EQ(p.exposed_comm_us, f.exposed_comm_us);
    EXPECT_EQ(p.hidden_comm_us, f.hidden_comm_us);
    // ...and the retry charge is exactly the time delta.
    EXPECT_EQ(f.time_us, p.time_us + f.retry_us);
    retries += f.retries;
  }
  EXPECT_GT(retries, 0) << "20% over this much traffic must fault somewhere";
  EXPECT_EQ(faulty.state.comm().total_retries(), retries);
  // Values are unaffected: retries re-send, they do not corrupt.
  EXPECT_EQ(plain.state.checksum(plain.id("B")),
            faulty.state.checksum(faulty.id("B")));
}

TEST(FaultOracle, SameSeedSameDrawsAcrossRuns) {
  Session a, b;
  a.interp.run("FAULTS(99, 150, 50)\n");
  b.interp.run("FAULTS(99, 150, 50)\n");
  a.run_workload();
  b.run_workload();
  ASSERT_EQ(a.interp.steps().size(), b.interp.steps().size());
  for (std::size_t i = 0; i < a.interp.steps().size(); ++i) {
    expect_identical(a.interp.steps()[i], b.interp.steps()[i]);
  }
  EXPECT_EQ(a.state.comm().total_retry_us(), b.state.comm().total_retry_us());
}

// --- cold vs replay: canonical roll order -----------------------------------

TEST(FaultReplay, ReplayUnderTheSameSeedConsumesTheSameDraws) {
  Machine machine(4);
  CommEngine engine(machine);
  engine.set_fault_config({/*seed=*/5, /*prob=*/0.3, /*max_retries=*/50,
                           /*backoff_base_us=*/50.0});

  auto plan = std::make_shared<CommPlan>();
  engine.begin_step("sweep");
  engine.record_into(plan);
  engine.transfer_block(0, 1, 8, 16);
  engine.transfer_block(2, 3, 8, 16);
  engine.begin_posted();
  engine.transfer_block(1, 2, 8, 4);
  engine.end_posted();
  engine.compute(0, 100);
  const StepStats cold = engine.end_step();
  ASSERT_TRUE(plan->sealed);

  // Rewind the RNG: the replay must roll the identical fault sequence,
  // because cold pricing and replay walk the flows in the same canonical
  // (sync then posted, sorted) order.
  engine.set_fault_config({5, 0.3, 50, 50.0});
  const StepStats again = engine.replay(*plan, "sweep");
  expect_identical(cold, again);
}

TEST(FaultReplay, SealedPlansAreFaultFree) {
  Machine machine(4);
  CommEngine engine(machine);
  engine.set_fault_config({11, 0.9, 200, 50.0});

  auto plan = std::make_shared<CommPlan>();
  engine.begin_step("noisy");
  engine.record_into(plan);
  engine.transfer_block(0, 2, 8, 32);
  engine.transfer_block(1, 3, 8, 32);
  const StepStats cold = engine.end_step();
  EXPECT_GT(cold.retries, 0);
  // The plan sealed the BASE schedule: faults are per-execution weather,
  // re-rolled on every replay, never baked into the cached stats.
  EXPECT_EQ(plan->stats.retries, 0);
  EXPECT_EQ(plan->stats.retry_us, 0.0);
  EXPECT_EQ(cold.time_us, plan->stats.time_us + cold.retry_us);
  EXPECT_EQ(plan->referenced_procs, (std::vector<ApId>{0, 1, 2, 3}));
}

TEST(FaultReplay, ExhaustionThrowsWithNothingCommittedAndEngineReusable) {
  Machine machine(4);
  CommEngine engine(machine);
  engine.begin_step("warmup");
  engine.transfer_block(0, 1, 8, 8);
  const StepStats warm = engine.end_step();
  const double base_time = engine.total_time_us();
  const Extent base_msgs = engine.total_messages();

  engine.set_fault_config({1, 1.0, 2, 50.0});  // every attempt faults
  engine.begin_step("doomed");
  engine.transfer_block(0, 1, 8, 8);
  EXPECT_THROW(engine.end_step(), TransferFaultError);

  // All-or-nothing: the failed step charged nothing, the engine is closed.
  EXPECT_EQ(engine.total_time_us(), base_time);
  EXPECT_EQ(engine.total_messages(), base_msgs);
  EXPECT_EQ(engine.total_retries(), 0);

  // And fully reusable: disable faults, re-issue the statement.
  engine.set_fault_config({1, 0.0, 2, 50.0});
  engine.begin_step("retry of doomed");
  engine.transfer_block(0, 1, 8, 8);
  const StepStats redo = engine.end_step();
  EXPECT_EQ(redo.messages, warm.messages);
  EXPECT_EQ(redo.time_us, warm.time_us);
  EXPECT_EQ(engine.total_messages(), base_msgs + redo.messages);
}

TEST(FaultReplay, RetryPricingFollowsTheBackoffFormula) {
  Machine machine(2);
  CommEngine engine(machine);
  // seed such that the first draws fault exactly while uniform01 < prob;
  // instead of hunting seeds, force determinism with prob just under 1 and
  // a generous budget, then check the charge against the formula using the
  // reported retry count.
  engine.set_fault_config({42, 0.8, 100, 50.0});
  engine.begin_step("one message");
  engine.transfer_block(0, 1, 8, 10);  // one flow, 80 bytes
  const StepStats s = engine.end_step();
  const double m = machine.cost().message_us(80);
  double expected = 0.0;
  for (Extent k = 0; k < s.retries; ++k) {
    expected += 50.0 * static_cast<double>(1ull << k) + m;
  }
  EXPECT_DOUBLE_EQ(s.retry_us, expected);
  EXPECT_EQ(s.time_us, (s.time_us - s.retry_us) + s.retry_us);
}

// --- failure-set invalidation, both cache levels ----------------------------

std::shared_ptr<const CommPlan> plan_touching(std::vector<ApId> procs) {
  auto plan = std::make_shared<CommPlan>();
  plan->label = "p";
  plan->sealed = true;
  plan->referenced_procs = std::move(procs);
  return plan;
}

TEST(EpochInvalidation, PlanCacheDropsPlansReferencingTheDeadProcessor) {
  Machine machine(8);
  PlanCache cache;
  cache.insert("hot", plan_touching({0, 2, 5}));
  cache.insert("cold", plan_touching({1, 3}));
  EXPECT_NE(cache.lookup("hot", machine), nullptr);

  machine.fail_processor(5);
  EXPECT_EQ(cache.lookup("hot", machine), nullptr)
      << "a plan referencing a dead processor must never replay";
  EXPECT_EQ(cache.invalidations(), 1);
  // A plan untouched by the failure survives repeated lookups.
  EXPECT_NE(cache.lookup("cold", machine), nullptr);
  EXPECT_NE(cache.lookup("cold", machine), nullptr);
  EXPECT_EQ(cache.invalidations(), 1);
  // The dropped key misses from then on (the entry is gone, not hidden).
  EXPECT_EQ(cache.lookup("hot"), nullptr);
}

TEST(EpochInvalidation, PlanCacheRechecksASurvivorAtTheNextFailure) {
  // Both levels keep no per-entry stamp: every lookup intersects the plan
  // with the current failed set, so a plan that survived one failure is
  // dropped as soon as a later failure names a processor it references.
  Machine machine(8);
  PlanCache cache;
  cache.insert("p", plan_touching({1, 4}));
  machine.fail_processor(2);
  EXPECT_NE(cache.lookup("p", machine), nullptr);
  EXPECT_NE(cache.lookup("p", machine), nullptr);
  EXPECT_EQ(cache.invalidations(), 0);

  machine.fail_processor(4);
  EXPECT_EQ(cache.lookup("p", machine), nullptr)
      << "a plan that survived an earlier failure must not replay after "
         "one it references";
  EXPECT_EQ(cache.invalidations(), 1);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EpochInvalidation, PlanServiceDropsPlansReferencingTheDeadProcessor) {
  Machine machine(8);
  PlanServiceConfig cfg;
  cfg.shards = 2;
  cfg.shard_capacity = 8;
  PlanService svc(cfg);
  svc.insert("hot", plan_touching({0, 2, 5}));
  svc.insert("cold", plan_touching({1, 3}));
  EXPECT_NE(svc.lookup("hot", machine), nullptr);
  EXPECT_EQ(svc.stats().invalidations(), 0);

  machine.fail_processor(5);
  EXPECT_EQ(svc.lookup("hot", machine), nullptr);
  EXPECT_EQ(svc.stats().invalidations(), 1);
  EXPECT_NE(svc.lookup("cold", machine), nullptr);
  EXPECT_EQ(svc.lookup("hot"), nullptr);  // erased, not masked
}

TEST(EpochInvalidation, SessionRepricesInsteadOfReplayingAfterLoss) {
  // End-to-end: a remap loop caches its plans; after FAIL_PROC the same
  // remap keys must re-price (the old schedules reference the dead proc).
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS P(8)\n"
      "REAL A(64)\n"
      "!HPF$ DYNAMIC A\n"
      "!HPF$ DISTRIBUTE A(BLOCK) TO P\n"
      "A(1:64) = 2\n"
      "!HPF$ REDISTRIBUTE A(CYCLIC)\n"
      "!HPF$ REDISTRIBUTE A(BLOCK)\n"
      "!HPF$ REDISTRIBUTE A(CYCLIC)\n"
      "!HPF$ REDISTRIBUTE A(BLOCK)\n");
  EXPECT_GT(s.state.plans().hits(), 0) << "the loop should replay its plans";

  s.interp.run("FAIL_PROC 6\n");
  EXPECT_EQ(s.state.plans().invalidations(), 0)
      << "invalidation is lazy: nothing is dropped until a lookup asks";
  const Extent misses_before = s.state.plans().misses();
  s.interp.run(
      "!HPF$ REDISTRIBUTE A(CYCLIC)\n"
      "!HPF$ REDISTRIBUTE A(BLOCK)\n");
  EXPECT_GT(s.state.plans().invalidations(), 0);
  EXPECT_GT(s.state.plans().misses(), misses_before);
  // BLOCK is single-owner and nothing was checkpointed: proc 6's block of
  // 8 elements (value 2 each) is honestly lost, the other 56 survive.
  EXPECT_EQ(s.state.checksum(s.id("A")), 56.0 * 2.0);
}

// --- processor-loss recovery ------------------------------------------------

TEST(Recovery, SurvivingReplicaRestoresEverythingWithoutACheckpoint) {
  // A(:) WITH D(:,*) replicates A over the target's second axis: every
  // element of A lives on 2 processors, so one loss always leaves a
  // surviving replica and recovery loses nothing.
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS Q(4,2)\n"
      "REAL D(8,8), A(8)\n"
      "!HPF$ DISTRIBUTE D(BLOCK,BLOCK) TO Q\n"
      "!HPF$ ALIGN A(:) WITH D(:,*)\n");
  s.state.fill(s.id("A"), [](const IndexTuple& i) {
    return static_cast<double>(i[0] * 10);
  });
  const double before = s.state.checksum(s.id("A"));

  RecoveryReport report = recover_processor_loss(
      s.state, s.interp.env(), /*p=*/3, /*ckpt=*/nullptr);
  EXPECT_EQ(report.failed_proc, 3);
  EXPECT_EQ(report.epoch, 1);
  EXPECT_EQ(s.state.checksum(s.id("A")), before);
  EXPECT_FALSE(report.remapped.empty());
  EXPECT_GT(report.total_time_us(), 0.0);
  // The new layout must not place a single element on the dead processor.
  const LayoutView view = LayoutView::whole(s.state.layout(s.id("A")));
  for (const OwnerRun& r : view.runs()) {
    for (ApId q : view.owners(r)) EXPECT_NE(q, 3);
  }
}

TEST(Recovery, CheckpointCoversSingleOwnerDataAndLossIsCountedWithoutOne) {
  // B is checkpointed, C is not; both are single-owner BLOCK over 8 procs.
  // Failing proc 3 kills elements 25..32 of each: B's come back from
  // stable storage, C's are zero-filled and counted.
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS P(8)\n"
      "REAL B(64), C(64)\n"
      "!HPF$ DISTRIBUTE B(BLOCK) TO P\n"
      "!HPF$ DISTRIBUTE C(BLOCK) TO P\n");
  s.state.fill(s.id("B"),
               [](const IndexTuple& i) { return static_cast<double>(i[0]); });
  s.state.fill(s.id("C"),
               [](const IndexTuple& i) { return static_cast<double>(i[0]); });
  const double full = 64.0 * 65.0 / 2.0;
  ASSERT_EQ(s.state.checksum(s.id("B")), full);

  s.interp.run("CHECKPOINT\n");
  ASSERT_TRUE(s.interp.checkpoint().has_value());

  // Checkpoint C out of the snapshot: keep only B's entry, proving the
  // three-way split inside one recovery pass.
  Checkpoint only_b = *s.interp.checkpoint();
  only_b.entries.erase(
      std::remove_if(only_b.entries.begin(), only_b.entries.end(),
                     [&](const CheckpointEntry& e) {
                       return e.id == s.id("C");
                     }),
      only_b.entries.end());

  RecoveryReport report =
      recover_processor_loss(s.state, s.interp.env(), 3, &only_b);
  EXPECT_EQ(s.state.checksum(s.id("B")), full)
      << "checkpointed single-owner data survives the loss";
  double lost = 0.0;
  for (Index1 i = 25; i <= 32; ++i) lost += static_cast<double>(i);
  EXPECT_EQ(s.state.checksum(s.id("C")), full - lost)
      << "uncheckpointed single-owner data zero-fills";
  EXPECT_EQ(report.restored_from_checkpoint, 8);
  EXPECT_EQ(report.lost_elements, 8);
}

TEST(Recovery, InvalidProcessorIsRejectedBeforeAnythingChanges) {
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS P(8)\n"
      "REAL A(16)\n"
      "!HPF$ DISTRIBUTE A(BLOCK) TO P\n");
  EXPECT_THROW(s.interp.run("FAIL_PROC 99\n"), ConformanceError);
  EXPECT_EQ(s.machine.topology_epoch(), 0);
  s.interp.run("FAIL_PROC 2\n");
  EXPECT_EQ(s.machine.topology_epoch(), 1);
  EXPECT_THROW(s.interp.run("FAIL_PROC 2\n"), ConformanceError);  // again
  EXPECT_EQ(s.machine.topology_epoch(), 1);
}

// --- CHECKPOINT / RESTORE ---------------------------------------------------

TEST(CheckpointRestore, RestoreRewindsValuesOnTheCurrentLayout) {
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS P(8)\n"
      "REAL A(64)\n"
      "!HPF$ DYNAMIC A\n"
      "!HPF$ DISTRIBUTE A(BLOCK) TO P\n"
      "A(1:64) = 7\n"
      "CHECKPOINT\n"
      "A(1:64) = 0\n");
  EXPECT_EQ(s.state.checksum(s.id("A")), 0.0);
  // Remap between checkpoint and restore: the snapshot's values land on
  // the CURRENT (cyclic) layout, not the one they were taken on.
  s.interp.run("!HPF$ REDISTRIBUTE A(CYCLIC)\n");
  s.interp.run("RESTORE\n");
  EXPECT_EQ(s.state.checksum(s.id("A")), 64.0 * 7.0);

  // Both statements are priced comm steps on the trace.
  Extent priced = 0;
  for (const StepStats& st : s.interp.steps()) {
    if (st.label == "CHECKPOINT" || st.label == "RESTORE") ++priced;
  }
  EXPECT_EQ(priced, 2);
}

TEST(CheckpointRestore, RestoreWithoutACheckpointIsAConformanceError) {
  Session s;
  s.interp.run("REAL A(8)\n");
  EXPECT_THROW(s.interp.run("RESTORE\n"), ConformanceError);
}

TEST(CheckpointRestore, RestoreRejectsAShapeChangeWithoutMutatingAnything) {
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS P(4)\n"
      "REAL,ALLOCATABLE(:) :: A\n"
      "ALLOCATE(A(16))\n"
      "!HPF$ DISTRIBUTE A(BLOCK) TO P\n"
      "A(1:16) = 3\n"
      "CHECKPOINT\n"
      "DEALLOCATE(A)\n"
      "ALLOCATE(A(32))\n"
      "A(1:32) = 5\n");
  EXPECT_THROW(s.interp.run("RESTORE\n"), ConformanceError);
  EXPECT_EQ(s.state.checksum(s.id("A")), 32.0 * 5.0)
      << "validate-before-mutate: the failed RESTORE wrote nothing";
}

// --- the FAULTS statement ---------------------------------------------------

TEST(FaultsStatement, ValidatesItsArguments) {
  Session s;
  EXPECT_THROW(s.interp.run("FAULTS(1, 1001, 3)\n"), ConformanceError);
  EXPECT_THROW(s.interp.run("FAULTS(1, -1, 3)\n"), ConformanceError);
  EXPECT_THROW(s.interp.run("FAULTS(1, 10, -1)\n"), ConformanceError);
  s.interp.run("FAULTS(1, 10, 3)\n");
  EXPECT_TRUE(s.state.comm().faults_enabled());
  EXPECT_EQ(s.state.comm().fault_config().max_retries, 3);
  s.interp.run("FAULTS(1, 0, 3)\n");
  EXPECT_FALSE(s.state.comm().faults_enabled());
}

// --- the TSan target: lookups racing fail_processor -------------------------

TEST(FaultRace, PlanServiceLookupsRaceTheEpochBumpSafely) {
  Machine machine(16);
  PlanServiceConfig cfg;
  cfg.shards = 4;
  cfg.shard_capacity = 64;
  PlanService svc(cfg);
  for (int i = 0; i < 32; ++i) {
    svc.insert("k" + std::to_string(i),
               plan_touching({static_cast<ApId>(i % 16),
                              static_cast<ApId>((i + 7) % 16)}));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&svc, &machine, &stop, t] {
      std::uint64_t found = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 32; ++i) {
          // Snapshot BEFORE the lookup: the guarantee is that a lookup
          // never serves a plan stale relative to any failure that
          // happened before it started (it may be stricter, never looser).
          const std::shared_ptr<const FailureSet> snap = machine.failures();
          auto plan = svc.lookup("k" + std::to_string((i + t) % 32), machine);
          if (plan) {
            EXPECT_FALSE(plan->references_any(snap->failed));
            ++found;
          }
        }
      }
      (void)found;
    });
  }
  // Kill processors one by one under the readers' feet.
  for (ApId p : {3, 9, 14}) {
    machine.fail_processor(p);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  // Post-race: every plan referencing a dead proc is gone for good.
  for (int i = 0; i < 32; ++i) {
    auto plan = svc.lookup("k" + std::to_string(i), machine);
    if (plan) {
      EXPECT_FALSE(plan->references_any(machine.failures()->failed));
    }
  }
}

}  // namespace
}  // namespace hpfnt
