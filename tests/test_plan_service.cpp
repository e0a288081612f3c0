// The shared plan service (service/plan_service.hpp): sharding, per-shard
// LRU semantics, monotonic counters, the L1/L2 lookup hierarchy through
// ProgramState, cross-session plan sharing with byte-identical statistics,
// multi-threaded stress, and the interp STATS statement that surfaces the
// counters to scripts. The stress tests are also the TSan targets of the
// sanitize-thread CI job.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/data_env.hpp"
#include "directives/interp.hpp"
#include "exec/stencil.hpp"
#include "service/plan_service.hpp"

namespace hpfnt {
namespace {

std::shared_ptr<const CommPlan> sealed_plan(const std::string& label) {
  auto plan = std::make_shared<CommPlan>();
  plan->label = label;
  plan->sealed = true;
  return plan;
}

PlanServiceConfig config(std::size_t shards, std::size_t capacity) {
  PlanServiceConfig cfg;
  cfg.shards = shards;
  cfg.shard_capacity = capacity;
  return cfg;
}

// --- shard mapping ----------------------------------------------------------

TEST(PlanServiceShards, ShardOfIsStableAndInRange) {
  PlanService svc(config(16, 4));
  EXPECT_EQ(svc.shard_count(), 16u);
  for (int i = 0; i < 64; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::size_t s = svc.shard_of(key);
    EXPECT_LT(s, svc.shard_count());
    EXPECT_EQ(s, svc.shard_of(key));  // stable
  }
}

TEST(PlanServiceShards, ConfigClampsToAtLeastOne) {
  PlanService svc(config(0, 0));
  EXPECT_EQ(svc.shard_count(), 1u);
  svc.insert("k", sealed_plan("k"));
  EXPECT_NE(svc.lookup("k"), nullptr);  // capacity clamped to >= 1
}

TEST(PlanServiceShards, KeysLandOnTheirOwnShardsCounters) {
  PlanService svc(config(4, 8));
  svc.insert("a", sealed_plan("a"));
  svc.lookup("a");
  const PlanServiceStats stats = svc.stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  const std::size_t s = svc.shard_of("a");
  EXPECT_EQ(stats.shards[s].inserts, 1);
  EXPECT_EQ(stats.shards[s].hits, 1);
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    if (i == s) continue;
    EXPECT_EQ(stats.shards[i].inserts, 0);
    EXPECT_EQ(stats.shards[i].hits, 0);
  }
}

// --- LRU semantics (single shard so the order is fully observable) ----------

TEST(PlanServiceLru, EvictsTheLeastRecentlyUsedEntry) {
  PlanService svc(config(1, 2));
  svc.insert("k1", sealed_plan("k1"));
  svc.insert("k2", sealed_plan("k2"));
  ASSERT_NE(svc.lookup("k1"), nullptr);  // promotes k1; k2 is now the tail
  svc.insert("k3", sealed_plan("k3"));   // evicts k2
  EXPECT_EQ(svc.lookup("k2"), nullptr);
  EXPECT_NE(svc.lookup("k1"), nullptr);
  EXPECT_NE(svc.lookup("k3"), nullptr);
  const PlanServiceStats stats = svc.stats();
  EXPECT_EQ(stats.evictions(), 1);
  EXPECT_EQ(stats.size(), 2u);
}

TEST(PlanServiceLru, ReinsertRefreshesAndPromotes) {
  PlanService svc(config(1, 2));
  svc.insert("k1", sealed_plan("old"));
  svc.insert("k2", sealed_plan("k2"));
  svc.insert("k1", sealed_plan("new"));  // refresh, k1 promoted; no eviction
  EXPECT_EQ(svc.stats().evictions(), 0);
  EXPECT_EQ(svc.stats().size(), 2u);
  EXPECT_EQ(svc.lookup("k1")->label, "new");
  svc.insert("k3", sealed_plan("k3"));  // tail is k2
  EXPECT_EQ(svc.lookup("k2"), nullptr);
  EXPECT_NE(svc.lookup("k1"), nullptr);
}

TEST(PlanServiceLru, RejectsUnsealedAndNullPlans) {
  PlanService svc(config(1, 4));
  svc.insert("null", nullptr);
  auto unsealed = std::make_shared<CommPlan>();  // sealed == false
  svc.insert("unsealed", std::shared_ptr<const CommPlan>(unsealed));
  EXPECT_EQ(svc.stats().inserts(), 0);
  EXPECT_EQ(svc.stats().size(), 0u);
  EXPECT_EQ(svc.lookup("null"), nullptr);
  EXPECT_EQ(svc.lookup("unsealed"), nullptr);
}

// --- counters and the stats snapshot ----------------------------------------

TEST(PlanServiceStatsTest, AggregatesAndRates) {
  PlanService svc(config(2, 4));
  svc.insert("a", sealed_plan("a"));
  svc.insert("b", sealed_plan("b"));
  svc.lookup("a");        // hit
  svc.lookup("a");        // hit
  svc.lookup("missing");  // miss
  const PlanServiceStats stats = svc.stats();
  EXPECT_EQ(stats.hits(), 2);
  EXPECT_EQ(stats.misses(), 1);
  EXPECT_EQ(stats.inserts(), 2);
  EXPECT_EQ(stats.evictions(), 0);
  EXPECT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.capacity(), 8u);
}

TEST(PlanServiceStatsTest, ClearDropsEntriesButKeepsCounters) {
  PlanService svc(config(2, 4));
  svc.insert("a", sealed_plan("a"));
  svc.lookup("a");
  svc.clear();
  const PlanServiceStats stats = svc.stats();
  EXPECT_EQ(stats.size(), 0u);
  EXPECT_EQ(stats.hits(), 1);    // monotonic across clear()
  EXPECT_EQ(stats.inserts(), 1);
  EXPECT_EQ(svc.lookup("a"), nullptr);
  EXPECT_EQ(svc.stats().misses(), 1);  // and they keep counting
}

// --- the L1/L2 hierarchy through ProgramState -------------------------------

// A self-contained interp session: its own machine, processor space, data
// environment and program state, optionally attached to a shared service.
// Runs the Jacobi sweep the E2/E6 experiments use and reports the priced
// totals, which must be byte-identical across sessions and cache modes.
struct Session {
  explicit Session(PlanService* service, Extent n = 32, int iters = 4)
      : machine(16),
        ps(16),
        env((ps.declare("G", IndexDomain::of_extents({4, 4})), ps)),
        a(env.real("A", IndexDomain{Dim(1, n), Dim(1, n)})),
        b(env.real("B", IndexDomain{Dim(1, n), Dim(1, n)})),
        state(machine) {
    const ProcessorRef grid(ps.find("G"));
    env.distribute(a, {DistFormat::block(), DistFormat::block()}, grid);
    env.distribute(b, {DistFormat::block(), DistFormat::block()}, grid);
    state.set_plan_service(service);
    state.create(env, a);
    state.create(env, b);
    const Extent edge = n;
    auto init = [edge](const IndexTuple& i) {
      return (i[0] == 1 || i[0] == edge || i[1] == 1 || i[1] == edge) ? 100.0
                                                                      : 0.0;
    };
    state.fill(a.id(), init);
    state.fill(b.id(), init);
    jacobi(state, env, a, b, n, iters);
  }

  Extent messages() { return state.comm().total_messages(); }
  Extent bytes() { return state.comm().total_bytes(); }
  double time_us() { return state.comm().total_time_us(); }
  double checksum() { return state.checksum(a.id()) + state.checksum(b.id()); }

  Machine machine;
  ProcessorSpace ps;
  DataEnv env;
  DistArray& a;
  DistArray& b;
  ProgramState state;
};

TEST(PlanServiceSharing, SecondSessionReplaysTheFirstSessionsPlans) {
  PlanService svc(config(16, 64));

  // Session 1 prices everything cold: every distinct key misses both cache
  // levels once and is published to both.
  Session first(&svc);
  const PlanServiceStats after_first = svc.stats();
  const Extent distinct = after_first.inserts();
  ASSERT_GT(distinct, 0);
  EXPECT_EQ(after_first.misses(), distinct);
  EXPECT_EQ(after_first.hits(), 0);  // repeats replay from the session's L1

  // Session 2 has a separate machine, processor space and data environment,
  // but identical layout *content* — plan keys are pure content signatures,
  // so every key it misses in its L1 hits the shared service. It prices
  // nothing cold: the service's insert counter does not move.
  Session second(&svc);
  const PlanServiceStats after_second = svc.stats();
  EXPECT_EQ(after_second.inserts(), distinct);
  EXPECT_EQ(after_second.misses(), distinct);
  EXPECT_EQ(after_second.hits(), distinct);

  // Replayed plans are byte-identical to cold pricing: same cumulative
  // engine totals, same data.
  EXPECT_EQ(first.messages(), second.messages());
  EXPECT_EQ(first.bytes(), second.bytes());
  EXPECT_EQ(first.time_us(), second.time_us());
  EXPECT_EQ(first.checksum(), second.checksum());
}

TEST(PlanServiceSharing, SharedAndPrivateModesProduceIdenticalStats) {
  PlanService svc(config(16, 64));
  Session shared_a(&svc);
  Session shared_b(&svc);
  Session private_session(nullptr);
  EXPECT_EQ(shared_b.messages(), private_session.messages());
  EXPECT_EQ(shared_b.bytes(), private_session.bytes());
  EXPECT_EQ(shared_b.time_us(), private_session.time_us());
  EXPECT_EQ(shared_b.checksum(), private_session.checksum());
}

TEST(PlanServiceSharing, ServiceHitBackfillsTheSessionL1) {
  PlanService svc(config(16, 64));
  Session first(&svc);
  const Extent service_hits_before = svc.stats().hits();
  Session second(&svc);
  // Each distinct key cost the second session exactly one service lookup —
  // the back-filled L1 served every repeat, so the service saw no more
  // traffic than one hit per key.
  EXPECT_EQ(svc.stats().hits() - service_hits_before, svc.stats().inserts());
  EXPECT_GT(second.state.plans().hits(), 0);
}

// --- multi-threaded stress (the TSan targets) -------------------------------

TEST(PlanServiceStress, ConcurrentSessionsShareOneService) {
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 2;

  // A private serial run establishes the distinct-key count and the
  // expected totals.
  PlanService baseline_svc(config(16, 64));
  Session baseline(&baseline_svc);
  const Extent distinct = baseline_svc.stats().inserts();
  ASSERT_GT(distinct, 0);

  PlanService svc(config(16, 64));
  // Prime sequentially so the concurrent phase is deterministic: every
  // session then finds every key already published.
  Session prime(&svc);

  std::vector<Extent> messages(kThreads * kSessionsPerThread, 0);
  std::vector<Extent> bytes(kThreads * kSessionsPerThread, 0);
  std::vector<double> sums(kThreads * kSessionsPerThread, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int s = 0; s < kSessionsPerThread; ++s) {
        Session session(&svc);
        const int slot = t * kSessionsPerThread + s;
        messages[static_cast<std::size_t>(slot)] = session.messages();
        bytes[static_cast<std::size_t>(slot)] = session.bytes();
        sums[static_cast<std::size_t>(slot)] = session.checksum();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(messages[i], baseline.messages()) << "session " << i;
    EXPECT_EQ(bytes[i], baseline.bytes()) << "session " << i;
    EXPECT_EQ(sums[i], baseline.checksum()) << "session " << i;
  }
  // Primed: the concurrent sessions priced nothing cold and hit the
  // service exactly once per (session, key).
  const PlanServiceStats stats = svc.stats();
  EXPECT_EQ(stats.inserts(), distinct);
  EXPECT_EQ(stats.misses(), distinct);
  EXPECT_EQ(stats.hits(), distinct * kThreads * kSessionsPerThread);
}

TEST(PlanServiceStress, UnprimedColdRaceIsBenign) {
  constexpr int kThreads = 4;
  PlanService baseline_svc(config(16, 64));
  Session baseline(&baseline_svc);
  const Extent distinct = baseline_svc.stats().inserts();

  // All sessions start cold and may race to price the same keys; racing
  // publishes are benign (the plans are interchangeable by construction)
  // and every session still ends with the baseline totals.
  PlanService svc(config(16, 64));
  std::vector<Extent> messages(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session(&svc);
      messages[static_cast<std::size_t>(t)] = session.messages();
    });
  }
  for (std::thread& th : threads) th.join();

  for (Extent m : messages) EXPECT_EQ(m, baseline.messages());
  const PlanServiceStats stats = svc.stats();
  // Each session consults the service exactly once per distinct key; every
  // key's first toucher misses, so the split is bounded but the sum exact.
  EXPECT_EQ(stats.hits() + stats.misses(), distinct * kThreads);
  EXPECT_GE(stats.misses(), distinct);
  EXPECT_LE(stats.misses(), distinct * kThreads);
  EXPECT_EQ(stats.inserts(), stats.misses());
}

TEST(PlanServiceStress, SharedDistributionMemosPublishSafely) {
  // Distribution copies share their payload, so the write-once memos
  // (run tables, segment lists, content digests) can be faulted from many
  // threads at once. All threads must observe identical results; under
  // TSan this also proves the publication is race-free.
  ProcessorSpace ps(16);
  ps.declare("G", IndexDomain::of_extents({4, 4}));
  const IndexDomain dom{Dim(1, 64), Dim(1, 64)};
  const Distribution dist = Distribution::formats(
      dom, {DistFormat::block(), DistFormat::cyclic()},
      ProcessorRef(ps.find("G")));

  std::string expected_sig;
  dist.append_plan_signature(expected_sig);
  IndexTuple probe;
  probe.push_back(17);
  probe.push_back(42);
  const OwnerSet expected_owners = dist.owners(probe);

  constexpr int kThreads = 8;
  std::vector<std::string> sigs(kThreads);
  std::vector<OwnerSet> owners(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t, copy = dist] {
      std::string sig;
      copy.append_plan_signature(sig);
      sigs[static_cast<std::size_t>(t)] = sig;
      owners[static_cast<std::size_t>(t)] = copy.owners(probe);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sigs[static_cast<std::size_t>(t)], expected_sig);
    EXPECT_EQ(owners[static_cast<std::size_t>(t)], expected_owners);
  }
}

// --- the interp STATS statement ---------------------------------------------

TEST(InterpStats, SurfacesSessionPlanCountersToScripts) {
  ProcessorSpace ps(32);
  Machine machine(32);
  ProgramState state(machine);
  dir::Interpreter in(ps);
  in.set_state(&state);
  in.run(
      "!HPF$ PROCESSORS Q(8)\n"
      "REAL A(64)\n"
      "!HPF$ DYNAMIC A\n"
      "!HPF$ DISTRIBUTE A(BLOCK) TO Q\n"
      "STATS\n"
      "!HPF$ REDISTRIBUTE A(CYCLIC) TO Q\n"
      "!HPF$ REDISTRIBUTE A(BLOCK) TO Q\n"
      "!HPF$ REDISTRIBUTE A(CYCLIC) TO Q\n"
      "!HPF$ REDISTRIBUTE A(BLOCK) TO Q\n"
      "STATS\n");
  ASSERT_EQ(in.plan_stats().size(), 2u);
  const dir::PlanCacheStats& before = in.plan_stats()[0];
  EXPECT_EQ(before.hits, 0);
  EXPECT_EQ(before.misses, 0);
  EXPECT_FALSE(before.shared_attached);
  // Four remaps over two alternating layout pairs: the first two price
  // cold, the last two replay.
  const dir::PlanCacheStats& after = in.plan_stats()[1];
  EXPECT_EQ(after.misses, 2);
  EXPECT_EQ(after.hits, 2);
  EXPECT_EQ(after.size, 2);
  // The counters also land in the trace for human eyes.
  bool traced = false;
  for (const std::string& line : in.trace()) {
    if (line.find("STATS plans hits=2 misses=2") != std::string::npos) {
      traced = true;
    }
  }
  EXPECT_TRUE(traced);
}

TEST(InterpStats, ReportsSharedServiceTotalsWhenAttached) {
  ProcessorSpace ps(32);
  Machine machine(32);
  ProgramState state(machine);
  PlanService svc(config(4, 16));
  state.set_plan_service(&svc);
  dir::Interpreter in(ps);
  in.set_state(&state);
  in.run(
      "!HPF$ PROCESSORS Q(8)\n"
      "REAL A(64)\n"
      "!HPF$ DYNAMIC A\n"
      "!HPF$ DISTRIBUTE A(BLOCK) TO Q\n"
      "!HPF$ REDISTRIBUTE A(CYCLIC) TO Q\n"
      "STATS\n");
  ASSERT_EQ(in.plan_stats().size(), 1u);
  const dir::PlanCacheStats& snap = in.plan_stats()[0];
  EXPECT_TRUE(snap.shared_attached);
  EXPECT_EQ(snap.shared_inserts, 1);  // the cold remap published to the L2
  EXPECT_EQ(snap.shared_misses, 1);
  bool traced = false;
  for (const std::string& line : in.trace()) {
    if (line.find("shared") != std::string::npos) traced = true;
  }
  EXPECT_TRUE(traced);
}

TEST(InterpStats, StatsWithoutStateOnlyLeavesATraceLine) {
  ProcessorSpace ps(8);
  dir::Interpreter in(ps);
  in.run("STATS\n");
  EXPECT_TRUE(in.plan_stats().empty());
  ASSERT_FALSE(in.trace().empty());
  EXPECT_NE(in.trace().back().find("no program state"), std::string::npos);
}

TEST(InterpStats, StatsRemainsUsableAsAScalarName) {
  // `STATS = 3` is a scalar assignment, not the statement — the parser
  // only claims a bare STATS.
  ProcessorSpace ps(8);
  dir::Interpreter in(ps);
  in.run(
      "STATS = 3\n"
      "REAL A(STATS)\n");
  EXPECT_EQ(in.scalar("STATS"), 3);
  EXPECT_EQ(in.env().find("A").domain().extent(0), 3);
}

}  // namespace
}  // namespace hpfnt
