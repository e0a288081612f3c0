// Experiments E2 and E3 — iterative sweeps replay memoized communication
// plans (exec/comm_plan.hpp).
//
// The paper's distributions make an assignment's communication statically
// analyzable (§9's SUPERB/Vienna message vectorization), so the priced
// schedule of a Jacobi step depends only on the participating layouts and
// sections: the 2nd..Nth iteration can replay the first one's plan instead
// of re-walking run tables and re-charging every segment.
//
// E2: BM_JacobiStepPricing measures the *pricing pass* of one step (manual
// time: AssignResult::pricing_ns — plan lookup + replay when plans are on,
// the cold run-table walk + per-segment charging when off). The acceptance
// bar is plan-hit pricing >= 10x faster than cold pricing on a
// 100-iteration 2-D BLOCK Jacobi. BM_Jacobi100 runs the whole sweep and
// exports the cumulative statistics as counters, so a JSON run
// (--benchmark_format=json) shows the plans-on and plans-off modes
// producing identical totals while spending very different pricing time.
//
// E3: the same sweep with the second array ALIGN-ed WITH the first instead
// of DISTRIBUTE-d alike. Its distribution is derived — CONSTRUCT(α, δ_A) —
// so it exercises the forest's derived-payload cache (one shared payload
// across queries, warm run tables) and the kConstructed structural plan
// signature (the identity α collapses to δ_A's signature, so both sweep
// directions share one plan). The bar is the same >= 5x pricing win over
// cold, with identical cumulative statistics.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "core/data_env.hpp"
#include "exec/stencil.hpp"

namespace {

using namespace hpfnt;

// Regression tripwire for the pricing timer: AssignResult::pricing_ns must
// cover the WHOLE pricing section — PlanKey construction + hashing
// included, not just the plan lookup/replay — so a warm (plan-hit) step
// can never report a zero pricing time. A timer started after the key was
// built and consulted would.
void require_pricing_timed(const SweepStats& s, const char* mode) {
  if (s.pricing_ns <= 0) {
    std::fprintf(stderr,
                 "E2 regression: %s step reported pricing_ns=%lld; the "
                 "pricing timer must cover PlanKey construction\n",
                 mode, static_cast<long long>(s.pricing_ns));
    std::abort();
  }
}

struct JacobiRig {
  // `aligned` is the E3 variant: B is ALIGN-ed WITH A (identity), so its
  // layout is the forest-derived CONSTRUCT(α, δ_A) instead of a second
  // structurally equal DISTRIBUTE.
  JacobiRig(Extent n, bool aligned = false)
      : machine(16),
        ps(16),
        env((ps.declare("G", IndexDomain::of_extents({4, 4})), ps)),
        a(env.real("A", IndexDomain{Dim(1, n), Dim(1, n)})),
        b(env.real("B", IndexDomain{Dim(1, n), Dim(1, n)})),
        state(machine) {
    const ProcessorRef grid(ps.find("G"));
    env.distribute(a, {DistFormat::block(), DistFormat::block()}, grid);
    if (aligned) {
      env.align(b, a, AlignSpec::colons(2));
    } else {
      env.distribute(b, {DistFormat::block(), DistFormat::block()}, grid);
    }
    state.create(env, a);
    state.create(env, b);
    const Extent edge = n;
    auto init = [edge](const IndexTuple& i) {
      return (i[0] == 1 || i[0] == edge || i[1] == 1 || i[1] == edge)
                 ? 100.0
                 : 0.0;
    };
    state.fill(a.id(), init);
    state.fill(b.id(), init);
  }

  Machine machine;
  ProcessorSpace ps;
  DataEnv env;
  DistArray& a;
  DistArray& b;
  ProgramState state;
};

// One Jacobi step's pricing pass: plans off = cold run-table walk (the run
// tables themselves are memoized after the first step, so this is the best
// uncached pricing, not a strawman); plans on = key build + replay.
void run_step_pricing(benchmark::State& bench, bool aligned) {
  const bool plans = bench.range(0) != 0;
  const Extent n = bench.range(1);
  JacobiRig rig(n, aligned);
  rig.state.plans().set_enabled(plans);
  // Prime: run tables (and plans, when enabled) for both sweep directions.
  jacobi_step(rig.state, rig.env, rig.a, rig.b, n);
  jacobi_step(rig.state, rig.env, rig.b, rig.a, n);

  const DistArray* src = &rig.a;
  const DistArray* dst = &rig.b;
  // The A -> B step's count, whatever the iteration count's parity: the
  // two sweep directions need not spend equal probes.
  Extent a_to_b_queries = 0;
  for (auto _ : bench) {
    const SweepStats step = jacobi_step(rig.state, rig.env, *src, *dst, n);
    require_pricing_timed(step, plans ? "plan-hit" : "cold");
    bench.SetIterationTime(static_cast<double>(step.pricing_ns) * 1e-9);
    if (src == &rig.a) a_to_b_queries = step.ownership_queries;
    std::swap(src, dst);
  }
  bench.counters["ownership_queries_per_step"] =
      static_cast<double>(a_to_b_queries);
  bench.counters["plan_hits"] = static_cast<double>(rig.state.plans().hits());
  bench.SetLabel(plans ? "plan-hit" : "cold");
}

void BM_JacobiStepPricing(benchmark::State& bench) {
  run_step_pricing(bench, /*aligned=*/false);
}

// E3: B derives its layout from ALIGN B WITH A.
void BM_AlignedJacobiStepPricing(benchmark::State& bench) {
  run_step_pricing(bench, /*aligned=*/true);
}

// The full 100-iteration sweep, fresh state per benchmark iteration. The
// cumulative counters must be identical across the two modes (the CommPlan
// tests assert this field-exactly); total_pricing_us carries the E2/E3 win.
void run_jacobi_100(benchmark::State& bench, bool aligned) {
  const bool plans = bench.range(0) != 0;
  const Extent n = bench.range(1);
  SweepStats total;
  Extent cum_bytes = 0;
  Extent cum_messages = 0;
  double cum_time_us = 0.0;
  Extent plan_hits = 0;
  for (auto _ : bench) {
    JacobiRig rig(n, aligned);
    rig.state.plans().set_enabled(plans);
    total = jacobi(rig.state, rig.env, rig.a, rig.b, n, 100);
    require_pricing_timed(total, plans ? "plan-hit" : "cold");
    cum_bytes = rig.state.comm().total_bytes();
    cum_messages = rig.state.comm().total_messages();
    cum_time_us = rig.state.comm().total_time_us();
    plan_hits = rig.state.plans().hits();
  }
  bench.counters["cum_bytes"] = static_cast<double>(cum_bytes);
  bench.counters["cum_messages"] = static_cast<double>(cum_messages);
  bench.counters["cum_est_time_us"] = cum_time_us;
  bench.counters["remote_read_fraction"] = total.remote_read_fraction;
  bench.counters["total_pricing_us"] =
      static_cast<double>(total.pricing_ns) * 1e-3;
  bench.counters["ownership_queries"] =
      static_cast<double>(total.ownership_queries);
  bench.counters["plan_hits"] = static_cast<double>(plan_hits);
  bench.SetLabel(plans ? "plan-hit" : "cold");
}

void BM_Jacobi100(benchmark::State& bench) {
  run_jacobi_100(bench, /*aligned=*/false);
}

// E3: iterations 2..100 of the ALIGN-ed sweep price from the plan cache.
void BM_AlignedJacobi100(benchmark::State& bench) {
  run_jacobi_100(bench, /*aligned=*/true);
}

void Modes(benchmark::internal::Benchmark* b) {
  for (Extent n : {64, 128, 256}) {
    b->Args({0, n});
    b->Args({1, n});
  }
}

BENCHMARK(BM_JacobiStepPricing)->Apply(Modes)->UseManualTime();
BENCHMARK(BM_Jacobi100)->Args({0, 64})->Args({1, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AlignedJacobiStepPricing)->Apply(Modes)->UseManualTime();
BENCHMARK(BM_AlignedJacobi100)->Args({0, 64})->Args({1, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
