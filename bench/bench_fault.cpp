// Experiment E9 — the fault-injected machine (src/fault/).
//
// BM_JacobiFault100 runs the 100-iteration 2-D BLOCK Jacobi sweep in three
// modes:
//
//   fault_free   the unmodified machine — the differential baseline;
//   faults       seeded transient transfer faults (1% per message, retry
//                budget 3): every re-issue is priced into retries/retry_us
//                and folded into the modeled time;
//   faults_loss  the same transient weather PLUS one mid-run processor
//                loss: CHECKPOINT at the halfway point, fail a processor,
//                recover onto the survivors (balance-partition GEN_BLOCK,
//                checkpoint-backed migration), then finish the sweep on
//                the degraded machine.
//
// The acceptance bar, gated in CI from the JSON output and enforced
// in-binary (abort, never publish a bad number):
//
//   * final checksums are byte-identical across ALL THREE modes — faults
//     delay, they never corrupt, and recovery is exact when the
//     checkpoint is fresh;
//   * faulted modeled time == fault-free time + retry_us, exactly: the
//     retry charge is separable, the base schedule untouched;
//   * the faulted run actually retried (cum_retries > 0) and the retry
//     overhead stays bounded (CI: retry_us < 25% of base time);
//   * the loss run reports zero lost elements (the checkpoint covered the
//     dead processor's data) and a positive, honestly priced recovery
//     cost.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "core/data_env.hpp"
#include "exec/stencil.hpp"
#include "fault/recovery.hpp"

namespace {

using namespace hpfnt;

constexpr std::uint64_t kSeed = 2026;
constexpr double kFaultProb = 0.01;
constexpr int kRetryBudget = 3;
constexpr ApId kDoomedProc = 6;

enum Mode { kFaultFree = 0, kFaults = 1, kFaultsLoss = 2 };

struct FaultRig {
  FaultRig(Extent n, Mode mode)
      : machine(16),
        ps(16),
        env((ps.declare("G", IndexDomain::of_extents({4, 4})), ps)),
        a(env.real("A", IndexDomain{Dim(1, n), Dim(1, n)})),
        b(env.real("B", IndexDomain{Dim(1, n), Dim(1, n)})),
        state(machine) {
    const ProcessorRef grid(ps.find("G"));
    env.distribute(a, {DistFormat::block(), DistFormat::block()}, grid);
    env.distribute(b, {DistFormat::block(), DistFormat::block()}, grid);
    state.create(env, a);
    state.create(env, b);
    if (mode != kFaultFree) {
      state.comm().set_fault_config(
          {kSeed, kFaultProb, kRetryBudget, /*backoff_base_us=*/50.0});
    }
    const Extent edge = n;
    auto init = [edge](const IndexTuple& i) {
      return (i[0] == 1 || i[0] == edge || i[1] == 1 || i[1] == edge)
                 ? 100.0
                 : 0.0;
    };
    state.fill(a.id(), init);
    state.fill(b.id(), init);
  }

  double run(Extent n, Mode mode, RecoveryReport* report) {
    if (mode != kFaultsLoss) {
      jacobi(state, env, a, b, n, 100);
    } else {
      jacobi(state, env, a, b, n, 50);
      // A fresh checkpoint right before the loss: the dead processor's
      // single-owner blocks come back from stable storage bit-exact, so
      // the degraded second half computes the same values.
      Checkpoint ckpt;
      state.checkpoint(ckpt, "CHECKPOINT");
      *report = recover_processor_loss(state, env, kDoomedProc, &ckpt);
      jacobi(state, env, a, b, n, 50);
    }
    return state.checksum(a.id()) + state.checksum(b.id());
  }

  Machine machine;
  ProcessorSpace ps;
  DataEnv env;
  DistArray& a;
  DistArray& b;
  ProgramState state;
};

void die(const char* message) {
  std::fprintf(stderr, "E9 regression: %s\n", message);
  std::abort();
}

/// The in-binary differential tripwire, once per benchmark run: all three
/// modes over a short sweep must agree on the values, and the faulted
/// time must decompose exactly into base + retry charge.
void differential_tripwire(Extent n) {
  RecoveryReport report;
  FaultRig free_rig(n, kFaultFree);
  FaultRig fault_rig(n, kFaults);
  FaultRig loss_rig(n, kFaultsLoss);
  const double sum_free = free_rig.run(n, kFaultFree, nullptr);
  const double sum_fault = fault_rig.run(n, kFaults, nullptr);
  const double sum_loss = loss_rig.run(n, kFaultsLoss, &report);
  if (sum_fault != sum_free) die("transient faults changed the values");
  if (sum_loss != sum_free) {
    die("recovery from a fresh checkpoint was not exact");
  }
  if (report.lost_elements != 0) {
    die("checkpointed recovery lost elements");
  }
  const CommEngine& free_comm = free_rig.state.comm();
  const CommEngine& fault_comm = fault_rig.state.comm();
  // Per step the identity time == base + retry_us is exact (checked in
  // tests/test_fault.cpp); the cumulative totals sum the same numbers in
  // different association orders, so compare to a few ulps.
  const double expect = free_comm.total_time_us() + fault_comm.total_retry_us();
  const double got = fault_comm.total_time_us();
  if (got < expect * (1.0 - 1e-12) || got > expect * (1.0 + 1e-12)) {
    die("faulted time is not base + retry_us");
  }
  if (fault_comm.total_bytes() != free_comm.total_bytes() ||
      fault_comm.total_messages() != free_comm.total_messages()) {
    die("faults changed the data movement");
  }
}

void BM_JacobiFault100(benchmark::State& bench) {
  const Mode mode = static_cast<Mode>(bench.range(0));
  const Extent n = bench.range(1);
  double checksum = 0.0;
  double cum_time_us = 0.0;
  double cum_retry_us = 0.0;
  Extent cum_retries = 0;
  Extent cum_bytes = 0;
  Extent cum_messages = 0;
  double recovery_time_us = 0.0;
  double restored = 0.0;
  double lost = 0.0;
  for (auto _ : bench) {
    RecoveryReport report;
    FaultRig rig(n, mode);
    checksum = rig.run(n, mode, &report);
    cum_time_us = rig.state.comm().total_time_us();
    cum_retry_us = rig.state.comm().total_retry_us();
    cum_retries = rig.state.comm().total_retries();
    cum_bytes = rig.state.comm().total_bytes();
    cum_messages = rig.state.comm().total_messages();
    if (mode == kFaultsLoss) {
      recovery_time_us = report.total_time_us();
      restored = static_cast<double>(report.restored_from_checkpoint);
      lost = static_cast<double>(report.lost_elements);
    }
  }
  differential_tripwire(n);
  bench.counters["checksum"] = checksum;
  bench.counters["cum_est_time_us"] = cum_time_us;
  bench.counters["cum_retry_us"] = cum_retry_us;
  bench.counters["cum_retries"] = static_cast<double>(cum_retries);
  bench.counters["cum_bytes"] = static_cast<double>(cum_bytes);
  bench.counters["cum_messages"] = static_cast<double>(cum_messages);
  bench.counters["recovery_time_us"] = recovery_time_us;
  bench.counters["restored_elements"] = restored;
  bench.counters["lost_elements"] = lost;
  bench.SetLabel(mode == kFaultFree  ? "fault_free"
                 : mode == kFaults   ? "faults"
                                     : "faults_loss");
}

void Modes(benchmark::internal::Benchmark* b) {
  for (Extent n : {64}) {
    b->Args({kFaultFree, n});
    b->Args({kFaults, n});
    b->Args({kFaultsLoss, n});
  }
}

BENCHMARK(BM_JacobiFault100)->Apply(Modes)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
