// stencil_warm: the steady state of the paper's motivating loop — a 2-D
// 5-point Jacobi ping-pong A <-> B on a 64x64 grid, (BLOCK,BLOCK) over a
// 4x4 arrangement with SHADOW(1:1,1:1). Plans are warm and one SecExpr is
// reused per direction, so an operation (one assign) is numerics plus the
// warm per-statement overhead: key build, L1 lookup, replay, writeback.
// Values are checked after every operation against the plain-loop
// reference advanced in the same operation order.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/data_env.hpp"
#include "exec/assign.hpp"
#include "exec/comm_plan.hpp"
#include "counters.hpp"
#include "exec/overlap.hpp"
#include "harness.hpp"

namespace bench {
namespace {

using namespace hpfnt;

class StencilWarm final : public Workload {
 public:
  explicit StencilWarm(const Params& p)
      : seed_(p.seed), n_(p.smoke ? 16 : 64), traced_ops_(p.smoke ? 40 : 2000) {}

  void setup() override {
    machine_ = std::make_unique<Machine>(16);
    space_ = std::make_unique<ProcessorSpace>(16);
    const ProcessorArrangement& grid =
        space_->declare("G", IndexDomain::of_extents({4, 4}));
    env_ = std::make_unique<DataEnv>(*space_);
    a_ = &env_->real("A", IndexDomain{Dim(n_), Dim(n_)});
    b_ = &env_->real("B", IndexDomain{Dim(n_), Dim(n_)});
    for (DistArray* x : {a_, b_}) {
      env_->distribute(*x, {DistFormat::block(), DistFormat::block()},
                       ProcessorRef(grid));
      x->set_shadow({{1, 1}, {1, 1}});
    }
    state_ = std::make_unique<ProgramState>(*machine_);
    state_->create(*env_, *a_);
    state_->create(*env_, *b_);

    Rng rng(seed_);
    ref_a_.resize(static_cast<std::size_t>(n_ * n_));
    ref_b_.resize(ref_a_.size());
    for (double& v : ref_a_) v = rng.unit();
    for (double& v : ref_b_) v = rng.unit();
    const Extent n = n_;
    state_->fill(a_->id(), [&](const IndexTuple& i) {
      return ref_a_[static_cast<std::size_t>((i[0] - 1) + (i[1] - 1) * n)];
    });
    state_->fill(b_->id(), [&](const IndexTuple& i) {
      return ref_b_[static_cast<std::size_t>((i[0] - 1) + (i[1] - 1) * n)];
    });

    interior_ = {Triplet(2, n - 1), Triplet(2, n - 1)};
    auto stencil = [&](const DistArray& x) {
      auto sec = [&](Index1 ilo, Index1 jlo) {
        return SecExpr::section(
            x, {Triplet(ilo, ilo + n - 3), Triplet(jlo, jlo + n - 3)});
      };
      return (sec(1, 2) + sec(3, 2) + sec(2, 1) + sec(2, 3)) * 0.25;
    };
    to_b_ = std::make_unique<SecExpr>(stencil(*a_));
    to_a_ = std::make_unique<SecExpr>(stencil(*b_));
    total_ = (n - 2) * (n - 2);
    probe_out_.resize(static_cast<std::size_t>(total_));
    side_ = std::make_unique<CommEngine>(*machine_);
    cal_a_ = ref_a_;
    cal_b_ = ref_b_;
    cal_stage_ = ref_a_;

    // Warm-up: both directions price cold once, then replay.
    for (int k = 0; k < 4; ++k) {
      run(nullptr);
      if (!verify(false)) {
        throw std::runtime_error("stencil_warm: warm-up values diverged");
      }
    }
  }

  std::int64_t run(Tracer* tracer) override {
    const bool to_b = k_ % 2 == 0;
    const PlanCache& plans = state_->plans();
    const Extent hits = plans.hits(), misses = plans.misses();
    const Extent entered = plans_entered(plans), evictions = plans.evictions();
    {
      Tracer::Scope span(tracer, "exec.assign");
      last_ = assign(*state_, *env_, to_b ? *b_ : *a_, interior_,
                     to_b ? *to_b_ : *to_a_, to_b ? label_b_ : label_a_);
    }
    if (tracer) {
      hits_ += plans.hits() - hits;
      misses_ += plans.misses() - misses;
      inserts_ += plans_entered(plans) - entered;
      evictions_ += plans.evictions() - evictions;
    }
    ++k_;
    return 1;
  }

  void probe(Tracer& tracer) override {
    const bool to_b = (k_ - 1) % 2 == 0;
    const DistArray& lhs = to_b ? *b_ : *a_;
    const SecExpr& rhs = to_b ? *to_b_ : *to_a_;
    const SecProgram& prog = rhs.program();
    const std::string& label = to_b ? label_b_ : label_a_;

    {
      Tracer::Scope span(&tracer, "exec.eval");
      prog.eval(*state_, arena_, total_, probe_out_.data());
    }
    const double* stored = state_->values_span(lhs.id());
    Extent at = 0;
    std::size_t segments = 0;
    for_each_segment(lhs.domain(), interior_, [&](const FlatSegment& seg) {
      for (Extent k = 0; k < seg.count; ++k) {
        if (stored[seg.base + k * seg.stride] != probe_out_[at + k]) {
          throw ProbeFailure("stencil_warm: SecProgram::eval differs from "
                             "what assign stored");
        }
      }
      at += seg.count;
      ++segments;
    });
    segments_ += static_cast<Extent>(segments);
    {
      Tracer::Scope span(&tracer, "exec.writeback");
      Extent written = 0;
      for_each_segment(lhs.domain(), interior_, [&](const FlatSegment& seg) {
        state_->store_segment(lhs.id(), seg, probe_out_.data() + written);
        written += seg.count;
      });
    }

    std::string key;
    {
      Tracer::Scope span(&tracer, "exec.key");
      const Distribution& lhs_dist = env_->distribution_of(lhs);
      const std::vector<SecLeaf>& leaves = prog.leaves();
      std::vector<AssignKeyLeaf> key_leaves;
      key_leaves.reserve(leaves.size());
      for (const SecLeaf& leaf : leaves) {
        const Distribution& dist = state_->layout(leaf.array);
        const std::vector<ShadowWidth>& shadow = state_->shadow_of(leaf.array);
        const bool posted =
            state_->comm().overlap_enabled() &&
            classify_operand_comm(lhs_dist, interior_, dist, *leaf.section,
                                  shadow) == CommClass::kPosted;
        key_leaves.push_back({&dist, leaf.section, leaf.bytes, posted,
                              &shadow});
      }
      key = assign_plan_key(lhs_dist, interior_, elem_bytes(lhs.type()),
                            rhs.flops_per_element(), key_leaves);
    }
    key_bytes_ = static_cast<Extent>(key.size());

    std::shared_ptr<const CommPlan> plan;
    {
      Tracer::Scope span(&tracer, "exec.plan_cache.lookup");
      plan = state_->lookup_plan(key);
    }
    if (!plan) {
      throw ProbeFailure("stencil_warm: rebuilt plan key missed the cache");
    }
    StepStats replayed;
    {
      Tracer::Scope span(&tracer, "machine.replay");
      replayed = side_->replay(*plan, label);
    }
    if (replayed.messages != last_.step.messages ||
        replayed.bytes != last_.step.bytes ||
        replayed.time_us != last_.step.time_us) {
      throw ProbeFailure("stencil_warm: side replay differs from the assign");
    }
  }

  bool verify(bool inject) override {
    const bool to_b = (k_ - 1) % 2 == 0;
    std::vector<double>& dst = to_b ? ref_b_ : ref_a_;
    jacobi_sweep(to_b ? ref_a_.data() : ref_b_.data(), dst.data(),
                 static_cast<int>(n_), static_cast<int>(n_));
    const double* got = state_->values_span((to_b ? b_ : a_)->id());
    std::vector<double> corrupted;
    const std::vector<double>* expect = &dst;
    if (inject) {
      corrupted = dst;
      corrupted[corrupted.size() / 2] += 1.0;
      expect = &corrupted;
    }
    for (std::size_t i = 0; i < expect->size(); ++i) {
      if (got[i] != (*expect)[i]) return false;
    }
    return true;
  }

  /// Four plain sweeps of the same problem (two ping-pong pairs), moving
  /// data the way a statement does: each sweep evaluates into a staging
  /// grid, copies the interior into the target, and builds and hashes a
  /// short key string. Mirroring that mix keeps the kernel slowing down
  /// with the operation when host contention hits arithmetic and string
  /// work unevenly.
  void calibrate() override {
    const int n = static_cast<int>(n_);
    for (int k = 0; k < 4; ++k) {
      const double* src = (k % 2 ? cal_b_ : cal_a_).data();
      double* dst = (k % 2 ? cal_a_ : cal_b_).data();
      jacobi_sweep(src, cal_stage_.data(), n, n);
      for (int j = 1; j < n - 1; ++j) {
        const std::size_t at = static_cast<std::size_t>(j) * n_ + 1;
        std::copy_n(cal_stage_.data() + at, n - 2, dst + at);
      }
      cal_key_.clear();
      for (int f = 0; f < 60; ++f) {
        cal_key_ += std::to_string(f * 7919 + k);
        cal_key_ += ':';
      }
      cal_sink_ += std::hash<std::string>{}(cal_key_) & 1;
    }
  }

  void layer_metrics(const Tracer& tracer,
                     std::map<std::string, double>& out) const override {
    const std::vector<double> assign_us = tracer.durations("exec.assign");
    const std::vector<double> eval = tracer.durations("exec.eval");
    const std::vector<double> wb = tracer.durations("exec.writeback");
    const std::vector<double> key = tracer.durations("exec.key");
    const std::vector<double> lookup = tracer.durations("exec.plan_cache.lookup");
    const std::vector<double> replay = tracer.durations("machine.replay");
    std::vector<double> unattributed;
    for (std::size_t i = 0; i < assign_us.size(); ++i) {
      unattributed.push_back(assign_us[i] - eval[i] - wb[i] - key[i] -
                             lookup[i] - replay[i]);
    }
    const double rest = median(unattributed);
    if (rest < 0.0) {
      throw ProbeFailure("stencil_warm: probes exceed the assign span");
    }
    const double elems = static_cast<double>(total_);
    const double ops = static_cast<double>(assign_us.size());
    out["exec.assign.us"] = median(assign_us);
    out["exec.assign.unattributed_us"] = rest;
    out["exec.eval.ns_per_elem"] = median(eval) * 1e3 / elems;
    out["exec.eval.segments_per_stmt"] = static_cast<double>(segments_) / ops;
    out["exec.writeback.ns_per_elem"] = median(wb) * 1e3 / elems;
    out["exec.key.us"] = median(key);
    out["exec.key.bytes"] = static_cast<double>(key_bytes_);
    out["exec.plan_cache.lookup_us"] = median(lookup);
    out["exec.plan_cache.hits"] = static_cast<double>(hits_);
    out["exec.plan_cache.misses"] = static_cast<double>(misses_);
    out["exec.plan_cache.inserts"] = static_cast<double>(inserts_);
    out["exec.plan_cache.evictions"] = static_cast<double>(evictions_);
    out["machine.replay.us"] = median(replay);
  }

  std::int64_t traced_ops() const override { return traced_ops_; }

 private:
  std::uint64_t seed_;
  Extent n_;
  std::int64_t traced_ops_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<ProcessorSpace> space_;
  std::unique_ptr<DataEnv> env_;
  std::unique_ptr<ProgramState> state_;
  std::unique_ptr<CommEngine> side_;  // replay probe target
  DistArray* a_ = nullptr;
  DistArray* b_ = nullptr;
  std::vector<Triplet> interior_;
  std::unique_ptr<SecExpr> to_b_;
  std::unique_ptr<SecExpr> to_a_;
  const std::string label_b_ = "B = stencil(A)";
  const std::string label_a_ = "A = stencil(B)";
  std::vector<double> ref_a_;
  std::vector<double> ref_b_;
  std::vector<double> cal_a_;  // calibration kernel's private grid
  std::vector<double> cal_b_;
  std::vector<double> cal_stage_;
  std::string cal_key_;
  std::size_t cal_sink_ = 0;  // keeps the kernel's hashes live
  Extent total_ = 0;
  std::int64_t k_ = 0;
  AssignResult last_;

  ScratchArena arena_;
  std::vector<double> probe_out_;
  Extent segments_ = 0;
  Extent key_bytes_ = 0;
  Extent hits_ = 0, misses_ = 0, inserts_ = 0, evictions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_stencil_warm(const Params& params) {
  return std::make_unique<StencilWarm>(params);
}

}  // namespace bench
