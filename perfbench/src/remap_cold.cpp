// remap_cold: every plan misses. An operation is one fresh session
// (Machine, ProcessorSpace, DataEnv, ProgramState, no shared service) that
// creates A and B of 2^14 reals on 16 processors, REDISTRIBUTEs A through
// CYCLIC(1) -> CYCLIC(8) -> GENERAL_BLOCK -> INDIRECT -> BLOCK with
// B = A + 1 after each step, and ends with one cold 5-point stencil on a
// 2-D (CYCLIC(2),BLOCK) pair. Run-table builds, cold charge walks and L1
// inserts do nearly all the work; the warm layers do none.
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/data_env.hpp"
#include "core/layout_view.hpp"
#include "counters.hpp"
#include "exec/assign.hpp"
#include "exec/redistribute_exec.hpp"
#include "harness.hpp"

namespace bench {
namespace {

using namespace hpfnt;

constexpr int kSteps = 5;
constexpr std::array<const char*, kSteps> kFormatNames = {
    "cyclic1", "cyclic8", "gen_block", "indirect", "block"};
constexpr std::array<const char*, kSteps> kRemapSpans = {
    "exec.remap.cyclic1", "exec.remap.cyclic8", "exec.remap.gen_block",
    "exec.remap.indirect", "exec.remap.block"};
constexpr std::array<const char*, kSteps> kViewSpans = {
    "core.layout_view.cyclic1", "core.layout_view.cyclic8",
    "core.layout_view.gen_block", "core.layout_view.indirect",
    "core.layout_view.block"};

/// One fresh session. Members are declared in dependency order.
struct Session {
  Machine machine{16};
  ProcessorSpace space{16};
  DataEnv env{space};
  ProgramState state{machine};
  DistArray* a = nullptr;
  DistArray* b = nullptr;
  DistArray* c = nullptr;
  DistArray* d = nullptr;
  std::vector<Distribution> layouts;  // A after each step (traced runs)
};

class RemapCold final : public Workload {
 public:
  explicit RemapCold(const Params& p)
      : seed_(p.seed),
        n_(p.smoke ? 256 : 16384),
        r_(p.smoke ? 16 : 128),
        traced_ops_(p.smoke ? 3 : 16) {}

  void setup() override {
    Rng rng(seed_);
    init_a_.resize(static_cast<std::size_t>(n_));
    for (double& v : init_a_) v = rng.unit();
    init_c_.resize(static_cast<std::size_t>(r_ * r_));
    for (double& v : init_c_) v = rng.unit();
    checksum_a_ = 0.0;
    for (double v : init_a_) checksum_a_ += v;  // storage order, like checksum
    ref_d_.assign(init_c_.size(), 0.0);
    jacobi_sweep(init_c_.data(), ref_d_.data(), static_cast<int>(r_),
                 static_cast<int>(r_));

    // GENERAL_BLOCK: 16 blocks of random (possibly zero) size.
    std::vector<Extent> weights(16);
    Extent sum = 0;
    for (Extent& w : weights) sum += (w = rng.range(1, 64));
    std::vector<Extent> sizes(16);
    Extent used = 0;
    for (std::size_t p = 0; p + 1 < sizes.size(); ++p) {
      used += (sizes[p] = n_ * weights[p] / sum);
    }
    sizes.back() = n_ - used;
    // INDIRECT: every element to a random processor.
    std::vector<Extent> owner(static_cast<std::size_t>(n_));
    for (Extent& o : owner) o = rng.range(1, 16);
    formats_ = {DistFormat::cyclic(1), DistFormat::cyclic(8),
                DistFormat::general_block_sizes(sizes),
                DistFormat::indirect(owner), DistFormat::block()};

    // The calibration kernel's owner of every element under each format.
    const Extent block = (n_ + 15) / 16;
    std::vector<std::uint8_t> gen_block;
    for (std::size_t p = 0; p < sizes.size(); ++p) {
      gen_block.insert(gen_block.end(), static_cast<std::size_t>(sizes[p]),
                       static_cast<std::uint8_t>(p));
    }
    cal_owner_.assign(kSteps, std::vector<std::uint8_t>(init_a_.size()));
    for (std::size_t i = 0; i < init_a_.size(); ++i) {
      const Extent e = static_cast<Extent>(i);
      cal_owner_[0][i] = static_cast<std::uint8_t>(e % 16);
      cal_owner_[1][i] = static_cast<std::uint8_t>(e / 8 % 16);
      cal_owner_[2][i] = gen_block[i];
      cal_owner_[3][i] = static_cast<std::uint8_t>(owner[i] - 1);
      cal_owner_[4][i] = static_cast<std::uint8_t>(e / block);
    }

    // Warm-up: one whole session (allocator, code paths); it also fixes the
    // modeled totals every later session must reproduce.
    run(nullptr);
    if (!verify(false)) {
      throw std::runtime_error("remap_cold: warm-up session failed its checks");
    }
  }

  std::int64_t run(Tracer* tracer) override {
    s_ = std::make_unique<Session>();
    Session& s = *s_;
    const ProcessorArrangement& q =
        s.space.declare("Q", IndexDomain::of_extents({16}));
    const ProcessorArrangement& g =
        s.space.declare("G", IndexDomain::of_extents({4, 4}));
    s.a = &s.env.real("A", IndexDomain{Dim(n_)});
    s.b = &s.env.real("B", IndexDomain{Dim(n_)});
    s.env.distribute(*s.a, {DistFormat::block()}, ProcessorRef(q));
    s.env.distribute(*s.b, {DistFormat::block()}, ProcessorRef(q));
    s.env.dynamic(*s.a);
    s.state.create(s.env, *s.a);
    s.state.create(s.env, *s.b);
    s.state.fill(s.a->id(), [&](const IndexTuple& i) {
      return init_a_[static_cast<std::size_t>(i[0] - 1)];
    });

    std::int64_t stmts = 0;
    const SecExpr a_plus_1 = SecExpr::whole(*s.a) + 1.0;
    for (int k = 0; k < kSteps; ++k) {
      std::vector<RemapEvent> events;
      {
        Tracer::Scope span(tracer, "core.data_env.redistribute");
        events = s.env.redistribute(*s.a, {formats_[static_cast<std::size_t>(k)]},
                                    ProcessorRef(q));
      }
      {
        Tracer::Scope span(tracer, kRemapSpans[static_cast<std::size_t>(k)]);
        stmts += static_cast<std::int64_t>(
            apply_remaps(s.state, s.env, events).size());
      }
      if (tracer) s.layouts.push_back(s.state.layout(s.a->id()));
      {
        Tracer::Scope span(tracer, "exec.assign_cold");
        assign(s.state, s.env, *s.b, a_plus_1, label_b_);
      }
      ++stmts;
    }

    s.c = &s.env.real("C", IndexDomain{Dim(r_), Dim(r_)});
    s.d = &s.env.real("D", IndexDomain{Dim(r_), Dim(r_)});
    for (DistArray* x : {s.c, s.d}) {
      s.env.distribute(*x, {DistFormat::cyclic(2), DistFormat::block()},
                       ProcessorRef(g));
      s.state.create(s.env, *x);
    }
    s.state.fill(s.c->id(), [&](const IndexTuple& i) {
      return init_c_[static_cast<std::size_t>((i[0] - 1) + (i[1] - 1) * r_)];
    });
    const Extent r = r_;
    auto sec = [&](Index1 ilo, Index1 jlo) {
      return SecExpr::section(
          *s.c, {Triplet(ilo, ilo + r - 3), Triplet(jlo, jlo + r - 3)});
    };
    const SecExpr stencil = (sec(1, 2) + sec(3, 2) + sec(2, 1) + sec(2, 3)) * 0.25;
    {
      Tracer::Scope span(tracer, "exec.stencil_cold");
      assign(s.state, s.env, *s.d, {Triplet(2, r - 1), Triplet(2, r - 1)},
             stencil, label_d_);
    }
    ++stmts;

    if (tracer) {
      const PlanCache& plans = s.state.plans();
      hits_ += plans.hits();
      misses_ += plans.misses();
      inserts_ += plans_entered(plans);
      evictions_ += plans.evictions();
    }
    return stmts;
  }

  void probe(Tracer& tracer) override {
    for (int k = 0; k < kSteps; ++k) {
      const Distribution& dist = s_->layouts[static_cast<std::size_t>(k)];
      RunTable table;
      {
        Tracer::Scope span(&tracer, kViewSpans[static_cast<std::size_t>(k)]);
        table = LayoutView::compute(dist, dist.domain().dims());
      }
      Extent covered = 0;
      for (const OwnerRun& run : table.runs) covered += run.count;
      if (covered != n_) {
        throw ProbeFailure("remap_cold: run table does not cover the array");
      }
      runs_[static_cast<std::size_t>(k)] = static_cast<Extent>(table.runs.size());
    }
  }

  bool verify(bool inject) override {
    std::unique_ptr<Session> done = std::move(s_);
    const ProgramState& st = done->state;
    const Totals totals = Totals::of(done->state.comm());
    if (!have_first_) {
      first_ = totals;
      have_first_ = true;
    }
    bool ok = totals == first_;
    ok = ok && st.checksum(done->a->id()) == checksum_a_ + (inject ? 1.0 : 0.0);
    const double* a = st.values_span(done->a->id());
    const double* b = st.values_span(done->b->id());
    for (Extent i = 0; ok && i < n_; ++i) ok = b[i] == a[i] + 1.0;
    const double* d = st.values_span(done->d->id());
    for (std::size_t i = 0; ok && i < ref_d_.size(); ++i) ok = d[i] == ref_d_[i];
    return ok;
  }

  /// The same problem in plain C++ on fresh allocations: each remap
  /// scatters A into per-owner buffers and gathers it back, followed by
  /// B = A + 1; then one sweep of the 2-D stencil.
  void calibrate() override {
    std::vector<double> a(init_a_);
    std::vector<double> b(a.size());
    std::vector<std::vector<double>> buckets(16);
    for (const std::vector<std::uint8_t>& owner : cal_owner_) {
      for (std::vector<double>& bucket : buckets) bucket.clear();
      for (std::size_t i = 0; i < a.size(); ++i) buckets[owner[i]].push_back(a[i]);
      std::array<std::size_t, 16> next{};
      for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = buckets[owner[i]][next[owner[i]]++];
      }
      for (std::size_t i = 0; i < a.size(); ++i) b[i] = a[i] + 1.0;
    }
    std::vector<double> d(init_c_.size());
    jacobi_sweep(init_c_.data(), d.data(), static_cast<int>(r_),
                 static_cast<int>(r_));
    cal_sink_ += b[b.size() / 2] + d[d.size() / 2];
  }

  void layer_metrics(const Tracer& tracer,
                     std::map<std::string, double>& out) const override {
    out["core.data_env.redistribute.us"] =
        median(tracer.durations("core.data_env.redistribute"));
    for (std::size_t k = 0; k < kSteps; ++k) {
      const std::string f = kFormatNames[k];
      out["exec.remap.us." + f] = median(tracer.durations(kRemapSpans[k]));
      out["core.layout_view.build_us." + f] =
          median(tracer.durations(kViewSpans[k]));
      out["core.layout_view.runs." + f] = static_cast<double>(runs_[k]);
      out["core.layout_view.table_bytes." + f] =
          static_cast<double>(runs_[k]) * static_cast<double>(sizeof(OwnerRun));
    }
    out["exec.assign_cold.us"] = median(tracer.durations("exec.assign_cold"));
    out["exec.stencil_cold.us"] = median(tracer.durations("exec.stencil_cold"));
    out["exec.plan_cache.hits"] = static_cast<double>(hits_);
    out["exec.plan_cache.misses"] = static_cast<double>(misses_);
    out["exec.plan_cache.inserts"] = static_cast<double>(inserts_);
    out["exec.plan_cache.evictions"] = static_cast<double>(evictions_);
  }

  std::int64_t traced_ops() const override { return traced_ops_; }

 private:
  std::uint64_t seed_;
  Extent n_;
  Extent r_;
  std::int64_t traced_ops_;
  std::vector<double> init_a_;
  std::vector<double> init_c_;
  std::vector<double> ref_d_;
  double checksum_a_ = 0.0;
  std::vector<DistFormat> formats_;
  std::vector<std::vector<std::uint8_t>> cal_owner_;
  double cal_sink_ = 0.0;  // keeps the calibration kernel's results live
  const std::string label_b_ = "B = A + 1";
  const std::string label_d_ = "D = stencil(C)";
  std::unique_ptr<Session> s_;
  Totals first_;
  bool have_first_ = false;

  std::array<Extent, kSteps> runs_{};
  Extent hits_ = 0, misses_ = 0, inserts_ = 0, evictions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_remap_cold(const Params& params) {
  return std::make_unique<RemapCold>(params);
}

}  // namespace bench
