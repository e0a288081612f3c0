// script_sessions: the `hpflint --cost --exec` journey over a seeded corpus
// of generated scripts. An operation is one round over the corpus: for each
// script, analyze_script, then cost_script, then Interpreter::run on a
// fresh ProgramState attached to one shared PlanService. The front end and
// the analyses do most of the work; numerics are negligible, and it is the
// only workload that reads the shared (L2) plan cache and back-fills L1s.
#include <cctype>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/cost_model.hpp"
#include "counters.hpp"
#include "directives/interp.hpp"
#include "directives/parser.hpp"
#include "harness.hpp"
#include "service/plan_service.hpp"

namespace bench {
namespace {

using namespace hpfnt;

constexpr Extent kProcs = 16;

/// Nondecreasing GENERAL_BLOCK upper bounds (NP - 1 of them) for `n`
/// elements over 16 processors, from random block weights.
std::string general_block(Rng& rng, Extent n) {
  std::vector<Extent> w(kProcs);
  Extent sum = 0;
  for (Extent& x : w) sum += (x = rng.range(1, 16));
  std::ostringstream out;
  out << "GENERAL_BLOCK(/";
  Extent acc = 0;
  for (Extent p = 0; p + 1 < kProcs; ++p) {
    acc += w[static_cast<std::size_t>(p)];
    out << (p ? "," : "") << n * acc / sum;
  }
  out << "/)";
  return out.str();
}

/// The k-th of the four 1-D format kinds; a script cycles through them in
/// a seeded order so every corpus remaps the same mix.
std::string format_1d(Rng& rng, int kind, Extent n) {
  switch (kind % 4) {
    case 0: return "BLOCK";
    case 1: return "CYCLIC";
    case 2: return "CYCLIC(" + std::to_string(Extent{1} << rng.range(1, 3)) + ")";
    default: return general_block(rng, n);
  }
}

template <typename T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(
                            rng.below(static_cast<std::int64_t>(i)))]);
  }
}

std::string sec(Extent lo, Extent hi, Extent stride = 1) {
  std::string s = std::to_string(lo) + ":" + std::to_string(hi);
  if (stride != 1) s += ":" + std::to_string(stride);
  return s;
}

/// One generated script: 1-D arrays U (DYNAMIC), V (SHADOW) and W (aligned
/// to U) of n elements; 2-D arrays P (SHADOW) and R (aligned to P) of
/// r x c elements; then `body` statements mixing 1-D and 2-D section
/// assigns with REDISTRIBUTEs of U. Statement kinds and remap formats come
/// in fixed proportions in a seeded order, so corpora of different seeds
/// do comparable work. With `with_call`, a subroutine with an inherited
/// dummy (X) and an explicitly mapped one (Y) is called between
/// statements. Every right-hand side averages or offsets its operands, so
/// values stay bounded however long the script.
std::string generate_script(Rng& rng, Extent n, Extent r, Extent c, int body,
                            bool with_call) {
  const char* names[] = {"U", "V", "W"};
  // Every 8th statement remaps U, so each format governs an equal share
  // of the script; the seven assign kinds fill the other slots in equal
  // numbers, in a seeded order.
  constexpr int kRemap = 6;
  std::vector<int> kinds;
  for (int k = 0; k < body; ++k) {
    if (k % 8 != kRemap) kinds.push_back(static_cast<int>(kinds.size() % 7));
  }
  shuffle(rng, kinds);
  for (int& kind : kinds) kind += kind >= kRemap ? 1 : 0;
  for (int k = kRemap; k < body; k += 8) {
    kinds.insert(kinds.begin() + k, kRemap);
  }
  std::vector<int> formats = {0, 1, 2, 3};
  shuffle(rng, formats);
  int remaps = 0;
  auto next_format = [&] {
    return format_1d(rng, formats[static_cast<std::size_t>(remaps++ % 4)], n);
  };

  std::ostringstream s;
  s << "!HPF$ PROCESSORS Q(16)\n!HPF$ PROCESSORS G(4,4)\n";
  for (const char* a : names) s << "REAL " << a << "(" << n << ")\n";
  s << "REAL P(" << r << "," << c << ")\nREAL R(" << r << "," << c << ")\n";
  s << "!HPF$ DYNAMIC U\n";
  s << "!HPF$ DISTRIBUTE U(" << next_format() << ") TO Q\n";
  s << "!HPF$ DISTRIBUTE V(BLOCK) TO Q\n!HPF$ SHADOW V(1:1)\n";
  s << "!HPF$ ALIGN W(I) WITH U(I)\n";
  s << "!HPF$ DISTRIBUTE P(" << (rng.below(2) ? "BLOCK,BLOCK" : "BLOCK,CYCLIC(2)")
    << ") TO G\n";
  s << "!HPF$ ALIGN R(I,J) WITH P(I,J)\n!HPF$ SHADOW P(1:1,1:1)\n";
  if (with_call) {
    s << "SUBROUTINE SMOOTH(X, Y)\nREAL X(:), Y(:)\n"
      << "!HPF$ DISTRIBUTE X *\n!HPF$ DISTRIBUTE Y(BLOCK) TO Q\n"
      << "X(" << sec(2, n - 1) << ") = (Y(" << sec(1, n - 2) << ") + Y("
      << sec(3, n) << ")) / 2\n"
      << "Y(" << sec(1, n) << ") = X(" << sec(1, n) << ") + 1\n"
      << "END\n";
  }
  s << "U(" << sec(1, n) << ") = 1\nV(" << sec(1, n) << ") = 2\nW("
    << sec(1, n) << ") = 3\n";
  s << "P(" << sec(1, r) << "," << sec(1, c) << ") = 4\n";
  s << "R(" << sec(1, r) << "," << sec(1, c) << ") = 5\n";

  for (int k = 0; k < body; ++k) {
    const char* dst = names[rng.below(3)];
    const char* src = names[rng.below(3)];
    const char* src2 = names[rng.below(3)];
    if (with_call && k % 20 == 9) {
      s << "CALL SMOOTH(" << dst << ", " << (dst[0] == 'V' ? "W" : "V") << ")\n";
      continue;
    }
    switch (kinds[static_cast<std::size_t>(k)]) {
      case 0:  // 1-D three-point average
        s << dst << "(" << sec(2, n - 1) << ") = (" << src << "("
          << sec(1, n - 2) << ") + " << src << "(" << sec(3, n) << ")) / 2\n";
        break;
      case 1: {  // strided sections of equal count
        const Extent stride = rng.range(2, 4);
        const Extent count = (n - 4) / stride;
        const Extent lo1 = rng.range(1, 4);
        const Extent lo2 = rng.range(1, 4);
        s << dst << "(" << sec(lo1, lo1 + (count - 1) * stride, stride)
          << ") = (" << src << "(" << sec(lo2, lo2 + (count - 1) * stride, stride)
          << ") + " << src2 << "(" << sec(lo1, lo1 + (count - 1) * stride, stride)
          << ")) / 2\n";
        break;
      }
      case 2: {  // offset copy of a random range
        const Extent len = rng.range(n / 4, n / 2);
        const Extent lo1 = rng.range(1, n - len + 1);
        const Extent lo2 = rng.range(1, n - len + 1);
        s << dst << "(" << sec(lo1, lo1 + len - 1) << ") = " << src << "("
          << sec(lo2, lo2 + len - 1) << ") " << (rng.below(2) ? "+" : "-")
          << " 1\n";
        break;
      }
      case 3:
      case 4: {  // 2-D 5-point stencil, either direction
        const bool to_r = rng.below(2) == 0;
        const char* a = to_r ? "P" : "R";
        const char* b = to_r ? "R" : "P";
        s << b << "(" << sec(2, r - 1) << "," << sec(2, c - 1) << ") = (" << a
          << "(" << sec(1, r - 2) << "," << sec(2, c - 1) << ") + " << a << "("
          << sec(3, r) << "," << sec(2, c - 1) << ") + " << a << "("
          << sec(2, r - 1) << "," << sec(1, c - 2) << ") + " << a << "("
          << sec(2, r - 1) << "," << sec(3, c) << ")) / 4\n";
        break;
      }
      case 5: {  // 2-D rectangle blend
        const Extent i1 = rng.range(1, r / 2);
        const Extent j1 = rng.range(1, c / 2);
        const Extent i2 = rng.range(i1, r);
        const Extent j2 = rng.range(j1, c);
        s << "P(" << sec(i1, i2) << "," << sec(j1, j2) << ") = (R("
          << sec(i1, i2) << "," << sec(j1, j2) << ") * 3 + P(" << sec(i1, i2)
          << "," << sec(j1, j2) << ")) / 4\n";
        break;
      }
      case kRemap:
        s << "!HPF$ REDISTRIBUTE U(" << next_format() << ") TO Q\n";
        break;
      default:  // whole-range blend of two arrays
        s << dst << "(" << sec(1, n) << ") = (" << src << "(" << sec(1, n)
          << ") + " << src2 << "(" << sec(1, n) << ")) / 2\n";
        break;
    }
  }
  return s.str();
}

/// What one session of one script produced.
struct SessionResult {
  bool threw = false;
  int lint_errors = 0;
  int cost_errors = 0;
  Totals predicted;
  Totals executed;
  std::vector<double> checksums;
};

class ScriptSessions final : public Workload {
 public:
  explicit ScriptSessions(const Params& p)
      : seed_(p.seed),
        body_(p.smoke ? 12 : 85),
        traced_ops_(p.smoke ? 2 : 8) {}

  void setup() override {
    // One script per array size and 2-D shape, paired in a seeded order.
    Rng rng(seed_);
    std::vector<Extent> sizes = {64, 128, 192, 256};
    std::vector<std::pair<Extent, Extent>> shapes = {
        {8, 8}, {8, 16}, {16, 16}, {8, 32}};
    shuffle(rng, sizes);
    shuffle(rng, shapes);
    corpus_.clear();
    for (std::size_t i = 0; i < kScripts; ++i) {
      corpus_.push_back(generate_script(rng, sizes[i], shapes[i].first,
                                        shapes[i].second, body_,
                                        i + 1 == kScripts));
    }
    machine_ = std::make_unique<Machine>(kProcs);
    service_ = std::make_unique<PlanService>();
    first_.clear();
    // Warm-up round: primes the shared plan service, and its results are
    // what every later session of each script must reproduce.
    run(nullptr);
    if (!verify(false)) {
      throw std::runtime_error("script_sessions: warm-up round failed checks");
    }
  }

  std::int64_t run(Tracer* tracer) override {
    std::int64_t stmts = 0;
    results_.assign(corpus_.size(), SessionResult{});
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      const std::string& src = corpus_[i];
      SessionResult& res = results_[i];
      try {
        {
          Tracer::Scope span(tracer, "analysis.lint");
          ProcessorSpace space(kProcs);
          res.lint_errors = analysis::analyze_script(space, src).errors();
        }
        analysis::CostReport cost;
        {
          Tracer::Scope span(tracer, "analysis.cost");
          cost = analysis::cost_script(*machine_, src);
        }
        res.cost_errors = cost.errors();
        const analysis::CostTotals& t = cost.totals;
        res.predicted = {t.messages,   t.bytes,           t.element_transfers,
                         t.local_reads, t.time_us,        t.exposed_comm_us,
                         t.hidden_comm_us};

        ProcessorSpace space(kProcs);
        ProgramState state(*machine_);
        state.set_plan_service(service_.get());
        dir::Interpreter interp(space);
        interp.set_state(&state);
        {
          Tracer::Scope span(tracer, "directives.interp");
          interp.run(src);
        }
        res.executed = Totals::of(state.comm());
        for (const std::string& name : interp.env().array_names()) {
          const DistArray& arr = interp.env().find(name);
          if (state.exists(arr.id())) {
            res.checksums.push_back(state.checksum(arr.id()));
          }
        }
        const std::int64_t steps = static_cast<std::int64_t>(interp.steps().size());
        stmts += steps;
        if (tracer) {
          const PlanCache& plans = state.plans();
          l1_hits_ += plans.hits();
          l1_misses_ += plans.misses();
          l1_inserts_ += plans_entered(plans);
          l1_evictions_ += plans.evictions();
          interp_stmts_ += steps;
          plans_priced_ += cost.plans_priced;
        }
      } catch (const HpfError&) {
        res.threw = true;
      }
    }
    return stmts;
  }

  void probe(Tracer& tracer) override {
    for (const std::string& src : corpus_) {
      std::size_t nodes = 0;
      {
        Tracer::Scope span(&tracer, "directives.parse");
        nodes = dir::parse_program(src).main.size();
      }
      if (nodes == 0) {
        throw ProbeFailure("script_sessions: parse_program returned no "
                           "statements");
      }
    }
  }

  bool verify(bool inject) override {
    const bool record = first_.empty();
    if (record) first_ = results_;
    bool ok = true;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const SessionResult& got = results_[i];
      Totals expect = first_[i].executed;
      if (inject && i == 0) ++expect.messages;
      ok = ok && !got.threw && got.lint_errors == 0 && got.cost_errors == 0;
      // hpfcost does not price CALLs, so only CALL-free scripts must match.
      const bool call_free = i + 1 < results_.size();
      ok = ok && (!call_free || got.predicted == got.executed);
      ok = ok && got.executed == expect && got.checksums == first_[i].checksums;
    }
    return ok;
  }

  /// The same text in plain C++: split every script into tokens, intern
  /// the names in a hash map and parse the integers.
  void calibrate() override {
    std::unordered_map<std::string, std::size_t> names;
    long long ints = 0;
    std::string token;
    for (const std::string& src : corpus_) {
      for (const char ch : src) {
        if (std::isalnum(static_cast<unsigned char>(ch)) || ch == '_') {
          token += static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
          continue;
        }
        if (token.empty()) continue;
        if (std::isdigit(static_cast<unsigned char>(token[0]))) {
          ints += std::stoll(token);
        } else {
          names.emplace(token, names.size());
        }
        token.clear();
      }
    }
    cal_sink_ += static_cast<double>(names.size()) + static_cast<double>(ints);
  }

  void begin_traced() override { service_before_ = service_->stats(); }

  void layer_metrics(const Tracer& tracer,
                     std::map<std::string, double>& out) const override {
    const PlanServiceStats now = service_->stats();
    const double hits =
        static_cast<double>(now.hits() - service_before_.hits());
    const double misses =
        static_cast<double>(now.misses() - service_before_.misses());
    const std::vector<double> interp = tracer.durations("directives.interp");
    double interp_us = 0.0;
    for (double us : interp) interp_us += us;
    const double rounds = static_cast<double>(traced_ops_);

    out["directives.parse.us"] = median(tracer.durations("directives.parse"));
    out["directives.interp.us_per_stmt"] =
        interp_us / static_cast<double>(interp_stmts_ > 0 ? interp_stmts_ : 1);
    out["analysis.lint.us"] = median(tracer.durations("analysis.lint"));
    out["analysis.cost.us"] = median(tracer.durations("analysis.cost"));
    out["analysis.cost.plans_priced"] =
        static_cast<double>(plans_priced_) / rounds;
    out["service.plan_service.hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    out["service.plan_service.hits"] = hits;
    out["service.plan_service.misses"] = misses;
    out["service.plan_service.inserts"] =
        static_cast<double>(now.inserts() - service_before_.inserts());
    out["exec.plan_cache.hits"] = static_cast<double>(l1_hits_);
    out["exec.plan_cache.misses"] = static_cast<double>(l1_misses_);
    out["exec.plan_cache.inserts"] = static_cast<double>(l1_inserts_);
    out["exec.plan_cache.evictions"] = static_cast<double>(l1_evictions_);
  }

  std::int64_t traced_ops() const override { return traced_ops_; }

 private:
  static constexpr std::size_t kScripts = 4;

  std::uint64_t seed_;
  int body_;
  std::int64_t traced_ops_;
  std::vector<std::string> corpus_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<PlanService> service_;
  std::vector<SessionResult> results_;
  std::vector<SessionResult> first_;

  double cal_sink_ = 0.0;  // keeps the calibration kernel's results live

  PlanServiceStats service_before_;
  Extent l1_hits_ = 0, l1_misses_ = 0, l1_inserts_ = 0, l1_evictions_ = 0;
  Extent interp_stmts_ = 0;
  Extent plans_priced_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_script_sessions(const Params& params) {
  return std::make_unique<ScriptSessions>(params);
}

}  // namespace bench
