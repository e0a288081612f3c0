// hpfbench: runs one benchmark workload and prints its metrics.
//
//   hpfbench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--inject-mismatch K] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/README.md). The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the lines before it
// are for reading. A failed output check counts the operation as failed;
// a failed traced-run probe aborts with exit code 2 and no result.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>

#include "harness.hpp"

namespace bench {
namespace {

/// Every per-layer metric, in the order printed. A workload that does not
/// exercise a layer leaves its metric at 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"exec.assign.us", "us"},
    {"exec.assign.unattributed_us", "us"},
    {"exec.eval.ns_per_elem", "ns/elem"},
    {"exec.eval.segments_per_stmt", "count"},
    {"exec.writeback.ns_per_elem", "ns/elem"},
    {"exec.key.us", "us"},
    {"exec.key.bytes", "bytes"},
    {"exec.plan_cache.lookup_us", "us"},
    {"exec.plan_cache.hits", "count"},
    {"exec.plan_cache.misses", "count"},
    {"exec.plan_cache.inserts", "count"},
    {"exec.plan_cache.evictions", "count"},
    {"machine.replay.us", "us"},
    {"directives.parse.us", "us"},
    {"directives.interp.us_per_stmt", "us"},
    {"analysis.lint.us", "us"},
    {"analysis.cost.us", "us"},
    {"analysis.cost.plans_priced", "count"},
    {"service.plan_service.hit_rate", "ratio"},
    {"service.plan_service.hits", "count"},
    {"service.plan_service.misses", "count"},
    {"service.plan_service.inserts", "count"},
    {"core.data_env.redistribute.us", "us"},
    {"exec.remap.us.cyclic1", "us"},
    {"exec.remap.us.cyclic8", "us"},
    {"exec.remap.us.gen_block", "us"},
    {"exec.remap.us.indirect", "us"},
    {"exec.remap.us.block", "us"},
    {"exec.assign_cold.us", "us"},
    {"exec.stencil_cold.us", "us"},
    {"core.layout_view.build_us.cyclic1", "us"},
    {"core.layout_view.build_us.cyclic8", "us"},
    {"core.layout_view.build_us.gen_block", "us"},
    {"core.layout_view.build_us.indirect", "us"},
    {"core.layout_view.build_us.block", "us"},
    {"core.layout_view.runs.cyclic1", "count"},
    {"core.layout_view.runs.cyclic8", "count"},
    {"core.layout_view.runs.gen_block", "count"},
    {"core.layout_view.runs.indirect", "count"},
    {"core.layout_view.runs.block", "count"},
    {"core.layout_view.table_bytes.cyclic1", "bytes"},
    {"core.layout_view.table_bytes.cyclic8", "bytes"},
    {"core.layout_view.table_bytes.gen_block", "bytes"},
    {"core.layout_view.table_bytes.indirect", "bytes"},
    {"core.layout_view.table_bytes.block", "bytes"},
    {"calib.sweep_us", "us"},
    {"trace.overhead", "ratio"},
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  std::int64_t inject_at = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hpfbench: %s\nusage: hpfbench --workload "
               "stencil_warm|script_sessions|remap_cold --seed N --seconds S "
               "--trace 0|1 [--smoke] [--inject-mismatch K] "
               "[--trace-out FILE]\n",
               why);
  std::exit(64);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value());
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--inject-mismatch") {
        o.inject_at = std::stoll(value());
      } else if (a == "--trace-out") {
        o.trace_out = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (!(o.seconds > 0.0) || o.seconds > 600.0) usage("--seconds out of range");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  return o;
}

using Factory = std::unique_ptr<Workload> (*)(const Params&);

Factory factory_for(const std::string& name) {
  if (name == "stencil_warm") return make_stencil_warm;
  if (name == "script_sessions") return make_script_sessions;
  if (name == "remap_cold") return make_remap_cold;
  usage(("unknown workload " + name).c_str());
}

/// Operations of one timed phase. An operation's latency is its run()
/// alone; probes and output checks happen between the timers.
struct Phase {
  /// Latency samples kept for the percentiles: every operation until the
  /// reservoir is full, then a uniform random subset (Algorithm R), so the
  /// benchmark's own memory stops growing with the operation rate.
  static constexpr std::size_t kReservoir = 1 << 16;

  explicit Phase(std::uint64_t seed) : rng(seed) {
    op_us.reserve(kReservoir);
    op_cal.reserve(kReservoir);
  }

  void add(double us, double cal) {
    ++seen;
    if (op_us.size() < kReservoir) {
      op_us.push_back(us);
      op_cal.push_back(cal);
    } else {
      const std::size_t j = static_cast<std::size_t>(rng.below(seen));
      if (j < kReservoir) {
        op_us[j] = us;
        op_cal[j] = cal;
      }
    }
  }

  double cal_per_stmt() const {
    return cal_units / static_cast<double>(stmts > 0 ? stmts : 1);
  }

  double wall_us = 0.0;    ///< sum of operation latencies
  double cal_units = 0.0;  ///< sum of latency / calibration
  std::int64_t stmts = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> op_us;
  std::vector<double> op_cal;
  std::int64_t seen = 0;  ///< samples offered to the reservoir
  Rng rng;
};

/// Batches of operations until `seconds` have passed (max_ops < 0) or
/// max_ops operations ran. Each batch is divided by the mean of the
/// calibration samples on either side of it (a sample closes one batch and
/// opens the next), which also covers a regime flip in the middle of a long
/// operation. `between_batches` returns true when it did work that makes
/// the last sample stale.
void run_phase(Workload& w, Calibrator& cal, Tracer* tracer, double seconds,
               std::int64_t max_ops, std::int64_t& op_index,
               std::int64_t inject_at,
               const std::function<bool()>& between_batches, Phase& ph) {
  // Short enough that a batch rarely straddles a host-speed regime flip.
  constexpr double kBatchUs = 8000.0;
  const Clock::time_point start = Clock::now();
  auto done = [&] {
    return max_ops >= 0 ? ph.attempted >= max_ops
                        : us_between(start, Clock::now()) >= seconds * 1e6;
  };
  std::vector<double> batch;
  double before = cal.sample_us();
  while (!done()) {
    if (between_batches()) before = cal.sample_us();
    batch.clear();
    double batch_us = 0.0;
    do {
      if (tracer) tracer->set_op(op_index);
      const Clock::time_point t0 = Clock::now();
      const std::int64_t stmts = w.run(tracer);
      const double us = us_between(t0, Clock::now());
      if (tracer) w.probe(*tracer);
      if (!w.verify(op_index == inject_at)) ++ph.failed;
      ++op_index;
      ++ph.attempted;
      ph.stmts += stmts;
      batch.push_back(us);
      batch_us += us;
    } while (batch_us < kBatchUs &&
             !(max_ops >= 0 && ph.attempted >= max_ops));
    const double after = cal.sample_us();
    const double c = (before + after) / 2;
    for (double us : batch) ph.add(us, us / c);
    ph.wall_us += batch_us;
    ph.cal_units += batch_us / c;
    before = after;
  }
}

/// Peak resident set of this process image, in MiB: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss would also count the launching
/// process's image, which survives fork + exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long long kib = -1;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Fixes glibc malloc's mmap and trim thresholds. By default the mmap
/// threshold adapts to the sizes freed so far, so whether a session's
/// large buffers come from fresh zero-filled pages or from the heap depends
/// on the input sizes and on allocation history; measured, that made
/// remap_cold's cost bimodal across seeds (about 12% apart). Fixed
/// thresholds keep freed memory in the heap and the cost input-independent.
void pin_allocator() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
}

int run(const Options& opt) {
  pin_allocator();
  const Factory make = factory_for(opt.workload);
  Params params;
  params.seed = opt.seed;
  params.smoke = opt.smoke;

  std::vector<double> setup_s;
  auto timed_setup = [&](Workload& w) {
    const Clock::time_point t0 = Clock::now();
    w.setup();
    setup_s.push_back(us_between(t0, Clock::now()) * 1e-6);
  };
  std::unique_ptr<Workload> w = make(params);
  timed_setup(*w);
  Calibrator cal(*w);

  std::int64_t op_index = 0;
  if (opt.trace == 0) {
    // Further independent set-ups, spread over the run so their median
    // does not hinge on the host-speed regime of one instant.
    constexpr int kExtraSetups = 10;
    const double interval_us = opt.seconds * 1e6 / (kExtraSetups + 1);
    Clock::time_point last = Clock::now();
    auto between = [&] {
      if (static_cast<int>(setup_s.size()) > kExtraSetups ||
          us_between(last, Clock::now()) < interval_us) {
        return false;
      }
      std::unique_ptr<Workload> fresh = make(params);
      timed_setup(*fresh);
      fresh.reset();
      last = Clock::now();
      return true;
    };
    Phase ph(opt.seed);
    run_phase(*w, cal, nullptr, opt.seconds, -1, op_index, opt.inject_at,
              between, ph);

    const double p50 = quantile(ph.op_us, 0.5);
    const double p90 = quantile(ph.op_us, 0.9);
    const double p99 = quantile(ph.op_us, 0.99);
    std::printf("workload %s seed %llu: %lld ops (%lld failed), %lld stmts; "
                "samples: %zu latency, %zu calibration, %zu set-up\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                static_cast<long long>(ph.attempted),
                static_cast<long long>(ph.failed),
                static_cast<long long>(ph.stmts), ph.op_us.size(),
                cal.samples().size(), setup_s.size());
    std::printf("raw (not gated): op_us_p50 %.3f op_us_p90 %.3f op_us_p99 "
                "%.3f; calibration median %.4f us\n",
                p50, p90, p99, median(cal.samples()));
    const std::vector<Metric> metrics = {
        {"setup_s", median(setup_s), "s"},
        {"stmts_per_s", static_cast<double>(ph.stmts) / (ph.wall_us * 1e-6),
         "1/s"},
        {"cal_per_stmt", ph.cal_per_stmt(), "cal"},
        {"op_cal_p50", quantile(ph.op_cal, 0.5), "cal"},
        {"op_cal_p90", quantile(ph.op_cal, 0.9), "cal"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    print_result(ph.failed == 0, ph.attempted, ph.failed, metrics);
    return 0;
  }

  // Traced run: an untraced phase as the overhead baseline, then a fixed
  // number of traced operations (so the layer counters repeat exactly).
  Phase plain(opt.seed);
  run_phase(*w, cal, nullptr, opt.seconds / 2, -1, op_index, opt.inject_at,
            [] { return false; }, plain);
  Tracer tracer;
  w->begin_traced();
  Phase traced(opt.seed + 1);
  run_phase(*w, cal, &tracer, 0.0, w->traced_ops(), op_index, opt.inject_at,
            [] { return false; }, traced);

  std::map<std::string, double> values;
  w->layer_metrics(tracer, values);
  values["calib.sweep_us"] = median(cal.samples());
  values["trace.overhead"] = traced.cal_per_stmt() / plain.cal_per_stmt();

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) {
    metrics.push_back({name, values[name], unit});
    values.erase(name);
  }
  if (!values.empty()) {
    throw std::logic_error("undeclared layer metric " + values.begin()->first);
  }
  if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out);

  const std::int64_t attempted = plain.attempted + traced.attempted;
  const std::int64_t failed = plain.failed + traced.failed;
  std::printf("workload %s seed %llu traced: %lld untraced + %lld traced ops "
              "(%lld failed)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<long long>(plain.attempted),
              static_cast<long long>(traced.attempted),
              static_cast<long long>(failed));
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse(argc, argv);
  try {
    return bench::run(opt);
  } catch (const bench::ProbeFailure& e) {
    std::fprintf(stderr, "hpfbench: PROBE FAILURE: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpfbench: error: %s\n", e.what());
    return 1;
  }
}
