// Shared pieces of hpfbench: the seeded RNG, the calibration
// kernel, the in-memory span tracer, and the Workload interface the three
// workloads implement.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// splitmix64: a fixed, library-independent generator, so one seed gives
/// the same inputs with every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n), n > 0.
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + below(hi - lo + 1);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// One plain 5-point Jacobi sweep over the interior of a column-major
/// rows x cols grid: dst = (((W + E) + S) + N) * 0.25, in exactly the
/// operation order the library's compiled expression uses, so results are
/// bit-comparable. The stencil reference, and stencil_warm's calibration
/// kernel (the plain single-threaded baseline of the same problem).
void jacobi_sweep(const double* src, double* dst, int rows, int cols);

class Workload;

/// Times the workload's calibration kernel: a plain-C++, single-threaded
/// version of the workload's own problem on private data, living in the
/// benchmark and never in the library. Host speed on shared machines flips
/// between regimes far apart within a fraction of a second; samples taken
/// on either side of each short batch of operations measure the regime that
/// batch ran in, and dividing by them cancels the flip (see
/// perfbench/README.md).
class Calibrator {
 public:
  explicit Calibrator(Workload& workload) : workload_(&workload) {}
  /// Microseconds per kernel call: the median of nine timed calls.
  double sample_us();
  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  Workload* workload_;
  std::vector<double> samples_;
};

/// Raised when a traced-run probe disagrees with the operation it mirrors;
/// it aborts the run without a result.
struct ProbeFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Spans kept in memory and written once, at the end, as Chrome
/// trace-event JSON. A span records its name, interval, the op it belongs
/// to, and the enclosing span.
class Tracer {
 public:
  struct Span {
    int name = 0;
    int parent = -1;
    std::int64_t op = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
  };

  /// RAII span: closes at scope exit.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  Tracer();

  void set_op(std::int64_t op) { op_ = op; }

  /// Durations (us) of every span with this name, in recording order.
  std::vector<double> durations(const std::string& name) const;

  /// Writes the spans as a Chrome trace-event JSON array.
  void write_chrome(const std::string& path) const;

 private:
  int name_id(const char* name);

  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  int open_ = -1;
  std::int64_t op_ = 0;
};

/// A benchmark workload. main.cpp calls setup() once per independent
/// set-up, then per operation run() (timed), probe() (traced runs only,
/// untimed) and verify() (untimed).
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the starting state from the seed and finishes warm-up.
  virtual void setup() = 0;
  /// One operation; returns the priced statements it completed. Spans are
  /// recorded when `tracer` is non-null.
  virtual std::int64_t run(Tracer* tracer) = 0;
  /// Traced runs: re-measures single layers of the operation just run on
  /// its own operands, recording spans; throws ProbeFailure on a mismatch.
  virtual void probe(Tracer& tracer) { (void)tracer; }
  /// Checks the operation's outputs. `inject` corrupts the expected value
  /// (a self-test of the check: the op must then be reported failed).
  virtual bool verify(bool inject) = 0;
  /// One call of the calibration kernel (see Calibrator). Valid after
  /// setup(); it must not touch the library.
  virtual void calibrate() = 0;
  /// Called before the traced phase, to snapshot counters.
  virtual void begin_traced() {}
  /// Per-layer metrics of the traced phase, by name (missing = 0).
  virtual void layer_metrics(const Tracer& tracer,
                             std::map<std::string, double>& out) const = 0;
  /// Operations in the traced phase (a fixed count, so counters repeat).
  virtual std::int64_t traced_ops() const = 0;
};

struct Params {
  std::uint64_t seed = 1;
  bool smoke = false;  ///< tiny sizes, for the benchmark's own tests
};

std::unique_ptr<Workload> make_stencil_warm(const Params& params);
std::unique_ptr<Workload> make_script_sessions(const Params& params);
std::unique_ptr<Workload> make_remap_cold(const Params& params);

// --- statistics ------------------------------------------------------------

/// Linear-interpolation quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace bench
