#include "harness.hpp"

#include <algorithm>
#include <cstdio>

namespace bench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void jacobi_sweep(const double* src, double* dst, int rows, int cols) {
  for (int j = 1; j < cols - 1; ++j) {
    const double* c = src + static_cast<std::ptrdiff_t>(j) * rows;
    const double* w = c - rows;
    const double* e = c + rows;
    double* out = dst + static_cast<std::ptrdiff_t>(j) * rows;
    for (int i = 1; i < rows - 1; ++i) {
      out[i] = (((c[i - 1] + c[i + 1]) + w[i]) + e[i]) * 0.25;
    }
  }
}

double Calibrator::sample_us() {
  constexpr int kCalls = 9;
  double calls[kCalls];
  for (double& us : calls) {
    const Clock::time_point t0 = Clock::now();
    workload_->calibrate();
    us = us_between(t0, Clock::now());
  }
  std::sort(calls, calls + kCalls);
  samples_.push_back(calls[kCalls / 2]);
  return samples_.back();
}

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

int Tracer::name_id(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.emplace_back(name);
  return static_cast<int>(names_.size() - 1);
}

// The clock is read last on open and first on close, so a span's interval
// holds as little of the tracer's own bookkeeping as possible.
Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_) return;
  Span s;
  s.name = tracer_->name_id(name);
  s.parent = tracer_->open_;
  s.op = tracer_->op_;
  index_ = static_cast<int>(tracer_->spans_.size());
  saved_parent_ = tracer_->open_;
  tracer_->open_ = index_;
  tracer_->spans_.push_back(s);
  tracer_->spans_.back().start_us = us_between(tracer_->origin_, Clock::now());
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  const double now_us = us_between(tracer_->origin_, Clock::now());
  Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.dur_us = now_us - s.start_us;
  tracer_->open_ = saved_parent_;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  int id = -1;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) id = static_cast<int>(i);
  }
  if (id < 0) return out;
  for (const Span& s : spans_) {
    if (s.name == id) out.push_back(s.dur_us);
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                 "\"span\":%zu,\"parent\":%d}}%s\n",
                 names_[static_cast<std::size_t>(s.name)].c_str(), s.start_us,
                 s.dur_us, static_cast<long long>(s.op), i, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot finish trace file " + path);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace bench
