#include "support.h"

#include <immintrin.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_map>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

int SamplesBeyond(const std::vector<double>& samples, double q) {
  const double p = Percentile(samples, q);
  int n = 0;
  for (double s : samples) n += s > p ? 1 : 0;
  return n;
}

bool PercentilesOrdered(const std::vector<double>& samples, const char* what) {
  if (samples.empty()) return true;
  const double mn = *std::min_element(samples.begin(), samples.end());
  const double mx = *std::max_element(samples.begin(), samples.end());
  const double p50 = Percentile(samples, 0.5);
  const double p95 = Percentile(samples, 0.95);
  if (mn <= p50 && p50 <= p95 && p95 <= mx) return true;
  std::fprintf(stderr,
               "CHECK FAILED: %s percentiles out of order: min %.6f p50 %.6f "
               "p95 %.6f max %.6f\n",
               what, mn, p50, p95, mx);
  return false;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int64_t Tracer::NowNs() const { return ToNs(Clock::now()); }

int64_t Tracer::ToNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, int64_t job)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = std::move(name);
  span.id = tracer_->next_id_++;
  span.parent = tracer_->open_.empty() ? 0 : tracer_->open_.back();
  span.job = job;
  span.start_ns = tracer_->NowNs();
  id_ = span.id;
  tracer_->open_.push_back(span.id);
  tracer_->spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  if (!tracer_->enabled_) return;
  tracer_->open_.pop_back();
  // Spans open in LIFO order on the driver thread, so the span being
  // closed is the last one with this id; search from the back.
  for (auto it = tracer_->spans_.rbegin(); it != tracer_->spans_.rend();
       ++it) {
    if (it->id == id_) {
      it->end_ns = tracer_->NowNs();
      break;
    }
  }
}

int64_t Tracer::Add(std::string name, int64_t parent, int64_t job,
                    int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return 0;
  Span span;
  span.name = std::move(name);
  span.id = next_id_++;
  span.parent = parent;
  span.job = job;
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<double> Tracer::SelfNs() const {
  std::unordered_map<int64_t, double> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto it = child_ns.find(s.id);
    const double children = it == child_ns.end() ? 0 : it->second;
    self[i] = std::max(0.0, static_cast<double>(s.end_ns - s.start_ns) -
                                children);
  }
  return self;
}

double Tracer::SelfMs(const std::string& name) const {
  const std::vector<double> self = SelfNs();
  double ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) ns += self[i];
  }
  return ns * 1e-6;
}

double Tracer::SelfMsPrefix(const std::string& prefix) const {
  const std::vector<double> self = SelfNs();
  double ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name.rfind(prefix, 0) == 0) ns += self[i];
  }
  return ns * 1e-6;
}

double Tracer::TotalMs(const std::string& name) const {
  double ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return ns * 1e-6;
}

double Tracer::Coverage(const std::string& root) const {
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  const std::vector<double> self = SelfNs();
  double covered = 0, total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == root) {
      total += spans_[i].end_ns - spans_[i].start_ns;
      continue;
    }
    for (int64_t p = spans_[i].parent; p != 0;) {
      const Span& parent = spans_[index.at(p)];
      if (parent.name == root) {
        covered += self[i];
        break;
      }
      p = parent.parent;
    }
  }
  return total > 0 ? covered / total : 0;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                 "\"job\": %lld, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.name.c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.job),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

// Twelve independent accumulator chains: enough in flight to cover the FMA
// latency on both ports, as in a GEMM micro-kernel's accumulator block.
constexpr int kChains = 12;

__attribute__((target("avx512f"))) float FmaLoop512(int64_t iters) {
  __m512 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_ps(0.001f * c);
  const __m512 a = _mm512_set1_ps(0.999999f);
  const __m512 b = _mm512_set1_ps(1e-7f);
  for (int64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 12
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_ps(acc[c], a, b);
  }
  __m512 sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm512_add_ps(sum, acc[c]);
  float lanes[16];
  _mm512_storeu_ps(lanes, sum);
  float total = 0;
  for (float v : lanes) total += v;
  return total;
}

__attribute__((target("avx2,fma"))) float FmaLoop256(int64_t iters) {
  __m256 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_ps(0.001f * c);
  const __m256 a = _mm256_set1_ps(0.999999f);
  const __m256 b = _mm256_set1_ps(1e-7f);
  for (int64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 12
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_ps(acc[c], a, b);
  }
  __m256 sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm256_add_ps(sum, acc[c]);
  float lanes[8];
  _mm256_storeu_ps(lanes, sum);
  float total = 0;
  for (float v : lanes) total += v;
  return total;
}

}  // namespace

namespace {

double FmaTrialGflops(int threads, bool zmm) {
  const int lanes = zmm ? 16 : 8;
  const int64_t iters = 20'000'000;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<float> sink(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      sink[t] = zmm ? FmaLoop512(iters) : FmaLoop256(iters);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const Clock::time_point start = Clock::now();
  go.store(true);
  for (std::thread& w : workers) w.join();
  const double seconds = SecondsBetween(start, Clock::now());
  float keep = 0;
  for (float s : sink) keep += s;
  if (std::isnan(keep)) std::fprintf(stderr, "fma probe: nan\n");
  const double flops = 2.0 * lanes * kChains * static_cast<double>(iters) *
                       threads;
  return flops / seconds * 1e-9;
}

}  // namespace

double FmaPeakGflops(int threads) {
  const bool zmm = __builtin_cpu_supports("avx512f");
  // The best of several short trials: a peak is what the cores reach when
  // nothing else is running, and other processes only ever lower a trial.
  double best = 0;
  for (int trial = 0; trial < 5; ++trial) {
    best = std::max(best, FmaTrialGflops(threads, zmm));
  }
  return best;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

void Metrics::PrintTable(const char* title) const {
  std::printf("-- %s\n", title);
  for (const auto& [name, v] : values_) {
    std::printf("  %-40s %16.6f %s\n", name.c_str(), v.first,
                v.second.c_str());
  }
}

void Metrics::PrintResult(bool correct, int64_t attempted, int64_t failed,
                          const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto& [value, unit] = values_.at(name);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
           "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
