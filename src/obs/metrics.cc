#include "obs/metrics.h"

#include <algorithm>

namespace vista::obs {

namespace {

/// Relaxed CAS-min/max for atomic doubles. `count_first` guards the
/// empty-histogram case: the first Record seeds both extremes.
void AtomicMin(std::atomic<double>* target, double candidate) {
  double seen = target->load(std::memory_order_relaxed);
  while (candidate < seen &&
         !target->compare_exchange_weak(seen, candidate,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double candidate) {
  double seen = target->load(std::memory_order_relaxed);
  while (candidate > seen &&
         !target->compare_exchange_weak(seen, candidate,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

std::vector<double> DefaultLatencyBucketsMs() {
  return {0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,    5.0,
          10.0, 25.0,  50.0, 100., 250., 500., 1000.0, 2500.0, 5000.0,
          10000.0, 30000.0, 60000.0};
}

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Record(double value) {
  size_t bucket = bounds_.size();
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // Seed the extremes on the first record; the CAS loops keep them exact
  // under concurrency afterwards. The count is bumped last so a reader that
  // sees count >= 1 also sees seeded extremes.
  if (count_.load(std::memory_order_relaxed) == 0) {
    double expected = 0.0;
    min_.compare_exchange_strong(expected, value, std::memory_order_relaxed);
    expected = 0.0;
    max_.compare_exchange_strong(expected, value, std::memory_order_relaxed);
  }
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
  count_.fetch_add(1, std::memory_order_relaxed);
}

double Histogram::mean() const {
  const int64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min_value() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max_value() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::bucket_counts() const {
  std::vector<int64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::vector<int64_t> counts = bucket_counts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // Bucket interpolation can land outside the recorded extremes (a bucket's
  // lower bound sits below its smallest sample), so clamp into them. `hi`
  // is floored at `lo` so a racing reader never sees an inverted range.
  const double lo = min_value();
  const double hi = std::max(lo, max_value());
  const double target = q * static_cast<double>(total);
  int64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const int64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= target && counts[i] > 0) {
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = i < bounds_.size() ? bounds_[i] : hi;
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[i]);
      return std::clamp(
          lower + (upper - lower) * std::clamp(within, 0.0, 1.0), lo, hi);
    }
    cumulative = next;
  }
  return hi;
}

Counter* Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, std::unique_ptr<Counter>(new Counter(name)))
             .first;
  }
  return it->second.get();
}

Gauge* Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(name))).first;
  }
  return it->second.get();
}

Histogram* Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(
                                new Histogram(name, std::move(bounds))))
             .first;
  }
  return it->second.get();
}

std::vector<const Counter*> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Counter*> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.push_back(c.get());
  return out;
}

std::vector<const Gauge*> Registry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Gauge*> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.push_back(g.get());
  return out;
}

std::vector<const Histogram*> Registry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Histogram*> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.push_back(h.get());
  return out;
}

}  // namespace vista::obs
