#ifndef VISTA_OBS_METRICS_H_
#define VISTA_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vista::obs {

/// Monotonic counter (events, bytes, retries). Updates are relaxed atomic
/// fetch-adds; hot paths resolve the pointer once via Registry::counter and
/// pay one atomic add per event.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// A value that moves both ways (resident partitions, queue depth), with a
/// high-water mark.
class Gauge {
 public:
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
    UpdateMax(value);
  }
  void Add(int64_t delta = 1) {
    const int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdateMax(now);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max_value() const { return max_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void UpdateMax(int64_t candidate) {
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  }

  std::string name_;
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Fixed-bucket histogram for latencies and sizes. Record() finds the
/// bucket with a linear scan over the (small) bound list and performs only
/// relaxed atomic updates — no locks on the hot path, safe under concurrent
/// recording from the thread pool.
class Histogram {
 public:
  /// `value` in the unit the bounds were declared in (milliseconds for the
  /// default latency buckets).
  void Record(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Smallest / largest recorded value; 0 when empty.
  double min_value() const;
  double max_value() const;
  /// Approximate quantile (q in [0,1]) from the bucket counts, linear
  /// within a bucket and clamped to [min_value(), max_value()]. Reads are
  /// unsynchronized snapshots — fine for reporting, not for invariants.
  double Quantile(double q) const;

  /// Upper bounds of the finite buckets; an implicit +inf bucket follows.
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, size bounds().size() + 1 (last is the overflow).
  std::vector<int64_t> bucket_counts() const;

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::vector<double> bounds);

  std::string name_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Default latency buckets in milliseconds: 0.01 ms .. 60 s, roughly
/// 1-2.5-5 per decade. Suits everything from a per-layer conv forward to a
/// full persist pass.
std::vector<double> DefaultLatencyBucketsMs();

/// A named collection of metrics. Registration (the first use of a name)
/// takes a mutex; the returned pointers are stable for the registry's
/// lifetime and updating through them is lock-free, so components resolve
/// their instruments once at construction and the hot path never locks.
///
/// Scoping: each Engine owns a private Registry by default (tests stay
/// isolated); benches inject a shared one to export a whole run.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. A second call with the same name returns the same
  /// instrument (histogram bounds from the first call win).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name,
                       std::vector<double> bounds = DefaultLatencyBucketsMs());

  /// Snapshots for exporters, sorted by name.
  std::vector<const Counter*> counters() const;
  std::vector<const Gauge*> gauges() const;
  std::vector<const Histogram*> histograms() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Records elapsed milliseconds into a histogram when it goes out of scope.
/// A null histogram disables the timer (and the clock reads).
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedLatency() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Record(
        std::chrono::duration<double, std::milli>(elapsed).count());
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vista::obs

#endif  // VISTA_OBS_METRICS_H_
