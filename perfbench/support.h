// Measurement helpers for the end-to-end benchmark: exact percentiles over
// raw samples, an in-memory span tracer with self-time accounting, the FMA
// peak probe, and the result printer. Everything here is benchmark-side;
// nothing reads the program's own histograms or quantile estimates.

#ifndef VISTA_PERFBENCH_SUPPORT_H_
#define VISTA_PERFBENCH_SUPPORT_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Exact percentile of raw samples, linear interpolation between order
/// statistics (numpy's default). Always within [min, max]. 0 when empty.
double Percentile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Samples strictly above the `q` percentile: the rule for the highest
/// reportable percentile is that at least ten samples lie beyond it.
int SamplesBeyond(const std::vector<double>& samples, double q);

/// min <= p50 <= p95 <= max on `samples`; false (with a message on
/// stderr) otherwise.
bool PercentilesOrdered(const std::vector<double>& samples, const char* what);

/// One completed span. Times are nanoseconds since the tracer's epoch; the
/// layer is the module prefix of the name ("dl.layer.conv5" -> "dl").
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;
  /// Job or query the span belongs to (0 = outside any job).
  int64_t job = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory tracer for spans the benchmark wraps around calls into the
/// program's modules. Spans nest on the driver thread; spans of work that
/// ran elsewhere (served queries) are added after the fact with explicit
/// times. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t id_ = 0;
  };

  int64_t NowNs() const;
  int64_t ToNs(Clock::time_point t) const;

  /// Adds a completed span with explicit bounds; returns its id.
  int64_t Add(std::string name, int64_t parent, int64_t job, int64_t start_ns,
              int64_t end_ns);

  /// Self time (span minus the parts its children cover) in ms, summed
  /// over every span named `name`.
  double SelfMs(const std::string& name) const;
  /// Same, summed over every span whose name starts with `prefix`.
  double SelfMsPrefix(const std::string& prefix) const;
  /// Sum of self times of all descendants of root spans named `root`,
  /// divided by the summed duration of those roots.
  double Coverage(const std::string& root) const;
  /// Summed duration of spans named `name`, in ms.
  double TotalMs(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<double> SelfNs() const;

  bool enabled_;
  Clock::time_point epoch_;
  int64_t next_id_ = 1;
  std::vector<int64_t> open_;
  std::vector<Span> spans_;
};

/// Measured fp32 FMA throughput of `threads` cores running independent FMA
/// chains concurrently, in GFLOP/s (2 FLOPs per lane per FMA), on 512-bit
/// lanes (256-bit when the CPU lacks AVX-512).
double FmaPeakGflops(int threads);

/// Ordered name -> (value, unit) map printed as the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  /// Prints "name value unit" lines to stdout for humans.
  void PrintTable(const char* title) const;
  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}
  /// restricted to `names` (all of which must be set), in that order.
  void PrintResult(bool correct, int64_t attempted, int64_t failed,
                   const std::vector<std::string>& names) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench

#endif  // VISTA_PERFBENCH_SUPPORT_H_
