// Shared pieces of the perfbench binary: run arguments, the metric sink,
// benchmark-side spans, host facts and small statistics helpers. Nothing
// here reaches into the library beyond its public headers.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace perfbench {

/// Command-line settings of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: tiny budgets and a short window, same checks.
  bool smoke = false;
  /// Directory (inside the checkout) for sockets, spools and traces.
  std::string work_dir;
  /// The process-pool worker binary, next to the perfbench binary.
  std::string worker_binary;
};

/// Ordered name -> (value, unit) map of reported metrics.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }
  [[nodiscard]] double value(size_t i) const { return values_[i]; }
  [[nodiscard]] const std::string& unit(size_t i) const { return units_[i]; }

 private:
  std::vector<std::string> names_;
  std::vector<double> values_;
  std::vector<std::string> units_;
};

/// What a run reports: the correctness verdict, operation counts and the
/// two metric sets (end-to-end for untraced runs, per-layer for traced).
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;

  /// Marks the run incorrect and explains why on stderr.
  void Fail(const std::string& why);
};

/// Seconds on the monotonic clock since the first call in this process.
[[nodiscard]] double Now();

/// Benchmark-side span recorder. Spans are kept in memory (thread-safe)
/// and written once, as Chrome trace-event JSON, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t tid = 0;
  };

  /// Null unless this is a traced run.
  [[nodiscard]] static Tracer* Active();
  static void Enable();
  /// Suspends recording (for the untraced half of a traced run).
  static void Disable();

  /// Reserves an id for a span that is recorded when it ends.
  uint64_t NextId();
  void RecordWithId(uint64_t id, const std::string& name, double start,
                    double end, uint64_t parent, uint64_t tid);

  [[nodiscard]] bool WriteChromeTrace(const std::string& path) const;
  [[nodiscard]] size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// RAII span around one call into a layer; free when tracing is off.
/// Its parent is the innermost open span on the same thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_ = 0;
  double start_ = 0.0;
};

// -- statistics --------------------------------------------------------------

[[nodiscard]] double Median(std::vector<double> v);
/// The 99th percentile (nearest rank), or, with fewer than 1000 samples,
/// the highest order statistic with at least ten samples beyond it, and
/// with fewer than 100 the 90th percentile (the largest sample when there
/// are ten or fewer). With fewer than forty samples it is no real tail;
/// the README gives each metric's count.
[[nodiscard]] double Tail(std::vector<double> v);
[[nodiscard]] double Mean(const std::vector<double>& v);
/// Geometric mean of positive samples.
[[nodiscard]] double GeoMean(const std::vector<double>& v);
[[nodiscard]] double Sum(const std::vector<double>& v);

// -- inputs and checks -------------------------------------------------------

/// SplitMix64 finalizer: derives independent sub-seeds.
[[nodiscard]] uint64_t Mix(uint64_t a, uint64_t b);
/// Seeded permutation of 0..n-1 (Fisher-Yates over a 64-bit SplitMix
/// stream, so it is the same on every platform).
[[nodiscard]] std::vector<size_t> Permutation(size_t n, uint64_t seed);
/// Headerless numeric CSV, features then the class id, %.17g digits.
[[nodiscard]] std::string ToCsv(const volcanoml::Dataset& data);
/// Mean per-class recall over the classes present in `truth`; written
/// here, apart from the library's metrics.
[[nodiscard]] double BalancedAccuracy(const std::vector<double>& truth,
                                      const std::vector<double>& predicted);
/// Bitwise equality of two doubles.
[[nodiscard]] bool SameBits(double a, double b);

// -- host and process --------------------------------------------------------

/// CPUs in this process's affinity mask.
[[nodiscard]] int AffinityCpus();
/// One JSON object with the host facts and the workload seed.
[[nodiscard]] std::string HostFactsJson(const Args& args);
/// Peak resident set of this process and of any reaped child, in MiB.
[[nodiscard]] double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
