#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <sstream>

#include "bench.h"
#include "data/simd.h"

namespace perfbench {

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      values_[i] = value;
      units_[i] = unit;
      return;
    }
  }
  names_.push_back(name);
  values_.push_back(value);
  units_.push_back(unit);
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

namespace {
std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<uint64_t> g_next_tid{0};
thread_local uint64_t t_open_span = 0;
thread_local uint64_t t_tid = g_next_tid++;
}  // namespace

Tracer* Tracer::Active() { return g_tracer.load(); }

void Tracer::Enable() {
  static Tracer tracer;
  g_tracer = &tracer;
}

void Tracer::Disable() { g_tracer = nullptr; }

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::RecordWithId(uint64_t id, const std::string& name, double start,
                          double end, uint64_t parent, uint64_t tid) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, id, parent, tid});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %" PRIu64 ", \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 "}}%s\n",
                 s.name.c_str(), s.tid, s.start * 1e6,
                 (s.end - s.start) * 1e6, s.id, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name)
    : tracer_(Tracer::Active()), name_(name), parent_(t_open_span) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NextId();
  t_open_span = id_;
  start_ = Now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->RecordWithId(id_, name_, start_, Now(), parent_, t_tid);
  t_open_span = parent_;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= 10) return v[n - 1];
  // The 99th percentile (nearest rank) once it has ten samples beyond it;
  // never below the 90th, which small samples would otherwise fall under.
  const size_t p99 = (99 * n + 99) / 100 - 1;
  const size_t p90 = (9 * n + 9) / 10 - 1;
  return v[std::max(std::min(p99, n - 11), p90)];
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  uint64_t state = seed;
  for (size_t i = n; i > 1; --i) {
    state = Mix(state, i);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

std::string ToCsv(const volcanoml::Dataset& data) {
  std::string out;
  char cell[40];
  for (size_t i = 0; i < data.NumSamples(); ++i) {
    for (size_t j = 0; j < data.NumFeatures(); ++j) {
      std::snprintf(cell, sizeof(cell), "%.17g,", data.x()(i, j));
      out += cell;
    }
    std::snprintf(cell, sizeof(cell), "%d\n", data.Label(i));
    out += cell;
  }
  return out;
}

double BalancedAccuracy(const std::vector<double>& truth,
                        const std::vector<double>& predicted) {
  std::map<double, std::pair<size_t, size_t>> per_class;  // hits, total
  for (size_t i = 0; i < truth.size(); ++i) {
    auto& counts = per_class[truth[i]];
    counts.second += 1;
    if (i < predicted.size() && predicted[i] == truth[i]) counts.first += 1;
  }
  if (per_class.empty()) return 0.0;
  double recall_sum = 0.0;
  for (const auto& [label, counts] : per_class) {
    recall_sum += static_cast<double>(counts.first) /
                  static_cast<double>(counts.second);
  }
  return recall_sum / static_cast<double>(per_class.size());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string HostFactsJson(const Args& args) {
  std::ostringstream out;
  out << "{\"host\": {\"affinity_cpus\": " << AffinityCpus()
      << ", \"simd\": \""
      << volcanoml::SimdLevelName(volcanoml::ActiveSimdLevel())
      << "\", \"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"workload\": \"" << args.workload
      << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"smoke\": " << (args.smoke ? 1 : 0) << "}}";
  return out.str();
}

double PeakRssMb() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

}  // namespace perfbench
