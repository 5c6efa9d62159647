// Shared helpers of the perfbench harness: clocks and medians,
// the harness-side span log of the traced run, the serving-phase RSS
// sampler, /proc and sysfs readers for the run manifest, and a minimal
// JSON writer for the result line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `values`; 0 when empty.
inline double Median(std::vector<double> values) {
  return tilespmv::Percentile(std::move(values), 50.0);
}

/// Spans recorded from the harness around its calls into each layer: name,
/// start, end, parent span and a request id shared by the spans of one
/// request. Kept in memory and written once, at exit. Disabled logs record
/// nothing and return id 0. Only the load-generator thread records.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its id (ids start at 1; 0 = none).
  int64_t Begin(const char* name, int64_t parent = 0, int64_t request = 0);
  void End(int64_t id);
  /// Records an already-finished span.
  int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent = 0, int64_t request = 0);

  size_t size() const { return spans_.size(); }
  /// Writes {"spans":[{name,start_us,end_us,parent,request,id}...]}.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;
    int64_t request;
  };
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Samples the process's resident set size every few milliseconds on a
/// background thread between Start() and Stop(), keeping the maximum. Used
/// for the serving-phase high-water mark, which must not include the
/// harness's own input generation (that happens before Start()).
class RssSampler {
 public:
  RssSampler() = default;
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void Start();
  /// Stops sampling (idempotent) and returns the peak in MiB.
  double Stop();

 private:
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> peak_bytes_{0};
  std::thread thread_;
};

/// Current resident set size in bytes (0 if /proc is unavailable).
uint64_t CurrentRssBytes();

/// Aggregate CPU tick counters of /proc/stat's first line.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Steal time between two readings, as a percentage of all ticks.
double StealPercent(const CpuTicks& a, const CpuTicks& b);

/// Cache sizes of cpu0 from sysfs, in bytes (0 when unknown).
struct CacheSizes {
  uint64_t l2 = 0;
  uint64_t l3 = 0;
};
CacheSizes ReadCacheSizes();

/// Formats a double with all its significant digits.
std::string Num(double v);
/// Quotes and escapes a string for JSON.
std::string Quote(const std::string& s);

/// An ordered JSON object built from already-rendered values.
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, const std::string& raw_value);
  JsonObject& Set(const std::string& key, double v) { return Set(key, Num(v)); }
  JsonObject& SetInt(const std::string& key, int64_t v) {
    return Set(key, std::to_string(v));
  }
  JsonObject& SetStr(const std::string& key, const std::string& v) {
    return Set(key, Quote(v));
  }
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One reported metric: value and unit, in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
