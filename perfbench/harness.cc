#include "harness.h"

#include <cstdio>
#include <fstream>

#include <unistd.h>

#include "obs/trace.h"

namespace perfbench {

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t request) {
  if (!enabled_) return 0;
  const double now = Micros(Clock::now());
  spans_.push_back(Span{name, now, -1.0, parent, request});
  return static_cast<int64_t>(spans_.size());
}

void SpanLog::End(int64_t id) {
  if (id <= 0 || id > static_cast<int64_t>(spans_.size())) return;
  spans_[static_cast<size_t>(id - 1)].end_us = Micros(Clock::now());
}

int64_t SpanLog::Add(const char* name, Clock::time_point start,
                     Clock::time_point end, int64_t parent, int64_t request) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, Micros(start), Micros(end), parent, request});
  return static_cast<int64_t>(spans_.size());
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"id\":" << (i + 1) << ",\"name\":" << Quote(s.name)
        << ",\"start_us\":" << Num(s.start_us)
        << ",\"end_us\":" << Num(s.end_us) << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

uint64_t CurrentRssBytes() {
  // statm: size resident shared ... in pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<uint64_t>(resident) *
         static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

void RssSampler::Start() {
  Stop();
  peak_bytes_.store(CurrentRssBytes());
  running_.store(true);
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_relaxed)) {
      const uint64_t rss = CurrentRssBytes();
      if (rss > peak_bytes_.load(std::memory_order_relaxed)) {
        peak_bytes_.store(rss, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

double RssSampler::Stop() {
  if (thread_.joinable()) {
    running_.store(false);
    thread_.join();
    const uint64_t rss = CurrentRssBytes();
    if (rss > peak_bytes_.load()) peak_bytes_.store(rss);
  }
  return static_cast<double>(peak_bytes_.load()) / (1024.0 * 1024.0);
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already included in user/nice).
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealPercent(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

namespace {

uint64_t ParseCacheSize(const std::string& text) {
  uint64_t v = 0;
  size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    v = v * 10 + static_cast<uint64_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size() && (text[i] == 'K' || text[i] == 'k')) v <<= 10;
  if (i < text.size() && (text[i] == 'M' || text[i] == 'm')) v <<= 20;
  return v;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

CacheSizes ReadCacheSizes() {
  CacheSizes c;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = ReadFirstLine(dir + "level");
    if (level.empty()) break;
    const uint64_t size = ParseCacheSize(ReadFirstLine(dir + "size"));
    if (level == "2") c.l2 = size;
    if (level == "3") c.l3 = size;
  }
  return c;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  return "\"" + tilespmv::obs::JsonEscape(s) + "\"";
}

JsonObject& JsonObject::Set(const std::string& key,
                            const std::string& raw_value) {
  fields_.emplace_back(key, raw_value);
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
