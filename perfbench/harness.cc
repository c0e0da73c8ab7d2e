#include "harness.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Tail summarize(const std::vector<double>& samples) {
  Tail tail;
  tail.n = samples.size();
  if (samples.empty()) {
    return tail;
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&sorted](double q) {
    const auto idx = static_cast<std::size_t>(
        std::llround(q * static_cast<double>(sorted.size() - 1)));
    return sorted[std::min(idx, sorted.size() - 1)];
  };
  tail.p50 = at(0.5);
  tail.p99 = at(0.99);
  tail.tail = tail.p50;
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const double beyond =
        static_cast<double>(sorted.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0) {
      tail.tail = at(pct / 100.0);
      tail.tail_pct = pct;
      break;
    }
  }
  return tail;
}

std::string tail_json(const Tail& tail, const char* unit) {
  return Json()
      .num("p50", tail.p50)
      .num("tail_pct", tail.tail_pct)
      .num("tail", tail.tail)
      .u64("n", tail.n)
      .str("unit", unit)
      .dump();
}

Cpus::Cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (std::size_t cpu = 0; cpu < static_cast<std::size_t>(CPU_SETSIZE);
         ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

void Cpus::pin(std::size_t k) const { pin_range(k, 1); }

void Cpus::pin_range(std::size_t k, std::size_t n) const {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < n; ++i) {
    CPU_SET(cpus_[(k + i) % cpus_.size()], &set);
  }
  static_cast<void>(::sched_setaffinity(0, sizeof set, &set));
}

void Cpus::unpin() const { pin_range(0, cpus_.size()); }

namespace {

std::int64_t status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stoll(line.substr(prefix.size()));
    }
  }
  return 0;
}

}  // namespace

void PeakMemory::reset() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  kernel_peak_ = static_cast<bool>(clear);
  baseline_kb_ = status_kb("VmRSS");
  sampled_kb_ = baseline_kb_;
}

void PeakMemory::sample() {
  sampled_kb_ = std::max(sampled_kb_, status_kb("VmRSS"));
}

double PeakMemory::peak_mb() {
  sample();
  const std::int64_t peak =
      kernel_peak_ ? std::max(status_kb("VmHWM"), sampled_kb_) : sampled_kb_;
  return static_cast<double>(peak - baseline_kb_) / 1024.0;
}

std::uint32_t Tracer::span(const char* name, std::int64_t start_ns,
                           std::int64_t end_ns, std::uint32_t parent,
                           std::uint32_t thread) {
  if (!on_) {
    return 0;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, thread});
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::close(std::uint32_t id, std::int64_t end_ns) {
  if (!on_ || id == 0) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id - 1).end_ns = end_ns;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%u}}",
                  i == 0 ? "" : ",", s.name, s.thread,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                  s.parent);
    out << buf;
  }
  out << "\n]}\n";
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

Json& Json::num(const std::string& key, double value) {
  fields_.emplace_back(key, json_number(value));
  return *this;
}

Json& Json::u64(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_string(value));
  return *this;
}

Json& Json::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Json& Json::raw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
