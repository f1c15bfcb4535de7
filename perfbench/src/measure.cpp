#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "obs/json_writer.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

/// reference_ns() of the host the nominal figures refer to.
constexpr double kNominalReferenceNs = 9e6;

volatile double g_reference_sink = 0.0;

/// Small polymorphic steps, called through a base pointer picked by random
/// bits: the indirect calls and data-dependent branches of an event loop
/// with virtual governors.
struct Step {
  virtual ~Step() = default;
  virtual double apply(double x, double y) const = 0;
};
struct Mix final : Step {
  double apply(double x, double y) const override {
    return x < y ? x * 0.5 + y : y - x * 0.25;
  }
};
struct Root final : Step {
  double apply(double x, double y) const override {
    return std::sqrt(x + y);
  }
};
struct Ratio final : Step {
  double apply(double x, double y) const override {
    return x > 0.5 ? y / (1.0 + x) : x / (1.0 + y);
  }
};
struct Clamp final : Step {
  double apply(double x, double y) const override {
    return std::clamp(x - y, -0.5, 0.5);
  }
};

}  // namespace

std::int64_t reference_ns() {
  constexpr std::size_t kTable = std::size_t{1} << 17;  // 1 MiB of doubles
  constexpr std::size_t kHeap = 4096;
  static std::vector<double> table(kTable);
  static const Mix mix;
  static const Root root;
  static const Ratio ratio;
  static const Clamp clamp;
  static const std::array<const Step*, 4> steps{&mix, &root, &ratio, &clamp};
  std::vector<double> heap;
  heap.reserve(kHeap);
  const std::int64_t start = now_ns();
  std::uint64_t s = 88172645463325252ULL;
  double acc = 0.0;
  for (int i = 0; i < 100000; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    const double x = static_cast<double>(s >> 11) * 0x1.0p-53;
    double& slot = table[s & (kTable - 1)];
    slot = steps[(s >> 40) & 3]->apply(x, slot);
    acc += steps[(s >> 50) & 3]->apply(slot, table[(s >> 20) & (kTable - 1)]);
    heap.push_back(x);
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() >= kHeap) {
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
  }
  g_reference_sink = acc;
  return now_ns() - start;
}

double HostClock::next_factor() {
  const std::int64_t now = reference_ns();
  const double mean = 0.5 * static_cast<double>(last_ + now);
  last_ = now;
  return kNominalReferenceNs / mean;
}

void BlockTimer::lap() {
  const std::int64_t end = now_ns();
  total_ns_ += clock_.scale(end - start_);
  start_ = now_ns();
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : dvs::util::percentile(std::move(v), 50.0);
}

namespace {

/// 1-based nearest rank of percentile p in a sample of n.
std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

double highest_tail_percentile(std::size_t n) {
  static constexpr std::array<double, 7> kLadder{50.0, 90.0, 95.0, 99.0,
                                                 99.5, 99.9, 99.99};
  double best = 0.0;
  if (n == 0) return best;
  for (const double p : kLadder) {
    if (n - nearest_rank(n, p) >= 10) best = p;
  }
  return best;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) { bytes(&v, sizeof v); }
void Digest::add(std::int64_t v) { bytes(&v, sizeof v); }
void Digest::add(std::string_view s) {
  bytes(s.data(), s.size());
  add(static_cast<std::int64_t>(s.size()));
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    errors_.push_back("metric " + name + " is not finite");
    value = -1.0;
  }
  metrics_[name] = {value, unit};
}

std::string Report::json() const {
  std::string out;
  dvs::obs::JsonWriter j(out);
  j.begin_object()
      .kv("correct", correct())
      .kv("attempted", attempted_)
      .kv("failed", failed_);
  j.key("metrics").begin_object();
  for (const auto& [name, v] : metrics_) {
    j.key(name).begin_object().kv("value", v.value).kv("unit", v.unit);
    j.end_object();
  }
  j.end_object().end_object();
  return out;
}

}  // namespace perfbench
