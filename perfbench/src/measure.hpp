// Clock, sample statistics, digests and the result record shared by every
// benchmark pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Wall time of a fixed CPU-bound reference kernel that uses none of the
/// program's code: a binary heap, random updates of a 1 MiB table through
/// virtual calls with data-dependent branches, about 9 ms on a 2 GHz Xeon.  Its time tracks how fast
/// this shared host runs at the moment.
[[nodiscard]] std::int64_t reference_ns();

/// Converts measured durations to the time a host running at nominal
/// speed would have taken.  Every measured block is bracketed by reference
/// runs (the closing run of one block opens the next); the block's factor
/// is the nominal reference time over the mean of its two brackets.  On a
/// shared host the speed drifts within a second, so blocks are kept short.
class HostClock {
 public:
  HostClock() : last_(reference_ns()) {}
  /// Factor for the interval since the previous bracket; closes it and
  /// opens the next one.
  [[nodiscard]] double next_factor();
  /// `ns` measured since the previous bracket, in nominal-host time.
  [[nodiscard]] double scale(std::int64_t ns) {
    return static_cast<double>(ns) * next_factor();
  }

 private:
  std::int64_t last_;
};

/// Nominal-host time of a sequence of consecutive blocks, each scaled by
/// its own HostClock brackets.  The reference runs between blocks are not
/// counted.
class BlockTimer {
 public:
  /// Closes the block since the previous lap (or construction) and opens
  /// the next one.
  void lap();
  [[nodiscard]] double seconds() const noexcept { return total_ns_ * 1e-9; }

 private:
  HostClock clock_;
  std::int64_t start_ = now_ns();
  double total_ns_ = 0.0;
};

/// Median of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile `p` (in (0, 100]) of an ascending sample.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double p);

/// The reporting rule for tails: the highest percentile of the ladder
/// 50, 90, 95, 99, 99.5, 99.9, 99.99 that leaves at least ten of `n`
/// samples beyond its nearest-rank position; 0 when not even the median
/// qualifies.
[[nodiscard]] double highest_tail_percentile(std::size_t n);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a over the exact bits of the values fed to it.
class Digest {
 public:
  void add(double v);
  void add(std::int64_t v);
  void add(std::string_view s);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Everything a run reports: operation counts, correctness and metrics.
class Report {
 public:
  /// One operation attempted; `ok` false counts it failed.
  void attempt(bool ok, std::int64_t n = 1) {
    attempted_ += n;
    if (!ok) failed_ += n;
  }
  /// A correctness check outside the operation count.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] bool correct() const noexcept {
    return failed_ == 0 && errors_.empty();
  }
  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }

  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":..}.
  [[nodiscard]] std::string json() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, Value> metrics_;
};

}  // namespace perfbench
