// Spans recorded from outside the program, and the forwarding decorators
// that attribute governor, execution-time-draw and power-model time to the
// simulation span they run in.
//
// A span covers one call into a public function of a layer (run_sweep,
// simulate, simulate_global, plan_mp, ProtocolHandler::handle, Session
// calls).  Simulations started inside exp::run_sweep are not visible to the
// caller, so their span is the lifetime of the decorated governor: the exp
// layer constructs a fresh governor right before each simulation and
// destroys it right after.  Calls made through the decorators are not
// spans of their own; they are summed into the innermost open span as
// exclusive (nested-call-free) nanoseconds plus a call count.
//
// Tracing is single-threaded: a traced pass runs every sweep with one
// thread, and the tracer is installed for the calling thread only.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/power_model.hpp"
#include "sim/governor.hpp"
#include "task/workload.hpp"

namespace perfbench {

/// Work attributed to a span through the decorators.
enum Layer : std::size_t { kGovernor = 0, kDraw = 1, kPower = 2, kLayers = 3 };

struct Span {
  const char* name = "";
  std::string tag;  ///< governor, arm or request class
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::array<std::int64_t, kLayers> layer_ns{};
  std::array<std::int64_t, kLayers> layer_calls{};
  std::int64_t decisions = 0;  ///< Governor::select_speed calls

  [[nodiscard]] std::int64_t duration() const noexcept {
    return end_ns - start_ns;
  }
};

/// What a decorator adds per call, measured on a call into a model that
/// does nothing.
struct DecoratorCost {
  /// Booked to the layer: the part of the timer inside its own interval.
  double booked_ns = 0.0;
  /// Added to the enclosing span: the whole timer.
  double total_ns = 0.0;
};

/// One sample: the median of several timings of empty decorated calls.
[[nodiscard]] DecoratorCost measure_decorator_cost();

class Tracer {
 public:
  /// Opens a span as a child of the innermost open span.
  int open(const char* name, std::string tag = {});
  void close(int id);
  /// Records an already-measured span (used by the self-tests).
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::string tag = {});

  /// Index of the innermost open span, or -1.
  [[nodiscard]] int innermost() const noexcept {
    return open_.empty() ? -1 : open_.back();
  }
  [[nodiscard]] Span& span(int id) { return spans_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Self time of every span: its duration minus the part of it that its
  /// children's intervals cover (overlapping children are counted once).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

  /// The per-call decorator cost the layer figures are corrected by.
  void set_decorator_cost(DecoratorCost c) noexcept { cost_ = c; }
  [[nodiscard]] const DecoratorCost& decorator_cost() const noexcept {
    return cost_;
  }

 private:
  DecoratorCost cost_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Installs `t` as the calling thread's tracer for the scope's lifetime.
class TraceScope {
 public:
  explicit TraceScope(Tracer* t);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* previous_;
};

/// Opens a span on the active tracer (no-op without one).
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::string tag = {});
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

/// Forwards every Governor virtual to `inner`.  With an active tracer its
/// lifetime is a span named `span_name`, tagged with the governor's name.
class TimedGovernor final : public dvs::sim::Governor {
 public:
  TimedGovernor(dvs::sim::GovernorPtr inner, const char* span_name);
  ~TimedGovernor() override;
  TimedGovernor(const TimedGovernor&) = delete;
  TimedGovernor& operator=(const TimedGovernor&) = delete;

  void on_start(const dvs::sim::SimContext& ctx) override;
  void on_release(const dvs::sim::Job& job,
                  const dvs::sim::SimContext& ctx) override;
  void on_completion(const dvs::sim::Job& job,
                     const dvs::sim::SimContext& ctx) override;
  [[nodiscard]] double select_speed(const dvs::sim::Job& running,
                                    const dvs::sim::SimContext& ctx) override;
  [[nodiscard]] dvs::Time last_slack_estimate() const override;
  [[nodiscard]] std::string name() const override;

 private:
  dvs::sim::GovernorPtr inner_;
  Tracer* tracer_;
  int span_ = -1;
};

/// Forwards ExecutionTimeModel::draw and name to `inner`.
class TimedWorkload final : public dvs::task::ExecutionTimeModel {
 public:
  explicit TimedWorkload(dvs::task::ExecutionTimeModelPtr inner);
  [[nodiscard]] dvs::Work draw(const dvs::task::Task& task,
                               std::int64_t job_index) const override;
  [[nodiscard]] std::string name() const override;

 private:
  dvs::task::ExecutionTimeModelPtr inner_;
};

/// Forwards every PowerModel virtual to `inner`.
class TimedPower final : public dvs::cpu::PowerModel {
 public:
  explicit TimedPower(dvs::cpu::PowerModelPtr inner);
  [[nodiscard]] double busy_power(double alpha) const override;
  [[nodiscard]] double idle_power() const override;
  [[nodiscard]] double voltage(double alpha) const override;
  [[nodiscard]] std::string name() const override;

 private:
  dvs::cpu::PowerModelPtr inner_;
};

}  // namespace perfbench
