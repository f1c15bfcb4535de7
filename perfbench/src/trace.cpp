#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "measure.hpp"
#include "obs/json_writer.hpp"

namespace perfbench {

namespace {

thread_local Tracer* tl_tracer = nullptr;
/// Decorated-call nanoseconds spent inside the call being timed, so the
/// enclosing call can book only its exclusive time.
thread_local std::int64_t tl_nested_ns = 0;

/// Books the exclusive duration of one decorated call to the innermost
/// open span of the thread's tracer.
class LayerTimer {
 public:
  explicit LayerTimer(Layer layer, bool decision = false)
      : layer_(layer), decision_(decision), tracer_(tl_tracer) {
    if (tracer_ == nullptr || (span_ = tracer_->innermost()) < 0) return;
    saved_ = tl_nested_ns;
    tl_nested_ns = 0;
    start_ = now_ns();
  }
  ~LayerTimer() {
    if (span_ < 0) return;
    const std::int64_t dt = now_ns() - start_;
    Span& s = tracer_->span(span_);
    s.layer_ns[layer_] += dt - tl_nested_ns;
    ++s.layer_calls[layer_];
    if (decision_) ++s.decisions;
    tl_nested_ns = saved_ + dt;
  }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  Layer layer_;
  bool decision_;
  Tracer* tracer_;
  int span_ = -1;
  std::int64_t saved_ = 0;
  std::int64_t start_ = 0;
};

/// A power model that does nothing, so a decorated call costs only the
/// decorator.
class NullPower final : public dvs::cpu::PowerModel {
 public:
  double busy_power(double /*alpha*/) const override { return 0.0; }
  double idle_power() const override { return 0.0; }
  double voltage(double /*alpha*/) const override { return 0.0; }
  std::string name() const override { return "null"; }
};

volatile double g_cost_sink = 0.0;

}  // namespace

DecoratorCost measure_decorator_cost() {
  constexpr int kCalls = 100000;
  constexpr int kRepeats = 7;
  const auto inner = std::make_shared<const NullPower>();
  const TimedPower timed(inner);
  // Called through volatile pointers so neither loop is devirtualized.
  const dvs::cpu::PowerModel* volatile plain_model = inner.get();
  const dvs::cpu::PowerModel* volatile timed_model = &timed;
  std::vector<double> booked;
  std::vector<double> total;
  double sink = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    const dvs::cpu::PowerModel* plain = plain_model;
    std::int64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) sink += plain->idle_power();
    const std::int64_t plain_ns = now_ns() - t0;

    Tracer tracer;
    const TraceScope scope(&tracer);
    const int span = tracer.open("decorator_cost");
    const dvs::cpu::PowerModel* decorated = timed_model;
    t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) sink += decorated->idle_power();
    const std::int64_t timed_ns = now_ns() - t0;
    tracer.close(span);
    booked.push_back(static_cast<double>(tracer.span(span).layer_ns[kPower]) /
                     kCalls);
    total.push_back(static_cast<double>(timed_ns - plain_ns) / kCalls);
  }
  g_cost_sink = sink;
  return {median(std::move(booked)), median(std::move(total))};
}

int Tracer::open(const char* name, std::string tag) {
  const int parent = open_.empty() ? -1 : open_.back();
  const int id = add(name, now_ns(), 0, parent, std::move(tag));
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans must close innermost first");
  }
  span(id).end_ns = now_ns();
  open_.pop_back();
}

int Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, std::string tag) {
  Span s;
  s.name = name;
  s.tag = std::move(tag);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans_[c].start_ns, p.start_ns);
      const std::int64_t b = std::min(spans_[c].end_ns, p.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = p.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[i] = p.duration() - covered;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  std::string line;
  for (const Span& s : spans_) {
    line.clear();
    dvs::obs::JsonWriter j(line);
    j.begin_object()
        .kv("name", s.name)
        .kv("tag", s.tag)
        .kv("start_ns", s.start_ns)
        .kv("end_ns", s.end_ns)
        .kv("parent", s.parent)
        .kv("decisions", s.decisions)
        .kv("governor_ns", s.layer_ns[kGovernor])
        .kv("draw_ns", s.layer_ns[kDraw])
        .kv("draws", s.layer_calls[kDraw])
        .kv("power_ns", s.layer_ns[kPower])
        .kv("power_calls", s.layer_calls[kPower])
        .end_object();
    out << line << '\n';
  }
}

TraceScope::TraceScope(Tracer* t) : previous_(tl_tracer) { tl_tracer = t; }
TraceScope::~TraceScope() { tl_tracer = previous_; }

SpanScope::SpanScope(const char* name, std::string tag) : tracer_(tl_tracer) {
  if (tracer_ != nullptr) id_ = tracer_->open(name, std::move(tag));
}
SpanScope::~SpanScope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

// --- Governor -------------------------------------------------------------

TimedGovernor::TimedGovernor(dvs::sim::GovernorPtr inner,
                             const char* span_name)
    : inner_(std::move(inner)), tracer_(tl_tracer) {
  if (tracer_ != nullptr) span_ = tracer_->open(span_name, inner_->name());
}

TimedGovernor::~TimedGovernor() {
  if (tracer_ != nullptr) tracer_->close(span_);
}

void TimedGovernor::on_start(const dvs::sim::SimContext& ctx) {
  LayerTimer t(kGovernor);
  inner_->on_start(ctx);
}

void TimedGovernor::on_release(const dvs::sim::Job& job,
                               const dvs::sim::SimContext& ctx) {
  LayerTimer t(kGovernor);
  inner_->on_release(job, ctx);
}

void TimedGovernor::on_completion(const dvs::sim::Job& job,
                                  const dvs::sim::SimContext& ctx) {
  LayerTimer t(kGovernor);
  inner_->on_completion(job, ctx);
}

double TimedGovernor::select_speed(const dvs::sim::Job& running,
                                   const dvs::sim::SimContext& ctx) {
  LayerTimer t(kGovernor, /*decision=*/true);
  return inner_->select_speed(running, ctx);
}

dvs::Time TimedGovernor::last_slack_estimate() const {
  return inner_->last_slack_estimate();
}

std::string TimedGovernor::name() const { return inner_->name(); }

// --- Execution-time model -------------------------------------------------

TimedWorkload::TimedWorkload(dvs::task::ExecutionTimeModelPtr inner)
    : inner_(std::move(inner)) {}

dvs::Work TimedWorkload::draw(const dvs::task::Task& task,
                              std::int64_t job_index) const {
  LayerTimer t(kDraw);
  return inner_->draw(task, job_index);
}

std::string TimedWorkload::name() const { return inner_->name(); }

// --- Power model ----------------------------------------------------------

TimedPower::TimedPower(dvs::cpu::PowerModelPtr inner)
    : inner_(std::move(inner)) {}

double TimedPower::busy_power(double alpha) const {
  LayerTimer t(kPower);
  return inner_->busy_power(alpha);
}

double TimedPower::idle_power() const {
  LayerTimer t(kPower);
  return inner_->idle_power();
}

double TimedPower::voltage(double alpha) const {
  LayerTimer t(kPower);
  return inner_->voltage(alpha);
}

std::string TimedPower::name() const { return inner_->name(); }

}  // namespace perfbench
