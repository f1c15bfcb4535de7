// The benchmark's own tests: the percentile rule, the self-time
// arithmetic, the decorators (every virtual forwarded, bit-identical
// results on every backend) and seed plumbing on a held-out seed.
#include <bit>
#include <cmath>
#include <functional>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "cpu/processors.hpp"
#include "mp/global_sim.hpp"
#include "mp/mp_sim.hpp"
#include "run.hpp"
#include "sim/simulator.hpp"
#include "task/generator.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace dvs;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL " << what << "\n";
  }
}

// --- percentile rule -------------------------------------------------------

void test_percentile_rule() {
  expect(highest_tail_percentile(0) == 0.0, "percentile: empty sample");
  expect(highest_tail_percentile(19) == 0.0, "percentile: 19 samples");
  expect(highest_tail_percentile(20) == 50.0, "percentile: 20 samples -> p50");
  expect(highest_tail_percentile(100) == 90.0, "percentile: 100 -> p90");
  expect(highest_tail_percentile(999) == 95.0, "percentile: 999 -> p95");
  expect(highest_tail_percentile(1000) == 99.0, "percentile: 1000 -> p99");
  expect(highest_tail_percentile(10000) == 99.9, "percentile: 10000 -> p99.9");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(percentile_sorted(v, 99.0) == 990.0, "percentile: nearest rank p99");
  expect(percentile_sorted(v, 50.0) == 500.0, "percentile: nearest rank p50");
  // Ten samples lie beyond the p99 of 1000: 991 .. 1000.
  std::size_t beyond = 0;
  for (const double x : v) beyond += x > percentile_sorted(v, 99.0) ? 1 : 0;
  expect(beyond == 10, "percentile: ten samples beyond p99 of 1000");
}

// --- self-time arithmetic --------------------------------------------------

void test_self_time() {
  Tracer t;
  const int root = t.add("root", 0, 100, -1);
  const int a = t.add("a", 10, 40, root);
  t.add("a1", 15, 25, a);
  t.add("b", 40, 70, root);
  const std::vector<std::int64_t> self = t.self_ns();
  // Disjoint children: children plus self equals the parent span.
  expect(self[0] + t.spans()[1].duration() + t.spans()[3].duration() == 100,
         "self time: root = self + children");
  expect(self[0] == 40, "self time: root self");
  expect(self[1] + t.spans()[2].duration() == t.spans()[1].duration(),
         "self time: nested child = self + grandchild");
  // The whole tree's self times add up to the root span.
  std::int64_t sum = 0;
  for (const std::int64_t s : self) sum += s;
  expect(sum == 100, "self time: self times of a tree sum to the root");

  // Overlapping children count once; a child sticking out is clipped.
  Tracer o;
  const int p = o.add("p", 0, 100, -1);
  o.add("c1", 10, 30, p);
  o.add("c2", 20, 50, p);
  o.add("c3", 90, 120, p);
  expect(o.self_ns()[0] == 50, "self time: overlap counted once, clipped");

  // Live spans: parent = self + children.
  Tracer live;
  {
    TraceScope scope(&live);
    SpanScope outer("outer");
    for (int i = 0; i < 3; ++i) {
      SpanScope inner("inner");
      volatile double x = 0;
      for (int k = 0; k < 10000; ++k) x = x + std::sqrt(static_cast<double>(k));
    }
  }
  const std::vector<std::int64_t> ls = live.self_ns();
  std::int64_t children = 0;
  for (std::size_t i = 1; i < live.spans().size(); ++i) {
    children += live.spans()[i].duration();
  }
  expect(live.spans().size() == 4 && live.spans()[1].parent == 0,
         "self time: live spans nest");
  expect(ls[0] + children == live.spans()[0].duration(),
         "self time: live parent = self + children");
}

// --- decorator forwarding --------------------------------------------------

class FakeContext final : public sim::SimContext {
 public:
  Time now() const override { return 0.0; }
  const task::TaskSet& task_set() const override { return ts_; }
  sim::SchedulingPolicy policy() const override {
    return sim::SchedulingPolicy::kEdf;
  }
  double alpha_min() const override { return 0.1; }
  Time next_release_after(Time t) const override { return t + 1.0; }
  std::span<const sim::Job* const> active_jobs() const override { return {}; }
  double current_speed() const override { return 1.0; }

 private:
  task::TaskSet ts_;
};

/// Records every call; returns distinctive values.
class RecordingGovernor final : public sim::Governor {
 public:
  explicit RecordingGovernor(std::vector<std::string>& log) : log_(log) {}
  void on_start(const sim::SimContext&) override { log_.push_back("start"); }
  void on_release(const sim::Job&, const sim::SimContext&) override {
    log_.push_back("release");
  }
  void on_completion(const sim::Job&, const sim::SimContext&) override {
    log_.push_back("completion");
  }
  double select_speed(const sim::Job&, const sim::SimContext&) override {
    log_.push_back("select");
    return 0.375;
  }
  Time last_slack_estimate() const override {
    log_.push_back("slack");
    return 0.125;
  }
  std::string name() const override {
    log_.push_back("name");
    return "recorder";
  }

 private:
  std::vector<std::string>& log_;
};

void test_governor_forwarding() {
  for (const bool traced : {false, true}) {
    const std::string mode = traced ? " (traced)" : " (untraced)";
    Tracer tracer;
    TraceScope scope(traced ? &tracer : nullptr);
    std::vector<std::string> log;
    const FakeContext ctx;
    const sim::Job job;
    {
      TimedGovernor g(std::make_unique<RecordingGovernor>(log), "simulate");
      log.clear();  // the traced constructor reads the name for the span tag
      g.on_start(ctx);
      g.on_release(job, ctx);
      const double speed = g.select_speed(job, ctx);
      const Time slack = g.last_slack_estimate();
      g.on_completion(job, ctx);
      const std::string name = g.name();
      expect(speed == 0.375, "governor: select_speed forwarded" + mode);
      expect(slack == 0.125, "governor: last_slack_estimate forwarded" + mode);
      expect(name == "recorder", "governor: name forwarded" + mode);
      expect(log == std::vector<std::string>{"start", "release", "select",
                                             "slack", "completion", "name"},
             "governor: every virtual forwarded once, in order" + mode);
    }
    if (traced) {
      const bool one = tracer.spans().size() == 1;
      expect(one, "governor: one span per governor lifetime");
      if (one) {
        const Span& s = tracer.spans()[0];
        expect(s.tag == "recorder" && s.decisions == 1 &&
                   s.layer_calls[kGovernor] == 4 && s.end_ns >= s.start_ns,
               "governor: calls and decisions booked to its span");
      }
    }
  }

  const auto model = task::uniform_model(7);
  const TimedWorkload timed_model(model);
  task::Task t;
  t.period = 0.01;
  t.deadline = 0.01;
  t.wcet = 0.004;
  t.bcet = 0.001;
  bool same = timed_model.name() == model->name();
  for (std::int64_t j = 0; j < 50; ++j) {
    same = same && std::bit_cast<std::uint64_t>(timed_model.draw(t, j)) ==
                       std::bit_cast<std::uint64_t>(model->draw(t, j));
  }
  expect(same, "workload: draw and name forwarded");

  for (const char* proc : {"ideal", "strongarm", "xscale"}) {
    const auto power = cpu::processor_by_name(proc).power;
    const TimedPower timed_power(power);
    bool eq = timed_power.name() == power->name() &&
              timed_power.idle_power() == power->idle_power();
    for (double a = 0.1; a <= 1.0; a += 0.05) {
      eq = eq && timed_power.busy_power(a) == power->busy_power(a) &&
           timed_power.voltage(a) == power->voltage(a);
    }
    expect(eq, std::string("power: every virtual forwarded on ") + proc);
  }
}

// --- decorated runs are bit-identical --------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  bool eq = a.governor == b.governor && a.processor == b.processor &&
            a.workload == b.workload && a.degradation == b.degradation;
  for (const auto& [x, y] :
       std::vector<std::pair<double, double>>{
           {a.sim_length, b.sim_length},
           {a.busy_energy, b.busy_energy},
           {a.idle_energy, b.idle_energy},
           {a.transition_energy, b.transition_energy},
           {a.busy_time, b.busy_time},
           {a.idle_time, b.idle_time},
           {a.transition_time, b.transition_time},
           {a.time_degraded, b.time_degraded},
           {a.migration_overhead_us, b.migration_overhead_us},
           {a.average_speed, b.average_speed}}) {
    eq = eq && same_bits(x, y);
  }
  for (const auto& [x, y] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {a.jobs_released, b.jobs_released},
           {a.jobs_completed, b.jobs_completed},
           {a.deadline_misses, b.deadline_misses},
           {a.jobs_truncated, b.jobs_truncated},
           {a.speed_switches, b.speed_switches},
           {a.preemptions, b.preemptions},
           {a.jobs_overrun, b.jobs_overrun},
           {a.overruns_contained, b.overruns_contained},
           {a.processor_faults, b.processor_faults},
           {a.jobs_skipped, b.jobs_skipped},
           {a.mode_changes, b.mode_changes},
           {a.mk_violations, b.mk_violations},
           {a.hard_misses, b.hard_misses},
           {a.migrations, b.migrations}}) {
    eq = eq && x == y;
  }
  const auto same_vec = [](const std::vector<double>& x,
                           const std::vector<double>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!same_bits(x[i], y[i])) return false;
    }
    return true;
  };
  eq = eq && same_vec(a.per_task_energy, b.per_task_energy) &&
       same_vec(a.worst_response, b.worst_response) &&
       a.jobs.size() == b.jobs.size();
  for (std::size_t i = 0; eq && i < a.jobs.size(); ++i) {
    const sim::JobRecord& x = a.jobs[i];
    const sim::JobRecord& y = b.jobs[i];
    eq = x.task_id == y.task_id && x.index == y.index &&
         same_bits(x.release, y.release) &&
         same_bits(x.abs_deadline, y.abs_deadline) &&
         same_bits(x.completion, y.completion) && same_bits(x.wcet, y.wcet) &&
         same_bits(x.actual, y.actual) && x.missed == y.missed &&
         x.skipped == y.skipped;
  }
  return eq;
}

bool same_results(const std::vector<sim::SimResult>& a,
                  const std::vector<sim::SimResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_result(a[i], b[i])) return false;
  }
  return true;
}

task::TaskSet random_set(std::size_t n, double u, std::uint64_t seed) {
  task::GeneratorConfig gen;
  gen.n_tasks = n;
  gen.total_utilization = u;
  gen.period_min = 0.01;
  gen.period_max = 0.16;
  gen.bcet_ratio = 0.1;
  gen.grid_fraction = 0.5;
  gen.allow_overload = u > 1.0;
  gen.max_task_utilization = u > 1.0 ? 0.35 : 1.0;
  util::Rng rng(seed);
  return task::generate_task_set(gen, rng);
}

void test_decorated_identity() {
  const task::TaskSet uni = random_set(8, 0.7, 11);
  const task::TaskSet multi = random_set(12, 1.1, 12);
  const auto model = task::uniform_model(13);
  const auto timed_model = std::make_shared<TimedWorkload>(model);
  Tracer tracer;
  TraceScope scope(&tracer);
  for (const char* proc_name : {"ideal", "strongarm"}) {
    const cpu::Processor proc = cpu::processor_by_name(proc_name);
    cpu::Processor timed_proc = proc;
    timed_proc.power = std::make_shared<TimedPower>(proc.power);
    for (const std::string& gov : core::governor_names()) {
      const std::string what = gov + " on " + proc_name;
      // Uniprocessor engine.
      sim::SimOptions so;
      so.length = 0.5;
      so.record_jobs = true;
      auto plain_gov = core::make_governor(gov);
      const sim::SimResult plain =
          sim::simulate(uni, *model, proc, *plain_gov, so);
      TimedGovernor timed_gov(core::make_governor(gov), "simulate");
      const sim::SimResult timed =
          sim::simulate(uni, *timed_model, timed_proc, timed_gov, so);
      expect(same_result(plain, timed), "identity: uniprocessor " + what);

      // Partitioned backend (per-core M = 1 runs).
      mp::MpOptions mo;
      mo.length = 0.5;
      mo.n_cores = 2;
      mo.heuristic = mp::PartitionHeuristic::kWorstFit;
      mo.record_jobs = true;
      const mp::MpResult pp = mp::simulate_mp(
          multi, model, proc, [&] { return core::make_governor(gov); }, mo);
      const mp::MpResult pt = mp::simulate_mp(
          multi, timed_model, timed_proc,
          [&]() -> sim::GovernorPtr {
            return std::make_unique<TimedGovernor>(core::make_governor(gov),
                                                   "simulate");
          },
          mo);
      expect(same_result(pp.total, pt.total) && same_results(pp.cores, pt.cores),
             "identity: partitioned " + what);

      // Global engine with a migration surcharge.
      mp::GlobalOptions go;
      go.length = 0.5;
      go.n_cores = 2;
      go.migration_cost = 50e-6;
      go.record_jobs = true;
      auto g1 = core::make_governor(gov);
      const mp::GlobalResult gp =
          mp::simulate_global(multi, *model, proc, *g1, go);
      TimedGovernor g2(core::make_governor(gov), "simulate_global");
      const mp::GlobalResult gt =
          mp::simulate_global(multi, *timed_model, timed_proc, g2, go);
      bool migrations_equal = gp.migrations.size() == gt.migrations.size();
      for (std::size_t i = 0; migrations_equal && i < gp.migrations.size(); ++i) {
        const mp::MigrationRecord& a = gp.migrations[i];
        const mp::MigrationRecord& b = gt.migrations[i];
        migrations_equal = same_bits(a.at, b.at) && a.task_id == b.task_id &&
                           a.job_index == b.job_index &&
                           a.from_core == b.from_core && a.to_core == b.to_core;
      }
      expect(same_result(gp.total, gt.total) && same_results(gp.cores, gt.cores) &&
                 migrations_equal,
             "identity: global " + what);
    }
  }
  std::int64_t decisions = 0;
  for (const Span& s : tracer.spans()) decisions += s.decisions;
  expect(decisions > 0, "identity: the decorated runs were traced");
}

// --- seed plumbing ---------------------------------------------------------

void test_held_out_seed() {
  for (const char* w : {"uni_sweep", "mp_sweep", "svc_mix"}) {
    for (const bool traced : {false, true}) {
      RunOptions o;
      o.workload = w;
      o.seed = 0x5eed0ff5e7ULL;  // never used for tuning
      o.seconds = 0.0;
      o.trace = traced;
      o.small = true;
      const Report r = run_workload(o);
      for (const std::string& e : r.errors()) std::cerr << "  " << e << "\n";
      expect(r.correct() && r.attempted() > 0,
             std::string("held-out seed: ") + w + (traced ? " traced" : ""));
    }
  }
}

}  // namespace

int run_selftests() {
  const std::vector<std::pair<const char*, std::function<void()>>> tests{
      {"percentile rule", test_percentile_rule},
      {"self-time arithmetic", test_self_time},
      {"decorator forwarding", test_governor_forwarding},
      {"decorated runs bit-identical", test_decorated_identity},
      {"held-out seed", test_held_out_seed},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::cerr << (g_failures == before ? "ok   " : "FAIL ") << name << "\n";
  }
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
