#include "passes.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <array>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/registry.hpp"
#include "cpu/processors.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "mp/mp_sim.hpp"
#include "obs/json_mini.hpp"
#include "obs/json_writer.hpp"
#include "sched/analysis.hpp"
#include "svc/daemon.hpp"
#include "svc/planner.hpp"
#include "svc/protocol.hpp"
#include "task/generator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace dvs;

double ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// E1's task-set shape: periods 10..160 ms on a 5 ms grid, BCET = 0.1 WCET.
task::GeneratorConfig e1_generator(std::size_t n_tasks, double u) {
  task::GeneratorConfig gen;
  gen.n_tasks = n_tasks;
  gen.total_utilization = u;
  gen.period_min = 0.01;
  gen.period_max = 0.16;
  gen.bcet_ratio = 0.1;
  gen.grid_fraction = 0.5;
  return gen;
}

/// A generated set whose periods are re-drawn one per log-uniform stratum
/// (Latin-hypercube sampling), WCET and BCET rescaled to keep every task's
/// utilization.  Each period keeps the generator's log-uniform marginal
/// and grid; what shrinks is the seed-to-seed spread of the set's job
/// count, which otherwise dominates the spread of every throughput and
/// tail figure across seeds.
task::TaskSet stratified_set(const task::GeneratorConfig& gen, util::Rng& rng,
                             const std::string& name = "random") {
  const task::TaskSet drawn = task::generate_task_set(gen, rng, name);
  const std::size_t n = drawn.size();
  std::vector<std::size_t> stratum(n);
  for (std::size_t i = 0; i < n; ++i) stratum[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(stratum[i - 1], stratum[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  const double grid = gen.period_min * gen.grid_fraction;
  task::TaskSet out(name);
  for (std::size_t i = 0; i < n; ++i) {
    task::Task t = drawn[i];
    const double q =
        (static_cast<double>(stratum[i]) + rng.unit()) / static_cast<double>(n);
    const double period = std::clamp(
        std::round(gen.period_min * std::pow(gen.period_max / gen.period_min, q) /
                   grid) * grid,
        gen.period_min, gen.period_max);
    const double scale = period / t.period;
    t.period = period;
    t.deadline = period;
    t.wcet *= scale;
    t.bcet *= scale;
    out.add(std::move(t));
  }
  out.validate();
  return out;
}

/// Seed of the warm-up inputs.  They are the same for every run seed, so
/// every set-up does the same warm-up work.
constexpr std::uint64_t kWarmupSeed = 0x7761726d;

exp::Case make_case(const task::GeneratorConfig& gen, std::uint64_t seed) {
  util::Rng rng(seed);
  return {stratified_set(gen, rng), task::uniform_model(seed)};
}

/// The same case with its execution-time model behind the timing decorator.
exp::Case timed_case(const exp::Case& c) {
  return {c.task_set, std::make_shared<TimedWorkload>(c.workload)};
}

cpu::Processor timed_processor(cpu::Processor p) {
  p.power = std::make_shared<TimedPower>(p.power);
  return p;
}

/// Governor factory wrapping every registry governor in the forwarding
/// decorator; `span_name` names the simulation span its lifetime records.
std::function<sim::GovernorPtr(const std::string&)> timed_factory(
    const char* span_name) {
  return [span_name](const std::string& name) -> sim::GovernorPtr {
    return std::make_unique<TimedGovernor>(core::make_governor(name),
                                           span_name);
  };
}

using Digests = std::map<std::string, std::uint64_t>;

/// Digest of every deterministic per-governor aggregate of a sweep.
Digests governor_digests(const exp::SweepOutcome& s) {
  Digests out;
  for (std::size_t g = 0; g < s.governors.size(); ++g) {
    Digest d;
    for (const exp::PointResult& p : s.points) {
      d.add(p.x);
      for (const util::RunningStats* st :
           {&p.normalized_energy[g], &p.speed_switches[g], &p.miss_ratio[g],
            &p.migrations[g]}) {
        d.add(static_cast<std::int64_t>(st->count()));
        if (st->count() > 0) {
          d.add(st->mean());
          d.add(st->min());
          d.add(st->max());
        }
      }
    }
    for (const exp::SimFailure& f : s.failures) {
      if (f.governor == s.governors[g]) d.add(f.message);
    }
    out[s.governors[g]] = d.value();
  }
  return out;
}

/// Books a sweep's `sims` simulations: a failed simulation, or a
/// (point, governor) cell with a deadline miss, counts as failed.
void book_sweep(Report& r, const exp::SweepOutcome& s, std::size_t sims) {
  std::int64_t bad = static_cast<std::int64_t>(s.failures.size());
  for (const exp::PointResult& p : s.points) {
    for (const util::RunningStats& m : p.miss_ratio) {
      if (m.count() > 0 && m.max() > 0.0) ++bad;
    }
  }
  bad = std::min<std::int64_t>(bad, static_cast<std::int64_t>(sims));
  r.attempt(true, static_cast<std::int64_t>(sims) - bad);
  r.attempt(false, bad);
}

/// Case-weighted (sum, count) of `gov`'s normalized energy over a sweep.
std::pair<double, double> energy_of(const exp::SweepOutcome& s,
                                    const std::string& gov) {
  std::pair<double, double> acc{0.0, 0.0};
  for (std::size_t g = 0; g < s.governors.size(); ++g) {
    if (s.governors[g] != gov) continue;
    for (const exp::PointResult& p : s.points) {
      const util::RunningStats& e = p.normalized_energy[g];
      if (e.count() == 0) continue;
      acc.first += e.sum();
      acc.second += static_cast<double>(e.count());
    }
  }
  return acc;
}

/// Runs `fn` and returns its wall time in nanoseconds.
template <class Fn>
std::int64_t time_ns(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return now_ns() - t0;
}

/// Sums of the decorated work inside a group of simulation spans.
struct SimTotals {
  std::int64_t duration = 0;
  std::int64_t decisions = 0;
  std::array<std::int64_t, kLayers> ns{};
  std::array<std::int64_t, kLayers> calls{};

  /// Adds a simulation span with the decorators' own cost taken out: the
  /// booked part from each layer, the whole from the span.
  void add(const Span& s, const DecoratorCost& cost) {
    std::int64_t all_calls = 0;
    for (std::size_t l = 0; l < kLayers; ++l) {
      ns[l] += s.layer_ns[l] - per_call(cost.booked_ns, s.layer_calls[l]);
      calls[l] += s.layer_calls[l];
      all_calls += s.layer_calls[l];
    }
    duration += s.duration() - per_call(cost.total_ns, all_calls);
    decisions += s.decisions;
  }
  static std::int64_t per_call(double ns, std::int64_t calls) {
    return std::llround(ns * static_cast<double>(calls));
  }
  /// Span time outside the governor, draw and power calls.
  [[nodiscard]] std::int64_t self() const {
    return duration - ns[kGovernor] - ns[kDraw] - ns[kPower];
  }
};

/// Tag of the span's parent, or "" for a root span.
const std::string& parent_tag(const Tracer& t, const Span& s) {
  static const std::string kNone;
  return s.parent < 0 ? kNone
                      : t.spans()[static_cast<std::size_t>(s.parent)].tag;
}

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// Median duration in microseconds of the spans named `name` tagged `tag`
/// (any tag when empty).
double median_span_us(const Tracer& t, std::string_view name,
                      std::string_view tag = {}) {
  std::vector<double> us;
  for (const Span& s : t.spans()) {
    if (name == s.name && (tag.empty() || tag == s.tag)) {
      us.push_back(static_cast<double>(s.duration()) * 1e-3);
    }
  }
  return median(std::move(us));
}

// ===========================================================================
// uni_sweep — the E1 figure
// ===========================================================================

/// Shape of E1: U = 0.1 .. 1.0, 1.2 s horizon, ideal CPU.
const std::vector<double> kUtils{0.1, 0.2, 0.3, 0.4, 0.5,
                                 0.6, 0.7, 0.8, 0.9, 1.0};
constexpr Time kE1Length = 1.2;

struct UniClass {
  const char* tag;
  std::vector<std::string> governors;
  bool audit;
};

/// One replication of the U grid at one task count: a case per U, plain
/// and with the timed execution-time model.
struct UniSet {
  std::vector<exp::Case> plain;
  std::vector<exp::Case> timed;
};

class UniPass final : public Pass {
 public:
  UniPass(Report& report, bool small) : report_(report), small_(small) {
    classes_ = {
        {"uni.light", {"noDVS", "staticEDF", "lppsEDF", "ccEDF", "DRA", "AGR"},
         false},
        {"uni.slack", {"laEDF", "lpSEH", "lpSEH-h", "uniformSlack"}, false},
        {"uni.audited", core::governor_names(), true},
    };
    full_ = {"uni.full", core::governor_names(), false};
  }

  const char* name() const override { return "uni_sweep"; }

  void setup(std::uint64_t seed, BlockTimer& timer) override {
    // E1's n = 8 plus one larger task count, so per-decision cost growth
    // in n shows.  Each set is one replication of the whole U grid: one
    // run_sweep call short enough for the host-speed factor to stay local.
    const std::vector<std::pair<std::size_t, std::size_t>> shape =
        small_ ? std::vector<std::pair<std::size_t, std::size_t>>{{8, 1}}
               : std::vector<std::pair<std::size_t, std::size_t>>{{8, 8},
                                                                  {16, 2}};
    for (const auto& [n, reps] : shape) {
      for (std::size_t rep = 0; rep < reps; ++rep) {
        sets_.push_back(make_set(seed, n, rep));
      }
    }
    timed_processor_ = timed_processor(cpu::ideal_processor());
    const UniSet warm = make_set(kWarmupSeed, 8, 0);
    timer.lap();
    for (const UniClass& cls : classes_) {
      const exp::SweepOutcome s = run(cls, warm, false, 1).first;
      report_.check(s.failures.empty(), "uni: warm-up sweep failed");
      timer.lap();
    }
  }

  RoundTime round(Tracer* tracer) override {
    RoundTime t;
    std::int64_t audited_ns = 0;
    HostClock clock;
    for (const UniClass& cls : classes_) {
      std::int64_t ns = 0;
      double scaled_ns = 0.0;
      std::size_t sims = 0;
      for (std::size_t i = 0; i < sets_.size(); ++i) {
        auto [s, dt] = run(cls, sets_[i], false, 1);
        scaled_ns += clock.scale(dt);
        ns += dt;
        sims += s.simulations;
        check(cls, i, s);
        if (cls.audit && i == 0) audited_outcome_ = std::move(s);
      }
      rates_[cls.tag].push_back(static_cast<double>(sims) / (scaled_ns * 1e-9));
      t.untraced_ns += ns;
      if (cls.audit) audited_ns = ns;
    }
    if (first_round_) cross_check();
    first_round_ = false;
    if (tracer == nullptr) return t;

    {
      TraceScope scope(tracer);
      std::int64_t audit_records = 0;
      for (const UniClass& cls : classes_) {
        for (std::size_t i = 0; i < sets_.size(); ++i) {
          auto [s, dt] = run(cls, sets_[i], true, 1);
          t.traced_ns += dt;
          check(cls, i, s);
          for (const obs::SlackAccuracy& a : s.slack_accuracy) {
            audit_records += a.decisions;
          }
        }
      }
      audit_records_.push_back(static_cast<double>(audit_records));
    }
    // Report rendering of the audited n = 8 sweep, to memory.
    report_ms_.push_back(static_cast<double>(time_ns([&] {
      std::ostringstream out;
      exp::print_sweep(out, audited_outcome_, "E1");
      exp::write_sweep_csv(out, audited_outcome_);
      exp::write_sweep_metrics_csv(out, audited_outcome_);
    })) * 1e-6);
    // Audit overhead: the same roster without the decision audit.
    std::int64_t full_ns = 0;
    for (std::size_t i = 0; i < sets_.size(); ++i) {
      auto [s, dt] = run(full_, sets_[i], false, 1);
      full_ns += dt;
      check(full_, i, s);
    }
    audit_overhead_.push_back(
        (static_cast<double>(audited_ns) / static_cast<double>(full_ns) - 1.0) *
        100.0);
    ++traced_rounds_;
    return t;
  }

  void verify(bool traced) override {
    // Auditing and the thread count must not change a single aggregate.
    std::int64_t one = 0;
    std::int64_t two = 0;
    for (std::size_t i = 0; i < sets_.size(); ++i) {
      auto [s1, t1] = run(full_, sets_[i], false, 1);
      auto [s2, t2] = run(full_, sets_[i], false, 2);
      one += t1;
      two += t2;
      book_sweep(report_, s1, s1.simulations);
      book_sweep(report_, s2, s2.simulations);
      const Digests& audited = ref_.at(key(classes_.back(), i));
      report_.check(governor_digests(s1) == audited,
                    "uni: audited and unaudited sweeps differ");
      report_.check(governor_digests(s2) == governor_digests(s1),
                    "uni: 1 and 2 threads give different sweeps");
    }
    if (traced) parallel_speedup_ = ratio(one, two);
  }

  void report_end_to_end(bool energy) override {
    report_.metric("light_sims_per_s", median(rates_["uni.light"]), "1/s");
    report_.metric("slack_sims_per_s", median(rates_["uni.slack"]), "1/s");
    report_.metric("audited_sims_per_s", median(rates_["uni.audited"]),
                   "1/s");
    if (energy) report_.metric("lpseh_energy_norm", lpseh_energy_, "ratio");
  }

  void report_layers(const Tracer& tracer,
                     const std::vector<std::int64_t>& self_ns) override {
    std::map<std::string, SimTotals> by_gov;
    SimTotals all;
    SimTotals slack;
    std::int64_t sweep_ns = 0;
    std::int64_t sweep_self = 0;
    const std::vector<std::string>& slack_govs = classes_[1].governors;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const Span& s = tracer.spans()[i];
      if (std::string_view(s.name) == "run_sweep" && starts_with(s.tag, "uni.")) {
        sweep_ns += s.duration();
        sweep_self += self_ns[i];
      }
      // Engine and governor attribution from the unaudited classes only:
      // the audit is an observer the audited class adds on top.
      if (std::string_view(s.name) != "simulate") continue;
      const std::string& cls = parent_tag(tracer, s);
      if (cls != "uni.light" && cls != "uni.slack") continue;
      by_gov[s.tag].add(s, tracer.decorator_cost());
      all.add(s, tracer.decorator_cost());
      if (std::find(slack_govs.begin(), slack_govs.end(), s.tag) !=
          slack_govs.end()) {
        slack.add(s, tracer.decorator_cost());
      }
    }
    const double rounds = std::max(1.0, static_cast<double>(traced_rounds_));
    for (const auto& [gov, tot] : by_gov) {
      report_.metric("core.decide_ns." + gov,
                     ratio(tot.ns[kGovernor], tot.decisions), "ns");
    }
    report_.metric("core.decide_share", ratio(all.ns[kGovernor], all.duration),
                   "ratio");
    report_.metric("core.decide_share.slack",
                   ratio(slack.ns[kGovernor], slack.duration), "ratio");
    report_.metric("core.decisions",
                   static_cast<double>(all.decisions) / rounds, "count");
    report_.metric("sim.self_ns_per_decision", ratio(all.self(), all.decisions),
                   "ns");
    report_.metric("sim.self_share", ratio(all.self(), all.duration), "ratio");
    report_.metric("task.draws", static_cast<double>(all.calls[kDraw]) / rounds,
                   "count");
    report_.metric("task.draw_ns", ratio(all.ns[kDraw], all.calls[kDraw]), "ns");
    report_.metric("task.draw_share", ratio(all.ns[kDraw], all.duration),
                   "ratio");
    report_.metric("cpu.power_calls",
                   static_cast<double>(all.calls[kPower]) / rounds, "count");
    report_.metric("cpu.power_ns", ratio(all.ns[kPower], all.calls[kPower]),
                   "ns");
    report_.metric("cpu.power_share", ratio(all.ns[kPower], all.duration),
                   "ratio");
    report_.metric("exp.sweep_overhead_share", ratio(sweep_self, sweep_ns),
                   "ratio");
    report_.metric("exp.report_ms", median(report_ms_), "ms");
    report_.metric("exp.parallel_speedup", parallel_speedup_, "ratio");
    report_.metric("obs.audit_overhead_pct", median(audit_overhead_), "%");
    report_.metric("obs.audit_records", median(audit_records_), "count");
  }

 private:
  static UniSet make_set(std::uint64_t seed, std::size_t n, std::size_t rep) {
    UniSet set;
    for (std::size_t xi = 0; xi < kUtils.size(); ++xi) {
      set.plain.push_back(make_case(e1_generator(n, kUtils[xi]),
                                    util::hash_u64(seed, n, xi * 1000 + rep)));
      set.timed.push_back(timed_case(set.plain.back()));
    }
    return set;
  }

  static std::string key(const UniClass& cls, std::size_t set) {
    return std::string(cls.tag) + "/" + std::to_string(set);
  }

  std::pair<exp::SweepOutcome, std::int64_t> run(const UniClass& cls,
                                                 const UniSet& set, bool timed,
                                                 std::size_t threads) const {
    exp::ExperimentConfig cfg;
    cfg.governors = cls.governors;
    cfg.processor = timed ? timed_processor_ : cpu::ideal_processor();
    cfg.replications = 1;
    cfg.sim_length = kE1Length;
    cfg.n_threads = threads;
    cfg.audit_decisions = cls.audit;
    if (timed) cfg.governor_factory = timed_factory("simulate");
    const std::vector<exp::Case>& cases = timed ? set.timed : set.plain;
    const auto builder = [&](double x, std::size_t, std::uint64_t) {
      return cases.at(static_cast<std::size_t>(
          std::find(kUtils.begin(), kUtils.end(), x) - kUtils.begin()));
    };
    exp::SweepOutcome s;
    SpanScope span("run_sweep", cls.tag);
    const std::int64_t ns =
        time_ns([&] { s = exp::run_sweep(cfg, "U", kUtils, builder); });
    return {std::move(s), ns};
  }

  /// Books a sweep and pins its digest to the first run of the same
  /// (class, set).
  void check(const UniClass& cls, std::size_t set, const exp::SweepOutcome& s) {
    book_sweep(report_, s, s.simulations);
    const Digests d = governor_digests(s);
    const auto [it, fresh] = ref_.emplace(key(cls, set), d);
    if (!fresh) {
      report_.check(it->second == d, "uni: " + key(cls, set) +
                                         " digest differs between repeats");
    }
    if (fresh && std::string_view(cls.tag) == "uni.slack") {
      const auto [sum, n] = energy_of(s, "lpSEH");
      lpseh_sum_ += sum;
      lpseh_n_ += n;
      lpseh_energy_ = lpseh_n_ > 0.0 ? lpseh_sum_ / lpseh_n_ : 0.0;
    }
  }

  /// The light and slack classes must agree, governor by governor, with
  /// the full audited roster (common random numbers, same reference).
  void cross_check() {
    for (std::size_t i = 0; i < sets_.size(); ++i) {
      const Digests& full = ref_.at(key(classes_.back(), i));
      for (std::size_t c = 0; c + 1 < classes_.size(); ++c) {
        for (const auto& [gov, d] : ref_.at(key(classes_[c], i))) {
          const auto it = full.find(gov);
          report_.check(it != full.end() && it->second == d,
                        "uni: " + gov + " differs between " +
                            classes_[c].tag + " and the full roster");
        }
      }
    }
  }

  Report& report_;
  bool small_;
  std::vector<UniClass> classes_;
  UniClass full_;
  std::vector<UniSet> sets_;
  cpu::Processor timed_processor_;
  std::map<std::string, Digests> ref_;
  std::map<std::string, std::vector<double>> rates_;
  exp::SweepOutcome audited_outcome_;
  bool first_round_ = true;
  double lpseh_sum_ = 0.0;
  double lpseh_n_ = 0.0;
  double lpseh_energy_ = 0.0;
  std::int64_t traced_rounds_ = 0;
  std::vector<double> report_ms_;
  std::vector<double> audit_overhead_;
  std::vector<double> audit_records_;
  double parallel_speedup_ = 0.0;
};

// ===========================================================================
// mp_sweep — E14-shaped global vs wf-partitioned
// ===========================================================================

/// E14's shape: per-core U = 0.55, 6 tasks per core, per-task U <= 0.35
/// (GFB-safe for the global arms, packable for wf).
constexpr double kPerCoreU = 0.55;
constexpr double kMaxTaskU = 0.35;
constexpr std::size_t kTasksPerCore = 6;
constexpr Time kE14Length = 1.0;

struct MpArm {
  const char* tag;
  mp::MpBackend backend;
  Time migration_cost;
};

struct MpSet {
  std::size_t cores = 0;
  std::size_t reps = 0;
  std::vector<exp::Case> plain;
  std::vector<exp::Case> timed;
};

class MpPass final : public Pass {
 public:
  MpPass(Report& report, bool small) : report_(report), small_(small) {}

  const char* name() const override { return "mp_sweep"; }

  void setup(std::uint64_t seed, BlockTimer& timer) override {
    const std::vector<std::pair<std::size_t, std::size_t>> shape =
        small_ ? std::vector<std::pair<std::size_t, std::size_t>>{{2, 1}}
               : std::vector<std::pair<std::size_t, std::size_t>>{
                     {2, 4}, {4, 4}, {8, 4}};
    for (const auto& [m, reps] : shape) {
      MpSet set;
      set.cores = m;
      set.reps = reps;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        set.plain.push_back(make_mp_case(seed, m, rep));
        set.timed.push_back(timed_case(set.plain.back()));
        const mp::MpPlan plan =
            mp::plan_mp(set.plain.back().task_set, set.plain.back().workload, m,
                        mp::PartitionHeuristic::kWorstFit, kE14Length);
        report_.check(plan.feasible(), "mp: a wf partition was rejected");
      }
      sets_.push_back(std::move(set));
    }
    timed_processor_ = timed_processor(cpu::ideal_processor());
    MpSet warm;
    warm.cores = 2;
    warm.reps = 1;
    warm.plain.push_back(make_mp_case(kWarmupSeed, warm.cores, 0));
    timer.lap();
    for (const MpArm& arm : kArms) {
      const exp::SweepOutcome s = run(arm, warm, false).first;
      report_.check(s.failures.empty(), "mp: warm-up sweep failed");
      timer.lap();
    }
  }

  RoundTime round(Tracer* tracer) override {
    RoundTime t;
    double global_ns = 0.0;  // nominal-host time
    double part_ns = 0.0;
    std::size_t global_sims = 0;
    std::size_t part_sims = 0;
    std::int64_t migrations = 0;
    HostClock clock;
    for (const MpArm& arm : kArms) {
      for (std::size_t i = 0; i < sets_.size(); ++i) {
        auto [s, dt] = run(arm, sets_[i], false);
        const double scaled = clock.scale(dt);
        t.untraced_ns += dt;
        const std::size_t sims = sets_[i].reps * s.governors.size();
        check(arm, i, s, sims);
        if (arm.backend == mp::MpBackend::kGlobal) {
          global_ns += scaled;
          global_sims += sims;
          for (const exp::PointResult& p : s.points) {
            migrations += p.total_migrations;
          }
        } else {
          part_ns += scaled;
          part_sims += sims;
        }
      }
    }
    global_rates_.push_back(static_cast<double>(global_sims) / (global_ns * 1e-9));
    part_rates_.push_back(static_cast<double>(part_sims) / (part_ns * 1e-9));
    migrations_ = static_cast<double>(migrations);
    if (tracer == nullptr) return t;

    TraceScope scope(tracer);
    for (const MpArm& arm : kArms) {
      for (std::size_t i = 0; i < sets_.size(); ++i) {
        auto [s, dt] = run(arm, sets_[i], true);
        t.traced_ns += dt;
        check(arm, i, s, sets_[i].reps * s.governors.size());
      }
    }
    for (const MpSet& set : sets_) {
      for (const exp::Case& c : set.plain) {
        SpanScope span("plan_mp", "wf");
        const mp::MpPlan plan = mp::plan_mp(c.task_set, c.workload, set.cores,
                                            mp::PartitionHeuristic::kWorstFit,
                                            kE14Length);
        report_.check(plan.feasible(), "mp: a wf partition was rejected");
      }
    }
    return t;
  }

  void verify(bool /*traced*/) override {}

  void report_end_to_end(bool energy) override {
    report_.metric("global_sims_per_s", median(global_rates_), "1/s");
    report_.metric("part_sims_per_s", median(part_rates_), "1/s");
    if (energy) {
      report_.metric("lpseh_energy_norm",
                     lpseh_n_ > 0.0 ? lpseh_sum_ / lpseh_n_ : 0.0, "ratio");
    }
  }

  void report_layers(const Tracer& tracer,
                     const std::vector<std::int64_t>& /*self_ns*/) override {
    SimTotals global;
    std::vector<double> partition_us;
    for (const Span& s : tracer.spans()) {
      const std::string_view name = s.name;
      if (name == "simulate_global" &&
          starts_with(parent_tag(tracer, s), "mp.global")) {
        global.add(s, tracer.decorator_cost());
      } else if (name == "plan_mp") {
        partition_us.push_back(static_cast<double>(s.duration()) * 1e-3);
      }
    }
    report_.metric("mp.global.self_ns_per_decision",
                   ratio(global.self(), global.decisions), "ns");
    report_.metric("mp.global.decide_share",
                   ratio(global.ns[kGovernor], global.duration), "ratio");
    report_.metric("mp.migrations", migrations_, "count");
    report_.metric("mp.partition_us", median(partition_us), "us");
  }

 private:
  static constexpr MpArm kArms[] = {
      {"mp.global0", mp::MpBackend::kGlobal, 0.0},
      {"mp.global50", mp::MpBackend::kGlobal, 50e-6},
      {"mp.wf", mp::MpBackend::kPartitioned, 0.0},
  };

  static exp::Case make_mp_case(std::uint64_t seed, std::size_t m,
                                std::size_t rep) {
    task::GeneratorConfig gen =
        e1_generator(kTasksPerCore * m, kPerCoreU * static_cast<double>(m));
    gen.allow_overload = true;
    gen.max_task_utilization = kMaxTaskU;
    return make_case(gen, util::hash_u64(seed, 0x6d70, m * 1000 + rep));
  }

  std::pair<exp::SweepOutcome, std::int64_t> run(const MpArm& arm,
                                                 const MpSet& set,
                                                 bool timed) const {
    exp::ExperimentConfig cfg;
    cfg.governors = {"staticEDF", "ccEDF", "DRA", "lpSEH"};
    cfg.processor = timed ? timed_processor_ : cpu::ideal_processor();
    cfg.replications = set.reps;
    cfg.sim_length = kE14Length;
    cfg.n_threads = 1;
    cfg.n_cores = set.cores;
    cfg.mp_backend = arm.backend;
    cfg.partitioner = mp::PartitionHeuristic::kWorstFit;
    cfg.migration_cost = arm.migration_cost;
    if (timed) {
      cfg.governor_factory = timed_factory(
          arm.backend == mp::MpBackend::kGlobal ? "simulate_global"
                                                : "simulate");
    }
    const std::vector<exp::Case>& cases = timed ? set.timed : set.plain;
    const auto builder = [&](double, std::size_t rep, std::uint64_t) {
      return cases.at(rep);
    };
    exp::SweepOutcome s;
    SpanScope span("run_sweep", arm.tag);
    const std::int64_t ns = time_ns([&] {
      s = exp::run_sweep(cfg, "M", {static_cast<double>(set.cores)}, builder);
    });
    return {std::move(s), ns};
  }

  void check(const MpArm& arm, std::size_t set, const exp::SweepOutcome& s,
             std::size_t sims) {
    book_sweep(report_, s, sims);
    const std::string key = std::string(arm.tag) + "/" + std::to_string(set);
    const Digests d = governor_digests(s);
    const auto [it, fresh] = ref_.emplace(key, d);
    if (!fresh) {
      report_.check(it->second == d,
                    "mp: " + key + " digest differs between repeats");
      return;
    }
    const auto [sum, n] = energy_of(s, "lpSEH");
    lpseh_sum_ += sum;
    lpseh_n_ += n;
  }

  Report& report_;
  bool small_;
  std::vector<MpSet> sets_;
  cpu::Processor timed_processor_;
  std::map<std::string, Digests> ref_;
  std::vector<double> global_rates_;
  std::vector<double> part_rates_;
  double migrations_ = 0.0;
  double lpseh_sum_ = 0.0;
  double lpseh_n_ = 0.0;
};

// ===========================================================================
// svc_mix — closed-loop admit/plan client on ProtocolHandler::handle
// ===========================================================================

// The mix follows the single requests of the repository's smoke client
// (tools/planner_client.cpp --smoke): one admitted and one rejected admit
// per plan, and plans of ccEDF and lpSEH over a 0.1 s horizon with the
// default workload.  That set is a functional check, not recorded
// traffic, so the mix is not known to match any real load.  Partitioned
// admits are added as half of each verdict, because the workload must
// cover both admission paths.

constexpr std::size_t kAdmitPool = 256;
constexpr std::size_t kPlanPool = 256;
/// Requests per round: 1000 plans keep ten samples beyond the
/// nearest-rank p99, and the smoke set's 2:1 ratio gives 2000 admits.
constexpr std::size_t kPlansPerRound = 1000;
constexpr std::size_t kAdmitsPerRound = 2 * kPlansPerRound;
constexpr std::size_t kPings = 2000;
/// Requests between two host-speed reference brackets (about 50 ms).
constexpr std::size_t kChunk = 300;

struct Request {
  std::string line;
  std::string expected;
  task::TaskSet ts;
  std::size_t cores = 0;  ///< admit: 0 = uniprocessor demand test
  mp::PartitionHeuristic heuristic = mp::PartitionHeuristic::kWorstFit;
  bool plan = false;
  bool admitted = false;  ///< admit: the verdict computed independently
  svc::QueryOptions options;  ///< plan
};

/// Midpoint of stratum `i` of `n` equal strata of [lo, hi].
double stratum(std::size_t i, std::size_t n, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(i) + 0.5) / static_cast<double>(n);
}

std::string encode(const std::string& op, std::size_t id,
                   const task::TaskSet& ts,
                   const std::function<void(obs::JsonWriter&)>& extra) {
  std::string out;
  obs::JsonWriter j(out);
  j.begin_object()
      .kv("op", op)
      .kv("id", static_cast<std::int64_t>(id))
      .kv("name", ts.name());
  j.key("tasks").begin_array();
  for (const task::Task& t : ts) {
    j.begin_object()
        .kv("name", t.name)
        .kv("period", t.period)
        .kv("wcet", t.wcet)
        .kv("deadline", t.deadline)
        .kv("bcet", t.bcet)
        .end_object();
  }
  j.end_array();
  extra(j);
  j.end_object();
  return out;
}

class SvcPass final : public Pass {
 public:
  SvcPass(Report& report, bool /*small*/) : report_(report) {}

  const char* name() const override { return "svc_mix"; }

  void setup(std::uint64_t seed, BlockTimer& timer) override {
    util::Rng rng(util::hash_u64(seed, 0x737663));
    for (std::size_t i = 0; i < kAdmitPool; ++i) {
      admits_.push_back(i % 2 == 0 ? uni_admit(rng, i) : part_admit(rng, i));
    }
    timer.lap();
    for (std::size_t i = 0; i < kPlanPool; ++i) plans_.push_back(plan(rng, i));
    timer.lap();

    handler_ = std::make_unique<svc::ProtocolHandler>();
    direct_ = std::make_unique<svc::Session>();
    // Admits by (kind, verdict): uniprocessor admitted, rejected, then
    // partitioned admitted, rejected.
    std::array<std::vector<const Request*>, 4> classes;
    admitted_ = 0;
    for (Request& r : admits_) {
      r.expected = handler_->handle(r.line);
      const obs::JsonValue v = obs::parse_json(r.expected);
      const obs::JsonValue* ok = v.find("admitted");
      report_.check(ok != nullptr && ok->is_bool() && ok->boolean == r.admitted,
                    "svc: admit verdict differs from the independent test");
      admitted_ += r.admitted ? 1 : 0;
      classes[(r.cores == 0 ? 0 : 2) + (r.admitted ? 0 : 1)].push_back(&r);
    }
    const std::size_t rejected = admits_.size() - admitted_;
    report_.check(admitted_ * 8 >= admits_.size() && rejected * 8 >= admits_.size(),
                  "svc: the admit pool lacks admitted or rejected sets");
    for (const auto& c : classes) {
      report_.check(!c.empty(), "svc: the admit pool lacks a (kind, verdict) class");
    }
    timer.lap();
    for (Request& r : plans_) {
      r.expected = handler_->handle(r.line);
      check_plan(r);
    }
    for (std::size_t i = 0; i < kAdmitsPerRound; ++i) {
      const auto& c = classes[i % classes.size()];
      if (!c.empty()) order_.push_back(c[(i / classes.size()) % c.size()]);
    }
    for (std::size_t i = 0; i < kPlansPerRound; ++i) {
      order_.push_back(&plans_[i % plans_.size()]);
    }
    for (std::size_t i = order_.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(order_[i - 1], order_[static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(i) - 1))]);
    }
    timer.lap();
  }

  RoundTime round(Tracer* tracer) override {
    RoundTime t;
    std::vector<double> admit_us;
    std::vector<double> plan_us;
    admit_us.reserve(kAdmitsPerRound);
    plan_us.reserve(kPlansPerRound);
    double scaled_ns = 0.0;
    HostClock clock;
    // Chunks of requests between reference brackets keep each host-speed
    // factor local in time.
    for (std::size_t from = 0; from < order_.size(); from += kChunk) {
      const std::size_t to = std::min(order_.size(), from + kChunk);
      const std::size_t admits_before = admit_us.size();
      const std::size_t plans_before = plan_us.size();
      const std::int64_t start = now_ns();
      for (std::size_t i = from; i < to; ++i) {
        const Request* r = order_[i];
        const std::int64_t a = now_ns();
        const std::string resp = handler_->handle(r->line);
        const std::int64_t b = now_ns();
        (r->plan ? plan_us : admit_us)
            .push_back(static_cast<double>(b - a) * 1e-3);
        report_.attempt(resp == r->expected);
      }
      const std::int64_t elapsed = now_ns() - start;
      t.untraced_ns += elapsed;
      const double f = clock.next_factor();
      scaled_ns += static_cast<double>(elapsed) * f;
      for (std::size_t i = admits_before; i < admit_us.size(); ++i) admit_us[i] *= f;
      for (std::size_t i = plans_before; i < plan_us.size(); ++i) plan_us[i] *= f;
    }
    req_rates_.push_back(static_cast<double>(order_.size()) / (scaled_ns * 1e-9));
    record_percentiles(admit_us, admit_p50_, admit_p99_, "admit");
    record_percentiles(plan_us, plan_p50_, plan_p99_, "plan");
    if (tracer == nullptr) return t;

    TraceScope scope(tracer);
    const std::int64_t traced_start = now_ns();
    for (const Request* r : order_) {
      SpanScope span("handle", r->plan ? "plan" : "admit");
      report_.check(handler_->handle(r->line) == r->expected,
                    "svc: traced response differs");
    }
    t.traced_ns = now_ns() - traced_start;
    // The same requests straight into the Session and the demand test, so
    // the handler's decode/encode share is handle minus session.
    for (const Request* r : order_) {
      if (r->plan) {
        SpanScope span("Session::plan");
        (void)direct_->plan(r->ts, r->options);
        continue;
      }
      bool admitted = false;
      {
        SpanScope span("Session::admit", r->cores == 0 ? "uni" : "part");
        svc::PlacementReport placement;
        admitted = (r->cores == 0 ? direct_->admit(r->ts)
                                  : direct_->admit(r->ts, r->cores,
                                                   r->heuristic, &placement))
                       .admitted;
      }
      report_.check(admitted == r->admitted, "svc: Session verdict differs");
      if (r->cores == 0) {
        SpanScope span("edf_schedulable");
        report_.check(sched::edf_schedulable(r->ts) == r->admitted,
                      "svc: demand test verdict differs");
      }
    }
    return t;
  }

  void verify(bool traced) override {
    if (!traced) return;
    try {
      ping_us_ = loopback_ping_us();
    } catch (const std::exception& e) {
      report_.check(false, std::string("svc: loopback daemon: ") + e.what());
    }
  }

  void report_end_to_end(bool /*energy*/) override {
    report_.metric("req_per_s", median(req_rates_), "1/s");
    report_.metric("admit_p50_us", median(admit_p50_), "us");
    report_.metric("admit_p99_us", median(admit_p99_), "us");
    report_.metric("plan_p50_us", median(plan_p50_), "us");
    report_.metric("plan_p99_us", median(plan_p99_), "us");
  }

  void report_layers(const Tracer& tracer,
                     const std::vector<std::int64_t>& /*self_ns*/) override {
    const double handle_admit = median_span_us(tracer, "handle", "admit");
    const double handle_plan = median_span_us(tracer, "handle", "plan");
    const double session_admit = median_span_us(tracer, "Session::admit");
    const double session_plan = median_span_us(tracer, "Session::plan");
    report_.metric("sched.demand_test_us",
                   median_span_us(tracer, "edf_schedulable"), "us");
    report_.metric("svc.session_us.admit", session_admit, "us");
    report_.metric("svc.session_us.plan", session_plan, "us");
    report_.metric("svc.codec_us.admit", handle_admit - session_admit, "us");
    report_.metric("svc.codec_us.plan", handle_plan - session_plan, "us");
    report_.metric("svc.admit_reject_ratio",
                   ratio(static_cast<std::int64_t>(admitted_),
                         static_cast<std::int64_t>(admits_.size() - admitted_)),
                   "ratio");
    report_.metric("svc.transport_us.ping", ping_us_, "us");
  }

 private:
  void record_percentiles(std::vector<double>& us, std::vector<double>& p50,
                          std::vector<double>& p99, const char* what) {
    std::sort(us.begin(), us.end());
    report_.check(highest_tail_percentile(us.size()) >= 99.0,
                  std::string("svc: too few ") + what + " samples for a p99");
    p50.push_back(percentile_sorted(us, 50.0));
    p99.push_back(percentile_sorted(us, 99.0));
  }

  /// Uniprocessor admission with constrained deadlines, so the demand
  /// test runs and both verdicts occur.  Sizes and utilizations are
  /// stratified over the pool, so every seed gets the same mix.
  Request uni_admit(util::Rng& rng, std::size_t id) {
    const std::size_t k = id / 2;
    task::GeneratorConfig gen =
        e1_generator(4 + k % 7, stratum(k, kAdmitPool / 2, 0.6, 0.95));
    gen.bcet_ratio = 0.5;
    const task::TaskSet base = stratified_set(gen, rng);
    Request r;
    r.ts = task::TaskSet("admit" + std::to_string(id));
    for (task::Task t : base) {
      t.deadline = std::max(t.wcet, t.period * rng.uniform(0.2, 1.0));
      r.ts.add(std::move(t));
    }
    r.ts.validate();
    r.admitted = sched::edf_schedulable(r.ts);
    r.line = encode("admit", id, r.ts, [](obs::JsonWriter&) {});
    return r;
  }

  /// Partitioned admission near the packing limit of 2 or 4 cores.
  Request part_admit(util::Rng& rng, std::size_t id) {
    const std::size_t k = id / 2;
    Request r;
    r.cores = k % 2 == 0 ? 2 : 4;
    r.heuristic = (k / 2) % 2 == 0 ? mp::PartitionHeuristic::kWorstFit
                                   : mp::PartitionHeuristic::kFirstFit;
    const double m = static_cast<double>(r.cores);
    task::GeneratorConfig gen =
        e1_generator(2 * r.cores + (k / 4) % (2 * r.cores + 1),
                     m * stratum(k, kAdmitPool / 2, 0.92, 1.0));
    gen.bcet_ratio = 0.5;
    gen.allow_overload = true;
    gen.max_task_utilization = 0.9;
    r.ts = stratified_set(gen, rng, "admit" + std::to_string(id));
    r.admitted = mp::plan_mp(r.ts, task::uniform_model(1), r.cores, r.heuristic)
                     .feasible();
    r.line = encode("admit", id, r.ts, [&](obs::JsonWriter& j) {
      j.kv("cores", static_cast<std::int64_t>(r.cores))
          .kv("partition", mp::heuristic_name(r.heuristic));
    });
    return r;
  }

  /// A short-horizon plan with a few governors, so per-run set-up weighs
  /// as much as steady-state decisions.
  Request plan(util::Rng& rng, std::size_t id) {
    task::GeneratorConfig gen =
        e1_generator(4 + id % 5, stratum(id, kPlanPool, 0.3, 0.9));
    Request r;
    r.ts = stratified_set(gen, rng, "plan" + std::to_string(id));
    r.options.governors = {"ccEDF", "lpSEH"};
    r.options.length = 0.1;
    r.plan = true;
    r.admitted = true;
    r.line = encode("plan", id, r.ts, [&](obs::JsonWriter& j) {
      j.key("governors").begin_array();
      for (const std::string& g : r.options.governors) j.value(g);
      j.end_array();
      j.kv("length", r.options.length);
    });
    return r;
  }

  /// A plan response must admit the set and carry a prediction with no
  /// deadline miss for every governor asked for.
  void check_plan(const Request& r) {
    const obs::JsonValue v = obs::parse_json(r.expected);
    const obs::JsonValue* ok = v.find("admitted");
    const obs::JsonValue* plans = v.find("plans");
    const bool shaped = ok != nullptr && ok->is_bool() && ok->boolean &&
                        plans != nullptr && plans->is_array();
    report_.check(shaped, "svc: plan response malformed or rejected");
    if (!shaped) return;
    std::size_t asked = 0;
    for (const obs::JsonValue& p : plans->array) {
      const obs::JsonValue* misses = p.find("misses");
      report_.check(misses != nullptr && misses->is_number() &&
                        misses->number == 0.0,
                    "svc: a plan predicts deadline misses");
      const obs::JsonValue* gov = p.find("governor");
      const auto& want = r.options.governors;
      if (gov != nullptr && gov->is_string() &&
          std::find(want.begin(), want.end(), gov->string) != want.end()) {
        ++asked;
      }
    }
    report_.check(asked == r.options.governors.size(),
                  "svc: a plan lacks a governor's prediction");
  }

  /// Median round trip of a ping through the loopback daemon, in us.
  double loopback_ping_us() {
    svc::DaemonOptions opts;
    opts.batch_threads = 1;
    svc::Daemon daemon(opts);
    daemon.start();
    std::vector<double> us;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bool ok = fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                                   sizeof addr) == 0;
    if (ok) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    const std::string req = "{\"op\":\"ping\"}\n";
    std::string line;
    for (std::size_t i = 0; ok && i < kPings; ++i) {
      const std::int64_t a = now_ns();
      ok = ::write(fd, req.data(), req.size()) ==
           static_cast<ssize_t>(req.size());
      line.clear();
      char c = 0;
      while (ok && (ok = ::read(fd, &c, 1) == 1) && c != '\n') line += c;
      us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
      ok = ok && starts_with(line, "{\"ok\":true");
    }
    if (fd >= 0) ::close(fd);
    daemon.stop();
    report_.check(ok, "svc: loopback ping failed");
    return median(std::move(us));
  }

  Report& report_;
  std::vector<Request> admits_;
  std::vector<Request> plans_;
  std::vector<const Request*> order_;
  std::unique_ptr<svc::ProtocolHandler> handler_;
  std::unique_ptr<svc::Session> direct_;
  std::size_t admitted_ = 0;
  std::vector<double> req_rates_;
  std::vector<double> admit_p50_;
  std::vector<double> admit_p99_;
  std::vector<double> plan_p50_;
  std::vector<double> plan_p99_;
  double ping_us_ = 0.0;
};

}  // namespace

std::unique_ptr<Pass> make_uni_pass(Report& report, bool small) {
  return std::make_unique<UniPass>(report, small);
}
std::unique_ptr<Pass> make_mp_pass(Report& report, bool small) {
  return std::make_unique<MpPass>(report, small);
}
std::unique_ptr<Pass> make_svc_pass(Report& report, bool small) {
  return std::make_unique<SvcPass>(report, small);
}

}  // namespace perfbench
