#include "run.hpp"

#include <array>
#include <iostream>
#include <memory>
#include <vector>

#include "passes.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::array<const char*, 3> kWorkloads{"uni_sweep", "mp_sweep",
                                                "svc_mix"};
using PassFactory = std::unique_ptr<Pass> (*)(Report&, bool);
constexpr std::array<PassFactory, 3> kPasses{make_uni_pass, make_mp_pass,
                                             make_svc_pass};
constexpr std::size_t kUniPass = 0;
constexpr std::size_t kSvcPass = 2;
/// Set-ups per run, at least; setup_s is their median.
constexpr std::int64_t kMinSetups = 5;
/// Every pass runs at least this many rounds, however short the run.
constexpr std::int64_t kMinRounds = 3;
/// Shares of the measuring time: the workload's own pass, and the spare
/// set-ups.  The other two passes split the rest.
constexpr double kPrimaryShare = 0.45;
constexpr double kSetupShare = 0.1;

/// Seconds (nominal host) of one set-up of every pass.  The passes stay
/// alive until the timer is read, so no destructor is timed.
double timed_setup(std::vector<std::unique_ptr<Pass>>& passes,
                   Report& report, const RunOptions& opts) {
  BlockTimer timer;
  for (PassFactory make : kPasses) passes.push_back(make(report, opts.small));
  for (auto& p : passes) p->setup(opts.seed, timer);
  return timer.seconds();
}

}  // namespace

bool is_workload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

Report run_workload(const RunOptions& opts) {
  Report report;
  std::vector<std::unique_ptr<Pass>> passes;
  std::vector<double> setup_s{timed_setup(passes, report, opts)};
  std::size_t primary = 0;
  while (opts.workload != passes[primary]->name()) ++primary;

  // Weighted round-robin over the passes' rounds and spare set-ups: the
  // next turn goes to the one furthest below its share of the time spent
  // so far, so host noise hits every metric alike instead of one phase.
  // Spare set-ups spread the set-up samples over the whole run.
  const std::size_t n = passes.size();
  const std::size_t spare = n;
  std::vector<double> share(
      n + 1, (1.0 - kPrimaryShare - kSetupShare) / static_cast<double>(n - 1));
  share[primary] = kPrimaryShare;
  share[spare] = kSetupShare;
  std::vector<std::int64_t> at_least(n + 1, kMinRounds);
  at_least[spare] = kMinSetups - 1;
  std::vector<std::int64_t> spent(n + 1, 0);
  std::vector<std::int64_t> turns(n + 1, 0);
  Tracer tracer;
  RoundTime total;
  // Decorator cost, sampled after every traced round so the samples see
  // the host as the traced rounds did.
  std::vector<double> booked_ns;
  std::vector<double> decorator_ns;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  for (;;) {
    const bool over = now_ns() >= deadline;
    std::size_t pick = n + 1;
    for (std::size_t i = 0; i <= n; ++i) {
      if (over && turns[i] >= at_least[i]) continue;
      if (pick == n + 1 || static_cast<double>(spent[i]) / share[i] <
                               static_cast<double>(spent[pick]) / share[pick]) {
        pick = i;
      }
    }
    if (pick == n + 1) break;
    const std::int64_t t0 = now_ns();
    if (pick == spare) {
      std::vector<std::unique_ptr<Pass>> scratch;
      setup_s.push_back(timed_setup(scratch, report, opts));
    } else {
      const RoundTime rt = passes[pick]->round(opts.trace ? &tracer : nullptr);
      total.untraced_ns += rt.untraced_ns;
      total.traced_ns += rt.traced_ns;
      if (opts.trace) {
        const DecoratorCost c = measure_decorator_cost();
        booked_ns.push_back(c.booked_ns);
        decorator_ns.push_back(c.total_ns);
      }
    }
    spent[pick] += now_ns() - t0;
    ++turns[pick];
  }
  for (auto& p : passes) p->verify(opts.trace);

  for (std::size_t i = 0; i <= n; ++i) {
    std::cerr << (i == spare ? "set-up" : passes[i]->name()) << ": "
              << turns[i] << (i == spare ? " spare set-ups, " : " rounds, ")
              << static_cast<double>(spent[i]) * 1e-9 << " s\n";
  }
  if (opts.trace) {
    tracer.set_decorator_cost(
        {median(std::move(booked_ns)), median(std::move(decorator_ns))});
    std::cerr << "decorator cost per call: "
              << tracer.decorator_cost().booked_ns << " ns booked, "
              << tracer.decorator_cost().total_ns << " ns in all\n";
    const std::vector<std::int64_t> self = tracer.self_ns();
    for (auto& p : passes) p->report_layers(tracer, self);
    report.metric("trace.overhead_pct",
                  (static_cast<double>(total.traced_ns) /
                       static_cast<double>(total.untraced_ns) -
                   1.0) * 100.0,
                  "%");
    report.metric("trace.decorator_ns", tracer.decorator_cost().booked_ns,
                  "ns");
    if (!opts.spans_out.empty()) tracer.write(opts.spans_out);
  } else {
    // lpseh_energy_norm is the named pass's, but svc_mix reports E1's:
    // the paper's result is a sweep figure, which plans do not make.
    const std::size_t energy = primary == kSvcPass ? kUniPass : primary;
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    for (std::size_t i = 0; i < n; ++i) {
      passes[i]->report_end_to_end(i == energy);
    }
  }
  report.check(report.attempted() > 0, "no operation was attempted");
  return report;
}

}  // namespace perfbench
