// The three measured passes.  Each builds its inputs from the seed, runs
// measured rounds, checks every output and reports its metrics.
//
//   uni   — the E1 utilization sweep (exp::run_sweep, uniprocessor);
//   mp    — the E14-shaped multicore sweep (global and wf-partitioned);
//   svc   — a closed-loop client calling svc::ProtocolHandler::handle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {

/// Wall time of one round: the untraced measured part, and (traced runs
/// only) the traced repetition of that same part.
struct RoundTime {
  std::int64_t untraced_ns = 0;
  std::int64_t traced_ns = 0;
};

class Pass {
 public:
  virtual ~Pass() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Builds inputs and expected outputs from `seed` and warms the code
  /// paths up.  Called once per pass object.  Laps `timer` after every
  /// step of at most about 100 ms, so each step is scaled by its own
  /// host-speed brackets.
  virtual void setup(std::uint64_t seed, BlockTimer& timer) = 0;

  /// One measured round.  With a tracer the round's work runs a second
  /// time decorated and traced, and must reproduce the untraced outputs.
  virtual RoundTime round(Tracer* tracer) = 0;

  /// Checks made once after the measured rounds (thread-count identity,
  /// audited vs unaudited); traced runs also time them here.
  virtual void verify(bool traced) = 0;

  /// End-to-end metrics of this pass; with `energy` also
  /// lpseh_energy_norm, which the svc pass does not have.
  virtual void report_end_to_end(bool energy) = 0;

  /// Per-layer metrics from the traced rounds.
  virtual void report_layers(const Tracer& tracer,
                             const std::vector<std::int64_t>& self_ns) = 0;
};

/// `small` shrinks the inputs for the self-tests.
[[nodiscard]] std::unique_ptr<Pass> make_uni_pass(Report& report, bool small);
[[nodiscard]] std::unique_ptr<Pass> make_mp_pass(Report& report, bool small);
[[nodiscard]] std::unique_ptr<Pass> make_svc_pass(Report& report, bool small);

}  // namespace perfbench
