// The repository benchmark (see perfbench/README.md).
//
//   perfbench --workload uni_sweep|mp_sweep|svc_mix --seed N --seconds S
//             --trace 0|1 [--spans-out FILE]
//   perfbench --selftest
//
// Prints a human summary on stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "run.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload uni_sweep|mp_sweep|svc_mix "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n"
               "       perfbench --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--spans-out") {
      opts.spans_out = value;
    } else {
      return usage();
    }
  }
  try {
    if (selftest) return perfbench::run_selftests();
    if (!perfbench::is_workload(opts.workload)) return usage();
    const perfbench::Report report = perfbench::run_workload(opts);
    for (const std::string& e : report.errors()) {
      std::cerr << "check failed: " << e << "\n";
    }
    std::cout << report.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
