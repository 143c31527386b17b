// The benchmark run: one workload, one seed, one measured phase.
#ifndef PERFBENCH_RUN_H_
#define PERFBENCH_RUN_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunConfig {
  std::string exe;        // this binary (server processes re-exec it)
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;   // scratch space for stores and span dumps
};

/// Runs the benchmark and prints the result object as the last line of
/// stdout. Returns the process exit code.
int RunMain(const RunConfig& config);

/// The benchmark's self-tests; prints one line per failure.
bool RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_RUN_H_
