// The benchmark's workloads. Every run walks the whole user journey -
// train a detector, score series offline, serve a fleet - and the workload
// names the path that gets the largest share of the run's time and whose
// geometry the traced run's masking and replay metrics take. The other
// paths run as companions so that every end-to-end metric is measured on
// every workload; training has no workload of its own, and every traced
// run attributes it.
#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunOptions {
  std::string workload;  ///< "score" or "fleet"
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir;   ///< where the traced run writes its files
};

struct Outcome {
  Metrics end_to_end;    ///< filled by untraced runs
  Metrics per_layer;     ///< filled by traced runs
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int threads = 0;       ///< the library pool's size (its default, nproc)
  std::vector<std::string> check_failures;
  std::vector<std::string> report;  ///< human-readable lines for stdout
};

bool IsWorkload(const std::string& name);
Outcome RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
