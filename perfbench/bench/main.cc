// perfbench: the TFMAE end-to-end benchmark.
//
//   perfbench --workload score|fleet --seed N --seconds S --trace 0|1
//             [--out_dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the traced passes and reports the per-layer metrics, writing a chrome
// trace and a per-layer self-time table to --out_dir. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit code 0 when every output check passed, 1 when one failed, 2 on a
// usage error (no JSON then).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "harness.h"
#include "phases.h"

namespace {

// Direction of each end-to-end metric, for the human-readable listing.
const std::map<std::string, const char*> kDirection = {
    {"setup_s", "lower"},          {"peak_rss_mb", "lower"},
    {"train_windows_per_s", "higher"}, {"test_auroc", "higher"},
    {"score_rows_per_s", "higher"}, {"fleet_p50_ms", "lower"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload score|fleet --seed N "
               "--seconds S --trace 0|1 [--out_dir DIR]\n",
               why);
  return 2;
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.out_dir = ".bench_out";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      options.workload = value;
      if (!perfbench::IsWorkload(options.workload)) return Usage("unknown workload");
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, 1LL << 62, &n)) return Usage("bad --seed");
      options.seed = static_cast<std::uint64_t>(n);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 120, &n)) return Usage("bad --seconds");
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &n)) return Usage("bad --trace");
      options.trace = n == 1;
      have_trace = true;
    } else if (flag == "--out_dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.trace) {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    if (ec) return Usage("cannot create --out_dir");
  }

  const perfbench::CpuTicks start = perfbench::ReadCpuTicks();
  const perfbench::Outcome outcome = perfbench::RunWorkload(options);
  // After the workload, so the probe's arrays stay out of peak_rss_mb.
  const perfbench::HostProbe host = perfbench::ProbeHost(outcome.threads, start);
  std::printf("host %s\n", perfbench::HostProbeJson(host).c_str());
  std::printf("run {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
              "\"threads\":%d}\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, outcome.threads);
  for (const std::string& line : outcome.report) std::printf("%s\n", line.c_str());
  const perfbench::Metrics& metrics =
      options.trace ? outcome.per_layer : outcome.end_to_end;
  for (const auto& [name, metric] : metrics) {
    const auto direction = kDirection.find(name);
    std::printf("metric %-32s %-22s %-10s %s\n", name.c_str(),
                perfbench::FullDigits(metric.value).c_str(), metric.unit.c_str(),
                direction == kDirection.end() ? "" : direction->second);
  }
  for (const std::string& failure : outcome.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  const bool correct = outcome.check_failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(1, outcome.attempted));
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + perfbench::FullDigits(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
