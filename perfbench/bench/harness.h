// Measurement plumbing shared by every workload: clocks, order statistics,
// the in-memory span tracer, process resource usage and the host probe.
//
// Nothing here calls into the TFMAE library; the workloads (phases.h) own
// every call into the layers and wrap them in Span objects.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t NowNs();

/// Median of `values` (mean of the two middle elements for an even count).
/// Requires a non-empty input.
double Median(std::vector<double> values);

/// Nearest-rank percentile of sorted samples, or nullopt unless at least
/// `min_beyond` samples lie strictly beyond the percentile's rank. This is
/// the rule every reported tail uses: a p99 needs >= 1000 samples.
std::optional<double> SupportedPercentile(const std::vector<double>& sorted,
                                          double p, std::int64_t min_beyond = 10);

/// The highest of the standard percentiles (50, 75, 90, 95, 99, 99.9) that
/// the sample supports under SupportedPercentile's rule.
struct TailStat {
  double p = 0.0;      ///< percentile, 0 when not even the median qualifies
  double value = 0.0;
  std::int64_t samples = 0;
};
TailStat HighestSupportedPercentile(std::vector<double> values);

// ---- Span tracer ---------------------------------------------------------

/// One completed span. `parent` indexes the enclosing span's record in the
/// same thread's buffer (-1 for a root). `a`/`b` identify the unit of work:
/// a window index, or a (stream, seq) pair; -1 when unused.
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t a = -1;
  std::int64_t b = -1;
  int tid = 0;
  int parent = -1;
};

/// Process-wide span recorder. Spans live in per-thread buffers owned by
/// the tracer, so they survive the thread that recorded them, and are read
/// only after the recording threads have quiesced. Disabled, a Span costs
/// one relaxed load.
class Tracer {
 public:
  static Tracer& Instance();
  void SetEnabled(bool on);
  /// Every record of every thread, buffers in registration order; each
  /// record's `parent` still indexes its own thread's records, so spans are
  /// grouped per tid. Must not race recording threads.
  std::vector<SpanRecord> Collect() const;
  /// Drops every record (buffers stay registered).
  void Clear();

  // Used by Span.
  int Begin(const char* name, std::int64_t a, std::int64_t b);
  void End(int index);

 private:
  struct Buffer {
    int tid = 0;
    std::vector<SpanRecord> records;
    std::vector<int> stack;
  };
  Buffer* LocalBuffer();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name, std::int64_t a = -1, std::int64_t b = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Per-name totals after self-time subtraction.
struct LayerTotals {
  std::int64_t calls = 0;
  double total_ns = 0.0;  ///< sum of span durations
  double self_ns = 0.0;   ///< duration minus the time direct children cover
};

/// Self time of every span: its duration minus the durations of its direct
/// children (children of one thread never overlap, so that sum is exactly
/// the part of the interval they cover). Records must be grouped per tid as
/// Collect() returns them, with `parent` indexing within the group.
std::map<std::string, LayerTotals> ComputeSelfTimes(
    const std::vector<SpanRecord>& records);

/// Writes `records` as a chrome://tracing JSON array ("X" events, us).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& records);

// ---- Process and host ----------------------------------------------------

/// Logical CPUs this process may run on (sched_getaffinity).
int HostCpus();
/// Peak resident set size in MiB (getrusage ru_maxrss).
double PeakRssMb();
/// User + system CPU seconds consumed by the process so far.
double ProcessCpuSeconds();

/// Aggregate CPU time of the machine from /proc/stat, in clock ticks: all
/// states, and the share a hypervisor stole from this virtual machine.
struct CpuTicks {
  std::int64_t total = 0;
  std::int64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Host capabilities stamped next to every result so a reader can tell a
/// memory-bandwidth ceiling, or a noisy host, from a code regression.
struct HostProbe {
  int cpus = 0;
  std::string isa;  ///< the SIMD flags /proc/cpuinfo reports, space separated
  int llc_mib = 0;  ///< last-level cache; a triad working set below it is not DRAM-bound
  double triad_gbs_1t = 0.0;
  double triad_gbs_nt = 0.0;
  std::string compiler;
  std::string build_type;
  double steal_share = 0.0;  ///< stolen share of CPU time while the run measured
};
/// Measures STREAM-style triad bandwidth (a = b + s*c over 3 x 64 MiB
/// arrays, median of repeats) at 1 and `threads` threads.
HostProbe ProbeHost(int threads, const CpuTicks& run_start);
std::string HostProbeJson(const HostProbe& probe);

/// Formats a double with every significant digit (JSON-safe for finite x).
std::string FullDigits(double x);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
