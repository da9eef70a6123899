#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> SupportedPercentile(const std::vector<double>& sorted,
                                          double p, std::int64_t min_beyond) {
  const auto n = static_cast<std::int64_t>(sorted.size());
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least p% of samples at or
  // below it. The samples beyond it are the n - rank larger ones.
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9)));
  if (n - rank < min_beyond) return std::nullopt;
  return sorted[static_cast<std::size_t>(rank - 1)];
}

TailStat HighestSupportedPercentile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  TailStat tail;
  tail.samples = static_cast<std::int64_t>(values.size());
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const auto v = SupportedPercentile(values, p);
    if (!v.has_value()) break;
    tail.p = p;
    tail.value = *v;
  }
  return tail;
}

// ---- Tracer ----------------------------------------------------------------

namespace {
std::atomic<bool> g_trace_enabled{false};
}  // namespace

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();  // leaked: spans may end at exit
  return *tracer;
}

void Tracer::SetEnabled(bool on) {
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

Tracer::Buffer* Tracer::LocalBuffer() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    local = buffers_.back().get();
    local->tid = static_cast<int>(buffers_.size());
    local->records.reserve(1 << 16);
  }
  return local;
}

int Tracer::Begin(const char* name, std::int64_t a, std::int64_t b) {
  Buffer* buffer = LocalBuffer();
  SpanRecord record;
  record.name = name;
  record.a = a;
  record.b = b;
  record.tid = buffer->tid;
  record.parent = buffer->stack.empty() ? -1 : buffer->stack.back();
  const int index = static_cast<int>(buffer->records.size());
  buffer->records.push_back(record);
  buffer->stack.push_back(index);
  buffer->records.back().start_ns = NowNs();
  return index;
}

void Tracer::End(int index) {
  const std::int64_t now = NowNs();
  Buffer* buffer = LocalBuffer();
  buffer->records[static_cast<std::size_t>(index)].end_ns = now;
  buffer->stack.pop_back();
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->records.begin(), buffer->records.end());
  }
  return all;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) buffer->records.clear();
}

Span::Span(const char* name, std::int64_t a, std::int64_t b) {
  if (g_trace_enabled.load(std::memory_order_relaxed)) {
    index_ = Tracer::Instance().Begin(name, a, b);
  }
}

Span::~Span() {
  if (index_ >= 0) Tracer::Instance().End(index_);
}

std::map<std::string, LayerTotals> ComputeSelfTimes(
    const std::vector<SpanRecord>& records) {
  // Records arrive grouped per thread; `parent` is an index within the
  // group, so offset it by the group's first position.
  std::vector<double> child_ns(records.size(), 0.0);
  std::size_t group_begin = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0 && records[i].tid != records[i - 1].tid) group_begin = i;
    if (records[i].parent >= 0) {
      child_ns[group_begin + static_cast<std::size_t>(records[i].parent)] +=
          static_cast<double>(records[i].end_ns - records[i].start_ns);
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const double duration =
        static_cast<double>(records[i].end_ns - records[i].start_ns);
    LayerTotals& t = totals[records[i].name];
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return totals;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& records) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = 0;
  for (const SpanRecord& r : records) {
    if (origin == 0 || r.start_ns < origin) origin = r.start_ns;
  }
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"a\":%lld,\"b\":%lld}}%s\n",
                  r.name, r.tid, static_cast<double>(r.start_ns - origin) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                  static_cast<long long>(r.a), static_cast<long long>(r.b),
                  i + 1 < records.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// ---- Process and host ------------------------------------------------------

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

std::string IsaFlags() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string word;
    std::string isa;
    for (; words >> word;) {
      if (word == "sse4_2" || word == "avx" || word == "avx2" || word == "fma" ||
          word == "f16c" || word.rfind("avx512", 0) == 0 || word == "amx_tile") {
        isa += (isa.empty() ? "" : " ") + word;
      }
    }
    return isa;
  }
  return "unknown";
}

// One triad sweep over [begin, end) of each array.
void TriadRange(double* a, const double* b, const double* c, std::size_t begin,
                std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) a[i] = b[i] + 3.0 * c[i];
}

double TriadGbs(int threads) {
  constexpr std::size_t kElems = std::size_t{8} << 20;  // 64 MiB per array
  std::vector<double> a(kElems, 0.0), b(kElems, 1.0), c(kElems, 2.0);
  std::vector<double> rates;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t t0 = NowNs();
    std::vector<std::thread> workers;
    const std::size_t chunk = kElems / static_cast<std::size_t>(threads);
    for (int t = 0; t < threads; ++t) {
      const std::size_t begin = chunk * static_cast<std::size_t>(t);
      const std::size_t end = t + 1 == threads ? kElems : begin + chunk;
      workers.emplace_back(TriadRange, a.data(), b.data(), c.data(), begin, end);
    }
    for (auto& w : workers) w.join();
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    rates.push_back(3.0 * sizeof(double) * kElems / seconds / 1e9);
  }
  if (a[kElems / 2] != 7.0) return 0.0;  // keeps the stores observable
  return Median(rates);
}

// Last-level cache size in MiB from sysfs (0 when unknown).
int LastLevelCacheMib() {
  int best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) +
                     "/size");
    std::string size;
    if (!(in >> size)) break;
    const int value = std::atoi(size.c_str());
    const int mib = size.back() == 'M' ? value : size.back() == 'K' ? value / 1024 : 0;
    best = std::max(best, mib);
  }
  return best;
}

}  // namespace

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::int64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

HostProbe ProbeHost(int threads, const CpuTicks& run_start) {
  HostProbe probe;
  const CpuTicks run_end = ReadCpuTicks();
  if (run_end.total > run_start.total) {
    probe.steal_share = static_cast<double>(run_end.steal - run_start.steal) /
                        static_cast<double>(run_end.total - run_start.total);
  }
  probe.cpus = HostCpus();
  probe.isa = IsaFlags();
  probe.llc_mib = LastLevelCacheMib();
  probe.triad_gbs_1t = TriadGbs(1);
  probe.triad_gbs_nt = TriadGbs(threads);
  probe.compiler = __VERSION__;
#ifdef PERFBENCH_BUILD_TYPE
  probe.build_type = PERFBENCH_BUILD_TYPE;
#endif
  return probe;
}

std::string HostProbeJson(const HostProbe& probe) {
  std::ostringstream out;
  out << "{\"cpus\":" << probe.cpus << ",\"isa\":\"" << probe.isa
      << "\",\"llc_mib\":" << probe.llc_mib
      << ",\"triad_gbs_1t\":" << FullDigits(probe.triad_gbs_1t)
      << ",\"triad_gbs_nt\":" << FullDigits(probe.triad_gbs_nt)
      << ",\"compiler\":\"" << probe.compiler << "\",\"build_type\":\""
      << probe.build_type << "\",\"steal_share\":" << FullDigits(probe.steal_share) << "}";
  return out.str();
}

std::string FullDigits(double x) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", x);
  return buffer;
}

}  // namespace perfbench
