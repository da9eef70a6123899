#include "open_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "harness.h"

namespace perfbench {
namespace {

std::uint64_t Key(std::int64_t stream, std::int64_t seq) {
  return (static_cast<std::uint64_t>(stream) << 40) ^
         static_cast<std::uint64_t>(seq);
}

// Longest the consumer waits for the last windows after sending ends.
constexpr double kDrainTimeoutS = 20.0;

struct QueuedWindow {
  WindowId id;
  std::int64_t due_ns = 0;
};

struct DoneWindow {
  WindowId id;
  std::int64_t received_ns = 0;
};

}  // namespace

RungResult RunRung(const RungConfig& config, const OpenLoopHooks& hooks) {
  RungResult result;
  result.config = config;
  const auto total_rows =
      static_cast<std::int64_t>(std::llround(config.seconds * config.rows_per_s));
  const double ns_per_row = 1e9 / config.rows_per_s;
  const double hop = static_cast<double>(std::max<std::int64_t>(1, config.hop));

  std::atomic<std::int64_t> sent{0};
  std::atomic<std::int64_t> queued{0};
  std::atomic<std::int64_t> done_count{0};
  std::atomic<bool> sending_done{false};
  std::atomic<std::int64_t> send_end_ns{0};
  std::vector<QueuedWindow> queued_list;  // generator only
  std::vector<DoneWindow> done_list;      // consumer only
  queued_list.reserve(static_cast<std::size_t>(total_rows / config.hop + 16));
  done_list.reserve(queued_list.capacity());
  result.lateness_ms.reserve(static_cast<std::size_t>(total_rows));

  // The schedule starts slightly in the future so the consumer is running.
  const std::int64_t t0 = NowNs() + 2'000'000;
  const auto due_rows_at = [&](std::int64_t now) -> std::int64_t {
    if (now < t0) return 0;
    return std::min<std::int64_t>(
        total_rows,
        static_cast<std::int64_t>(static_cast<double>(now - t0) / ns_per_row) + 1);
  };
  const auto backlog_at = [&](std::int64_t now) {
    const double unsent = static_cast<double>(
        std::max<std::int64_t>(0, due_rows_at(now) - sent.load(std::memory_order_relaxed)));
    const double outstanding = static_cast<double>(
        queued.load(std::memory_order_relaxed) -
        done_count.load(std::memory_order_relaxed));
    return unsent / hop + outstanding;
  };

  // The server's scoring thread, when the server needs one driven. It naps
  // 100 us when idle rather than blocking: on a virtual machine a blocked
  // thread's vCPU may be descheduled, and waking it again added up to
  // ~10 ms to the fixed-rate p99.
  std::atomic<bool> stop_work{false};
  std::int64_t busy_ns = 0;
  std::thread worker;
  if (hooks.work) {
    worker = std::thread([&] {
      Span root("fleet.worker");
      while (!stop_work.load(std::memory_order_acquire)) {
        const std::int64_t before = NowNs();
        if (hooks.work()) {
          busy_ns += NowNs() - before;
        } else {
          Span idle("serve.idle");
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    });
  }

  std::thread consumer([&] {
    Span root("fleet.consumer");
    std::vector<WindowId> batch;
    std::int64_t next_sample = t0;
    for (;;) {
      batch.clear();
      const bool did = hooks.poll(&batch);
      const std::int64_t after = NowNs();
      for (const WindowId& id : batch) done_list.push_back({id, after});
      done_count.fetch_add(static_cast<std::int64_t>(batch.size()),
                           std::memory_order_relaxed);
      const bool finished = sending_done.load(std::memory_order_acquire);
      if (!finished && after >= next_sample) {
        result.backlog.push_back(
            {static_cast<double>(after - t0) / 1e9, backlog_at(after)});
        next_sample = after + 5'000'000;
      }
      if (finished) {
        if (done_count.load(std::memory_order_relaxed) >=
            queued.load(std::memory_order_relaxed)) {
          result.drained = true;
          break;
        }
        if (static_cast<double>(after - send_end_ns.load()) / 1e9 > kDrainTimeoutS) {
          break;
        }
      }
      if (!did) {
        Span idle("client.idle");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  });

  for (std::int64_t i = 0; i < total_rows; ++i) {
    const auto due = t0 + static_cast<std::int64_t>(static_cast<double>(i) * ns_per_row);
    if (hooks.before_send) hooks.before_send(i);
    std::int64_t now = NowNs();
    if (now < due) {
      Span wait("gen.wait", i);
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    result.lateness_ms.push_back(static_cast<double>(now - due) / 1e6);
    const std::int64_t stream = i % config.streams;
    const std::int64_t row = config.first_row + i / config.streams;
    std::int64_t seq = -1;
    const PushKind kind = hooks.push(stream, row, &seq);
    if (kind == PushKind::kRefused) {
      ++result.rows_refused;
    } else if (kind == PushKind::kQueued) {
      queued_list.push_back({{stream, seq}, due});
      queued.fetch_add(1, std::memory_order_relaxed);
    }
    sent.fetch_add(1, std::memory_order_relaxed);
    if (i % 64 == 63 && backlog_at(NowNs()) > config.abort_backlog_windows) {
      result.aborted = true;
      break;
    }
  }
  const std::int64_t send_end = NowNs();
  send_end_ns.store(send_end);
  sending_done.store(true, std::memory_order_release);
  consumer.join();
  stop_work.store(true, std::memory_order_release);
  if (worker.joinable()) worker.join();

  result.rows_sent = sent.load();
  result.windows_queued = queued.load();
  result.windows_done = done_count.load();
  result.send_seconds = static_cast<double>(send_end - t0) / 1e9;
  result.server_busy_seconds = static_cast<double>(busy_ns) / 1e9;
  std::unordered_map<std::uint64_t, std::int64_t> due_by_window;
  due_by_window.reserve(queued_list.size());
  for (const QueuedWindow& q : queued_list) {
    due_by_window[Key(q.id.stream, q.id.seq)] = q.due_ns;
  }
  result.latency_ms.reserve(done_list.size());
  for (const DoneWindow& d : done_list) {
    const auto it = due_by_window.find(Key(d.id.stream, d.id.seq));
    if (it == due_by_window.end()) {
      ++result.unmatched;
      continue;
    }
    result.latency_ms.push_back(static_cast<double>(d.received_ns - it->second) / 1e6);
  }
  return result;
}

bool BacklogGrowing(const std::vector<BacklogSample>& samples,
                    double send_seconds, double limit_windows) {
  // Least-squares slope over the second half of the sending interval: the
  // first half absorbs the start-up transient.
  const double from = send_seconds / 2.0;
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const BacklogSample& s : samples) {
    if (s.t_s < from || s.t_s > send_seconds) continue;
    n += 1;
    sx += s.t_s;
    sy += s.windows;
    sxx += s.t_s * s.t_s;
    sxy += s.t_s * s.windows;
  }
  if (n < 3) return false;
  const double denom = n * sxx - sx * sx;
  if (denom <= 0) return false;
  const double slope = (n * sxy - sx * sy) / denom;
  return slope * (send_seconds - from) > limit_windows;
}

RungVerdict JudgeRung(const RungResult& rung, double p99_limit_ms,
                      double growth_limit_windows) {
  RungVerdict verdict;
  verdict.growing =
      rung.aborted ||
      BacklogGrowing(rung.backlog, rung.send_seconds, growth_limit_windows);
  std::vector<double> sorted = rung.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const auto p99 = SupportedPercentile(sorted, 99.0);
  verdict.p99_ms = p99.value_or(0.0);
  // A refused row counts as missing the limit, as does a window that never
  // came back.
  verdict.meets = !verdict.growing && rung.drained && rung.rows_refused == 0 &&
                  rung.unmatched == 0 && p99.has_value() &&
                  *p99 <= p99_limit_ms;
  return verdict;
}

double LadderRate(int rung) {
  return kLadderBaseRowsPerS * std::pow(kLadderStep, rung);
}

LadderSearch SearchLadder(int start, int max_probes,
                          const std::function<bool(int)>& probe) {
  LadderSearch search;
  const auto budget_left = [&] { return static_cast<int>(search.probes.size()) < max_probes; };
  const auto run = [&](int rung) {
    const bool pass = probe(rung);
    search.probes.push_back({rung, pass});
    return pass;
  };
  // Bracket the boundary with steps that double (2, 4, 8 rungs) in the
  // direction the first probe points, then bisect the bracket.
  int pass = -1;  // highest rung seen to pass
  int fail = -1;  // lowest rung seen to fail
  const int first = std::max(0, start);
  if (run(first)) {
    pass = first;
    for (int step = 2; budget_left(); step *= 2) {
      if (run(pass + step)) {
        pass += step;
      } else {
        fail = pass + step;
        break;
      }
    }
  } else {
    fail = first;
    for (int step = 2; budget_left() && fail > 0; step *= 2) {
      const int rung = std::max(0, fail - step);
      if (run(rung)) {
        pass = rung;
        break;
      }
      fail = rung;
    }
  }
  while (pass >= 0 && fail > pass + 1 && budget_left()) {
    const int mid = pass + (fail - pass) / 2;
    (run(mid) ? pass : fail) = mid;
  }
  search.best_rung = pass;
  return search;
}

}  // namespace perfbench
