// Tests of the benchmark's own measurement rules: the percentile rule,
// open-loop timing from the due time, self-time subtraction and backlog
// growth detection. The open-loop tests drive a fake in-process server.
#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"
#include "open_loop.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileRuleTest, P99NeedsTenSamplesBeyondIt) {
  const std::vector<double> thousand = OneTo(1000);
  ASSERT_TRUE(SupportedPercentile(thousand, 99.0).has_value());
  EXPECT_EQ(*SupportedPercentile(thousand, 99.0), 990.0);
  EXPECT_FALSE(SupportedPercentile(OneTo(999), 99.0).has_value());
  EXPECT_FALSE(SupportedPercentile(thousand, 99.9).has_value());
}

TEST(PercentileRuleTest, HighestSupportedPercentileFollowsSampleCount) {
  EXPECT_EQ(HighestSupportedPercentile(OneTo(1000)).p, 99.0);
  EXPECT_EQ(HighestSupportedPercentile(OneTo(999)).p, 95.0);
  EXPECT_EQ(HighestSupportedPercentile(OneTo(200)).p, 95.0);
  EXPECT_EQ(HighestSupportedPercentile(OneTo(199)).p, 90.0);
  const TailStat twenty = HighestSupportedPercentile(OneTo(20));
  EXPECT_EQ(twenty.p, 50.0);
  EXPECT_EQ(twenty.value, 10.0);
  EXPECT_EQ(twenty.samples, 20);
  EXPECT_EQ(HighestSupportedPercentile(OneTo(19)).p, 0.0);
}

TEST(SelfTimeTest, NestedSpansSubtractTheirDirectChildren) {
  // Thread 1: A[0,100] holds B[10,40] (which holds C[20,30]) and D[50,70].
  // Thread 2: E[0,50] alone. Parents index within each thread's records.
  std::vector<SpanRecord> records = {
      {"A", 0, 100, -1, -1, 1, -1}, {"B", 10, 40, -1, -1, 1, 0},
      {"C", 20, 30, -1, -1, 1, 1},  {"D", 50, 70, -1, -1, 1, 0},
      {"E", 0, 50, -1, -1, 2, -1},
  };
  const auto totals = ComputeSelfTimes(records);
  EXPECT_EQ(totals.at("A").self_ns, 50.0);
  EXPECT_EQ(totals.at("A").total_ns, 100.0);
  EXPECT_EQ(totals.at("B").self_ns, 20.0);
  EXPECT_EQ(totals.at("C").self_ns, 10.0);
  EXPECT_EQ(totals.at("D").self_ns, 20.0);
  EXPECT_EQ(totals.at("E").self_ns, 50.0);
}

TEST(SelfTimeTest, TracerRecordsParentLinksAndIdentifiers) {
  Tracer::Instance().Clear();
  Tracer::Instance().SetEnabled(true);
  {
    Span outer("outer", 7);
    { Span inner("inner", 7, 3); }
  }
  { Span other("other"); }
  Tracer::Instance().SetEnabled(false);
  { Span ignored("ignored"); }
  const std::vector<SpanRecord> records = Tracer::Instance().Collect();
  Tracer::Instance().Clear();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_STREQ(records[0].name, "outer");
  EXPECT_EQ(records[0].parent, -1);
  EXPECT_STREQ(records[1].name, "inner");
  EXPECT_EQ(records[1].parent, 0);
  EXPECT_EQ(records[1].a, 7);
  EXPECT_EQ(records[1].b, 3);
  EXPECT_EQ(records[2].parent, -1);
  const auto totals = ComputeSelfTimes(records);
  EXPECT_LE(totals.at("outer").self_ns, totals.at("outer").total_ns);
  EXPECT_NEAR(totals.at("outer").self_ns + totals.at("inner").total_ns,
              totals.at("outer").total_ns, 1e-6);
}

// A fake streaming server: every `hop`-th row of a stream completes a
// window. Without a work hook, windows complete as soon as they are pushed;
// with one, the worker serves the queue at one window per `service`.
class FakeServer {
 public:
  FakeServer(std::int64_t streams, std::int64_t hop) : hop_(hop), rows_(streams, 0) {}

  OpenLoopHooks Hooks(bool instant, std::chrono::microseconds service) {
    OpenLoopHooks hooks;
    hooks.push = [this, instant](std::int64_t stream, std::int64_t, std::int64_t* seq) {
      const std::int64_t n = ++rows_[static_cast<std::size_t>(stream)];
      if (n % hop_ != 0) return PushKind::kAccepted;
      *seq = n - 1;
      std::lock_guard<std::mutex> lock(mu_);
      if (instant) {
        done_.push_back({stream, n - 1});
      } else {
        pending_.push_back({stream, n - 1});
      }
      return PushKind::kQueued;
    };
    hooks.poll = [this](std::vector<WindowId>* out) {
      std::lock_guard<std::mutex> lock(mu_);
      out->insert(out->end(), done_.begin(), done_.end());
      const bool any = !done_.empty();
      done_.clear();
      return any;
    };
    if (!instant) {
      hooks.work = [this, service] {
        bool did = false;
        for (;;) {
          WindowId id;
          {
            std::lock_guard<std::mutex> lock(mu_);
            if (pending_.empty()) return did;
            id = pending_.front();
            pending_.pop_front();
          }
          std::this_thread::sleep_for(service);
          std::lock_guard<std::mutex> lock(mu_);
          done_.push_back(id);
          did = true;
        }
      };
    }
    return hooks;
  }

 private:
  std::int64_t hop_;
  std::vector<std::int64_t> rows_;  // generator thread only
  std::mutex mu_;
  std::deque<WindowId> pending_;
  std::vector<WindowId> done_;
};

RungConfig SmallRung(double rows_per_s, double seconds) {
  RungConfig config;
  config.rows_per_s = rows_per_s;
  config.streams = 4;
  config.hop = 2;
  config.seconds = seconds;
  config.abort_backlog_windows = 1e9;
  return config;
}

std::int64_t CountAbove(const std::vector<double>& v, double limit) {
  std::int64_t n = 0;
  for (const double x : v) n += x > limit ? 1 : 0;
  return n;
}

TEST(OpenLoopTest, LatencyRunsFromTheDueTime) {
  FakeServer server(4, 2);
  const RungResult rung =
      RunRung(SmallRung(2000.0, 0.4), server.Hooks(true, std::chrono::microseconds(0)));
  ASSERT_TRUE(rung.drained);
  EXPECT_EQ(rung.rows_sent, 800);
  EXPECT_EQ(rung.windows_queued, 400);
  EXPECT_EQ(rung.latency_ms.size(), 400u);
  EXPECT_EQ(rung.unmatched, 0);
  EXPECT_EQ(CountAbove(rung.latency_ms, 20.0), 0);
}

TEST(OpenLoopTest, GeneratorStallIsChargedToLaterRows) {
  // A 60 ms stall before row 400 of 800 (2000 rows/s, 2 rows per window):
  // the schedule does not move, so every row due during the stall is sent
  // late and its window's latency includes the wait. Rows due in the first
  // 40 ms of the stall (80 rows, 40 windows) must show more than 20 ms.
  FakeServer server(4, 2);
  OpenLoopHooks hooks = server.Hooks(true, std::chrono::microseconds(0));
  hooks.before_send = [](std::int64_t i) {
    if (i == 400) std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };
  const RungResult rung = RunRung(SmallRung(2000.0, 0.4), hooks);
  ASSERT_TRUE(rung.drained);
  ASSERT_EQ(rung.latency_ms.size(), 400u);
  EXPECT_GE(*std::max_element(rung.latency_ms.begin(), rung.latency_ms.end()), 55.0);
  const std::int64_t slow = CountAbove(rung.latency_ms, 20.0);
  EXPECT_GE(slow, 35);
  EXPECT_LE(slow, 50);
  EXPECT_GE(rung.lateness_ms[400], 55.0);
  EXPECT_LT(rung.lateness_ms[399], 20.0);
}

TEST(OpenLoopTest, BacklogGrowsOnlyAtAnUnsustainableRung) {
  // The worker serves at most ~1000 windows/s (1 ms each).
  FakeServer slow(4, 2);
  const RungResult over =
      RunRung(SmallRung(4000.0, 0.6), slow.Hooks(false, std::chrono::milliseconds(1)));
  const RungVerdict over_verdict = JudgeRung(over, 50.0, 64.0);
  EXPECT_TRUE(over_verdict.growing);
  EXPECT_FALSE(over_verdict.meets);

  FakeServer fast(4, 2);
  const RungResult under =
      RunRung(SmallRung(400.0, 0.6), fast.Hooks(false, std::chrono::milliseconds(1)));
  const RungVerdict under_verdict = JudgeRung(under, 50.0, 64.0);
  EXPECT_FALSE(under_verdict.growing);
  EXPECT_TRUE(under.drained);
}

TEST(OpenLoopTest, BacklogGrowthUsesTheSecondHalfTrend) {
  std::vector<BacklogSample> flat;
  std::vector<BacklogSample> rising;
  for (int i = 0; i <= 100; ++i) {
    const double t = i * 0.01;
    flat.push_back({t, 30.0 + (i % 7) * 5.0});  // bounded jitter
    rising.push_back({t, 10.0 + 300.0 * t});    // +150 windows per half
  }
  EXPECT_FALSE(BacklogGrowing(flat, 1.0, 64.0));
  EXPECT_TRUE(BacklogGrowing(rising, 1.0, 64.0));
  EXPECT_FALSE(BacklogGrowing(rising, 1.0, 200.0));
}

TEST(LadderTest, RungsAreFivePercentApartAndSearchFindsTheBoundary) {
  EXPECT_DOUBLE_EQ(LadderRate(0), kLadderBaseRowsPerS);
  EXPECT_NEAR(LadderRate(1) / LadderRate(0), 1.05, 1e-12);
  const auto passes_below_30 = [](int rung) { return rung <= 30; };
  const LadderSearch from_below = SearchLadder(27, 8, passes_below_30);
  EXPECT_EQ(from_below.best_rung, 30);
  EXPECT_EQ(from_below.probes.size(), 5u);  // 27, 29 pass; 33, 31 fail; 30 passes
  const LadderSearch from_above = SearchLadder(33, 8, passes_below_30);
  EXPECT_EQ(from_above.best_rung, 30);
  EXPECT_EQ(from_above.probes.size(), 5u);  // 33, 31 fail; 27, 29, 30 pass
  EXPECT_EQ(SearchLadder(10, 8, passes_below_30).best_rung, 30);  // 10, 12, 16, 24 pass ...
  EXPECT_EQ(SearchLadder(1, 3, [](int) { return false; }).best_rung, -1);
  EXPECT_EQ(SearchLadder(33, 2, passes_below_30).best_rung, -1);
}

}  // namespace
}  // namespace perfbench
