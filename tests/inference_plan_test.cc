// Pre-planned inference tests (DESIGN.md §10): bitwise eager-vs-planned
// scoring on every dataset profile at 1/2/4 threads, capture after a
// checkpoint round trip, re-capture on geometry change, the injected-fault
// eager fallback, zero-allocation steady-state replay, the scrub canary,
// the single-logical-allocation arena accounting, the ledger `plan`
// event, and Score() spreading windows across plan lanes (bitwise equal to
// a spelled-out serial pipeline at 1/2/4 threads; sticky int8 demotion).
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/inference_plan.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "obs/ledger.h"
#include "obs/trace.h"
#include "tensor/pool.h"
#include "util/fault.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tfmae::core {
namespace {

// Restores thread count, scrub mode and fault config on scope exit so a
// failing test cannot poison its neighbours.
class EnvGuard {
 public:
  ~EnvGuard() {
    ThreadPool::Instance().SetNumThreads(1);
    pool::SetScrubForTesting(false);
    fault::Clear();
  }
};

TfmaeConfig TinyConfig() {
  TfmaeConfig config;
  config.window = 16;
  config.stride = 16;
  config.model_dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 16;
  config.epochs = 1;
  config.seed = 3;
  return config;
}

data::TimeSeries Head(const data::TimeSeries& series, std::int64_t n) {
  data::TimeSeries out;
  out.length = std::min(n, series.length);
  out.num_features = series.num_features;
  out.values.assign(
      series.values.begin(),
      series.values.begin() +
          static_cast<std::size_t>(out.length * out.num_features));
  return out;
}

data::TimeSeries TinySignal(std::int64_t length, std::int64_t features,
                            std::uint64_t seed) {
  data::BaseSignalConfig signal;
  signal.length = length;
  signal.num_features = features;
  signal.seed = seed;
  return data::GenerateBaseSignal(signal);
}

// Two identically fitted detectors: .planned scores through the plan,
// .eager is the eager reference (scored through EagerScore). Fit is
// deterministic for a fixed (data, config, seed), so both hold bitwise-equal
// weights and rng states; scoring call #k on one is comparable to call #k on
// the other.
struct Twins {
  std::unique_ptr<TfmaeDetector> planned;
  std::unique_ptr<TfmaeDetector> eager;
};

Twins FitTwins(const data::TimeSeries& train, const TfmaeConfig& config) {
  Twins twins;
  twins.planned = std::make_unique<TfmaeDetector>(config);
  twins.eager = std::make_unique<TfmaeDetector>(config);
  twins.planned->Fit(train);
  twins.eager->Fit(train);
  return twins;
}

// Scores on the eager path: every capture fails, so the call takes the
// scoring path's serial eager fallback (core/plan_lanes.h).
std::vector<float> EagerScore(TfmaeDetector* detector,
                              const data::TimeSeries& series) {
  fault::ScopedFaults faults("infer.plan.capture:1.0");
  std::vector<float> scores = detector->Score(series);
  EXPECT_EQ(detector->inference_plan(), nullptr);
  return scores;
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << what << ": planned scores are not bitwise-identical to eager";
  }
}

// The acceptance contract: on every benchmark profile, planned scoring is
// bitwise-identical to eager at 1, 2 and 4 threads — and the plan really
// is active (a silent eager fallback would pass a pure score comparison).
TEST(InferencePlanTest, BitwiseMatchesEagerOnAllProfilesAtAllThreadCounts) {
  EnvGuard guard;
  const TfmaeConfig config = TinyConfig();
  for (const data::BenchmarkDataset dataset : data::MainDatasets()) {
    const data::LabeledDataset full = data::MakeBenchmarkDataset(dataset, 0.1);
    const data::TimeSeries train = Head(full.train, 256);
    const data::TimeSeries test = Head(full.test, 96);
    ASSERT_GE(train.length, config.window) << data::DatasetName(dataset);
    Twins twins = FitTwins(train, config);
    for (const int threads : {1, 2, 4}) {
      ThreadPool::Instance().SetNumThreads(threads);
      const std::vector<float> planned = twins.planned->Score(test);
      const std::vector<float> eager = EagerScore(twins.eager.get(), test);
      ASSERT_NE(twins.planned->inference_plan(), nullptr)
          << data::DatasetName(dataset) << " fell back to eager scoring";
      EXPECT_EQ(twins.planned->plan_capture_failures(), 0);
      ExpectBitwiseEqual(planned, eager,
                         data::DatasetName(dataset) + " @" +
                             std::to_string(threads) + "T");
    }
    EXPECT_GT(twins.planned->inference_plan()->stats().replays, 0);
  }
}

// A detector restored from a checkpoint captures a plan exactly like a
// freshly fitted one (weights arrive via LoadParameters, not Fit).
TEST(InferencePlanTest, CapturesAfterCheckpointRoundTrip) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 11);
  const data::TimeSeries test = TinySignal(80, 2, 12);
  TfmaeDetector fitted(TinyConfig());
  fitted.Fit(train);

  const std::string prefix =
      (std::filesystem::temp_directory_path() / "tfmae_plan_ckpt").string();
  ASSERT_TRUE(fitted.SaveCheckpoint(prefix));

  TfmaeDetector planned(TinyConfig());
  TfmaeDetector eager(TinyConfig());
  ASSERT_TRUE(planned.LoadCheckpoint(prefix));
  ASSERT_TRUE(eager.LoadCheckpoint(prefix));
  for (const char* suffix : {".config", ".norm", ".weights"}) {
    std::error_code ec;
    std::filesystem::remove(prefix + suffix, ec);
  }

  const std::vector<float> planned_scores = planned.Score(test);
  const std::vector<float> eager_scores = EagerScore(&eager, test);
  ASSERT_NE(planned.inference_plan(), nullptr);
  ExpectBitwiseEqual(planned_scores, eager_scores, "checkpoint resume");
}

// A series shorter than config.window shrinks the effective window; the old
// plan's geometry no longer matches and a fresh capture must replace it
// (never a wrong replay).
TEST(InferencePlanTest, RecapturesWhenWindowGeometryChanges) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 21);
  const data::TimeSeries long_test = TinySignal(80, 2, 22);
  const data::TimeSeries short_test = TinySignal(12, 2, 23);
  Twins twins = FitTwins(train, TinyConfig());

  ExpectBitwiseEqual(twins.planned->Score(long_test),
                     EagerScore(twins.eager.get(), long_test), "long series");
  ASSERT_NE(twins.planned->inference_plan(), nullptr);
  const std::int64_t long_arena =
      twins.planned->inference_plan()->stats().arena_bytes;

  ExpectBitwiseEqual(twins.planned->Score(short_test),
                     EagerScore(twins.eager.get(), short_test), "short series");
  ASSERT_NE(twins.planned->inference_plan(), nullptr);
  EXPECT_NE(twins.planned->inference_plan()->stats().arena_bytes, long_arena)
      << "geometry change did not trigger a re-capture";
  EXPECT_EQ(twins.planned->plan_capture_failures(), 0);
}

// Injected capture failure (fault site infer.plan.capture): the whole Score
// call degrades to eager — identical answers — and the next call captures
// normally.
TEST(InferencePlanTest, InjectedCaptureFaultFallsBackToEager) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 31);
  const data::TimeSeries test = TinySignal(80, 2, 32);
  Twins twins = FitTwins(train, TinyConfig());

  fault::ScopedFaults faults("infer.plan.capture:#1");
  const std::vector<float> faulted = twins.planned->Score(test);
  EXPECT_EQ(twins.planned->inference_plan(), nullptr);
  EXPECT_EQ(twins.planned->plan_capture_failures(), 1);
  ExpectBitwiseEqual(faulted, EagerScore(twins.eager.get(), test), "faulted call");

  // The occurrence trigger is spent: the second call captures a real plan.
  const std::vector<float> recovered = twins.planned->Score(test);
  ASSERT_NE(twins.planned->inference_plan(), nullptr);
  EXPECT_EQ(twins.planned->plan_capture_failures(), 1);
  ExpectBitwiseEqual(recovered, EagerScore(twins.eager.get(), test), "recovered call");
}

// Steady-state replay performs zero tensor allocations: no MemoryStats
// alloc calls, no pool heap traffic.
TEST(InferencePlanTest, SteadyStateReplayAllocatesNothing) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 41);
  TfmaeDetector detector(TinyConfig());
  detector.Fit(train);
  ASSERT_NE(detector.model(), nullptr);

  Rng rng(7);
  std::vector<float> values(
      static_cast<std::size_t>(TinyConfig().window * train.num_features));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(0.37f * static_cast<float>(i));
  }
  const MaskedWindow window = detector.model()->PrepareWindow(values, &rng);

  std::vector<float> eager_scores;
  std::string error;
  std::unique_ptr<InferencePlan> plan =
      InferencePlan::Capture(*detector.model(), window, &eager_scores, &error);
  ASSERT_NE(plan, nullptr) << error;

  std::vector<float> out;
  plan->Score(window, &out);  // warm-up: resizes `out` once
  const std::int64_t allocs_before = MemoryStats::AllocCalls();
  const std::int64_t heap_before = pool::Stats().HeapAllocs();
  for (int i = 0; i < 4; ++i) plan->Score(window, &out);
  EXPECT_EQ(MemoryStats::AllocCalls() - allocs_before, 0);
  EXPECT_EQ(pool::Stats().HeapAllocs() - heap_before, 0);
  ExpectBitwiseEqual(out, eager_scores, "steady-state replay");
}

// TFMAE_POOL_SCRUB=1 refills the arena with NaN canaries before every
// replay; a replay that read uninitialized arena bytes would surface them.
TEST(InferencePlanTest, ScrubCanaryLeavesReplaysIdentical) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 51);
  TfmaeDetector detector(TinyConfig());
  detector.Fit(train);

  Rng rng(9);
  std::vector<float> values(
      static_cast<std::size_t>(TinyConfig().window * train.num_features));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = std::cos(0.21f * static_cast<float>(i));
  }
  const MaskedWindow window = detector.model()->PrepareWindow(values, &rng);

  std::vector<float> eager_scores;
  std::unique_ptr<InferencePlan> plan =
      InferencePlan::Capture(*detector.model(), window, &eager_scores);
  ASSERT_NE(plan, nullptr);

  pool::SetScrubForTesting(true);
  std::vector<float> first;
  std::vector<float> second;
  plan->Score(window, &first);
  plan->Score(window, &second);
  pool::SetScrubForTesting(false);
  for (const float s : first) EXPECT_TRUE(std::isfinite(s));
  ExpectBitwiseEqual(first, eager_scores, "scrubbed replay vs eager");
  ExpectBitwiseEqual(first, second, "scrubbed replay vs replay");
}

// The arena is ONE logical allocation: building a plan moves MemoryStats by
// exactly stats().arena_bytes (the capture pass's eager tensors all net
// out), and destroying the plan returns to the baseline.
TEST(InferencePlanTest, ArenaIsOneLogicalAllocation) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 61);
  TfmaeDetector detector(TinyConfig());
  detector.Fit(train);

  Rng rng(13);
  std::vector<float> values(
      static_cast<std::size_t>(TinyConfig().window * train.num_features));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.01f * static_cast<float>(i % 17);
  }
  const MaskedWindow window = detector.model()->PrepareWindow(values, &rng);

  const std::int64_t baseline = MemoryStats::CurrentBytes();
  {
    std::vector<float> eager_scores;
    std::unique_ptr<InferencePlan> plan = InferencePlan::Capture(
        *detector.model(), window, &eager_scores);
    ASSERT_NE(plan, nullptr);
    EXPECT_GT(plan->stats().arena_bytes, 0);
    EXPECT_EQ(MemoryStats::CurrentBytes() - baseline,
              plan->stats().arena_bytes)
        << "plan arena must account as exactly one logical allocation";
  }
  EXPECT_EQ(MemoryStats::CurrentBytes(), baseline);
}

// Every capture emits one `plan` ledger event, carrying the
// deterministic plan shape; its wall-clock t_capture_ms field is stripped
// from the canonical stream like every other t_* field.
TEST(InferencePlanTest, LedgerRecordsPlanEvent) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 71);
  const data::TimeSeries test = TinySignal(80, 2, 72);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tfmae_plan_event.jsonl")
          .string();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".partial", ec);

  obs::RunManifest manifest;
  manifest.tool = "inference_plan_test";
  manifest.run_id = "plan_event";
  ASSERT_TRUE(obs::Ledger::Instance().Open(path, manifest));
  TfmaeDetector detector(TinyConfig());
  detector.Fit(train);
  detector.Score(test);
  ASSERT_TRUE(obs::Ledger::Instance().Close());
  ASSERT_NE(detector.inference_plan(), nullptr);

  auto file = obs::ReadLedger(path);
  std::filesystem::remove(path, ec);
  ASSERT_TRUE(file.has_value());
  const obs::LedgerEvent* plan_event = nullptr;
  for (const obs::LedgerEvent& event : file->events) {
    if (event.type == "plan") plan_event = &event;
  }
  ASSERT_NE(plan_event, nullptr) << "no plan event in the run ledger";
  EXPECT_GT(plan_event->Number("ops"), 0.0);
  EXPECT_GT(plan_event->Number("fused_ops"), 0.0);
  EXPECT_GT(plan_event->Number("arena_bytes"), 0.0);
  EXPECT_NE(plan_event->Field("t_capture_ms"), nullptr);
  const std::string canonical = obs::CanonicalEventStream(*file);
  EXPECT_EQ(canonical.find("t_capture_ms"), std::string::npos)
      << "wall-clock t_* fields must not reach the canonical stream";
}

// ---- Score() across plan lanes (core/plan_lanes.h) -------------------------

TfmaeConfig LaneConfig() {
  TfmaeConfig config = TinyConfig();
  config.score_stride = 5;  // overlapping windows; 5 divides no test length
  return config;
}

// Score() spelled out one window at a time on this thread: extract,
// normalize, mask (drawing from `mask_rng`), eager ScoreWindow, then the
// overlap average in window order. Eager is bitwise the fp32 plan, so this
// is what Score() must return at every thread count.
std::vector<float> SerialReferenceScore(const TfmaeDetector& detector,
                                        const data::TimeSeries& series,
                                        Rng* mask_rng) {
  const TfmaeConfig& config = detector.config();
  const data::TimeSeries normalized = detector.normalizer().Apply(series);
  const std::int64_t nf = normalized.num_features;
  const std::int64_t window = std::min(config.window, normalized.length);
  const std::int64_t stride =
      config.score_stride > 0 ? std::min(config.score_stride, window) : window;
  std::vector<double> sum(static_cast<std::size_t>(series.length), 0.0);
  std::vector<std::int32_t> count(static_cast<std::size_t>(series.length), 0);
  for (const std::int64_t start :
       data::WindowStarts(normalized.length, window, stride)) {
    std::vector<float> values(
        normalized.values.begin() + static_cast<std::ptrdiff_t>(start * nf),
        normalized.values.begin() +
            static_cast<std::ptrdiff_t>((start + window) * nf));
    if (config.per_window_normalization) {
      PerWindowNormalize(&values, window, nf);
    }
    const std::vector<float> scores = detector.model()->ScoreWindow(
        detector.model()->PrepareWindow(values, mask_rng));
    for (std::int64_t t = 0; t < window; ++t) {
      sum[static_cast<std::size_t>(start + t)] +=
          scores[static_cast<std::size_t>(t)];
      ++count[static_cast<std::size_t>(start + t)];
    }
  }
  std::vector<float> out(static_cast<std::size_t>(series.length), 0.0f);
  for (std::size_t t = 0; t < out.size(); ++t) {
    if (count[t] > 0) {
      out[t] = static_cast<float>(sum[t] / static_cast<double>(count[t]));
    }
  }
  return out;
}

std::int64_t NumScoreWindows(const TfmaeConfig& config, std::int64_t length) {
  const std::int64_t window = std::min(config.window, length);
  const std::int64_t stride =
      config.score_stride > 0 ? std::min(config.score_stride, window) : window;
  return static_cast<std::int64_t>(
      data::WindowStarts(length, window, stride).size());
}

// On every dataset profile, at 1/2/4 threads, Score() equals the serial
// pipeline bit for bit, really runs planned, and stats().replays counts
// every replay of the call summed over lanes.
TEST(InferencePlanLanesTest, ScoreMatchesSerialReferenceOnAllProfiles) {
  EnvGuard guard;
  const TfmaeConfig config = LaneConfig();
  for (const data::BenchmarkDataset dataset : data::MainDatasets()) {
    const data::LabeledDataset full = data::MakeBenchmarkDataset(dataset, 0.1);
    const data::TimeSeries train = Head(full.train, 256);
    const data::TimeSeries test = Head(full.test, 98);
    TfmaeDetector detector(config);
    detector.Fit(train);
    const std::vector<float> reference =
        SerialReferenceScore(detector, test, nullptr);
    const std::int64_t windows = NumScoreWindows(config, test.length);
    for (const int threads : {1, 2, 4}) {
      ThreadPool::Instance().SetNumThreads(threads);
      const std::int64_t replays_before =
          detector.inference_plan() == nullptr
              ? 0
              : detector.inference_plan()->stats().replays;
      const std::vector<float> scores = detector.Score(test);
      const std::string what =
          data::DatasetName(dataset) + " @" + std::to_string(threads) + "T";
      ASSERT_NE(detector.inference_plan(), nullptr) << what;
      EXPECT_EQ(detector.plan_capture_failures(), 0) << what;
      ExpectBitwiseEqual(scores, reference, what);
      // Every window replays, the capture call's window 0 included.
      EXPECT_EQ(detector.inference_plan()->stats().replays - replays_before,
                windows)
          << what;
    }
  }
}

// The random ablation variants draw their masks from the detector's rng in
// window order. A loaded detector's mask stream is reproducible from the
// seed, so two successive calls must equal the serial pipeline continuing
// one Rng.
TEST(InferencePlanLanesTest, RandomMaskVariantsKeepTheirDrawOrder) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 3, 81);
  const data::TimeSeries test = TinySignal(97, 3, 82);
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "tfmae_lanes_random").string();
  for (const bool temporal : {true, false}) {
    TfmaeConfig config = LaneConfig();
    if (temporal) {
      config.temporal_mask = masking::TemporalMaskVariant::kRandom;
    } else {
      config.frequency_mask = masking::FrequencyMaskVariant::kRandom;
    }
    TfmaeDetector fitted(config);
    fitted.Fit(train);
    ASSERT_TRUE(fitted.SaveCheckpoint(prefix));
    for (const int threads : {1, 2, 4}) {
      ThreadPool::Instance().SetNumThreads(threads);
      TfmaeDetector detector(config);
      ASSERT_TRUE(detector.LoadCheckpoint(prefix));
      // LoadCheckpoint reseeds with config.seed, then model construction
      // draws the initial weights; the masks continue from there.
      Rng mask_rng(config.seed);
      const TfmaeModel init_draws(test.num_features, config, &mask_rng);
      const std::string what = std::string(temporal ? "temporal" : "frequency") +
                               " @" + std::to_string(threads) + "T";
      for (int call = 0; call < 2; ++call) {
        const std::vector<float> scores = detector.Score(test);
        ASSERT_NE(detector.inference_plan(), nullptr) << what;
        ExpectBitwiseEqual(scores,
                           SerialReferenceScore(detector, test, &mask_rng),
                           what + " call " + std::to_string(call));
      }
    }
  }
  for (const char* ext : {".config", ".norm", ".weights"}) {
    std::error_code ec;
    std::filesystem::remove(prefix + ext, ec);
  }
}

// Edge geometries: a one-window series (no extra lanes), a length the
// stride does not divide, and a series shorter than the window.
TEST(InferencePlanLanesTest, EdgeLengthsMatchSerialReference) {
  EnvGuard guard;
  const TfmaeConfig config = LaneConfig();
  const data::TimeSeries train = TinySignal(192, 2, 83);
  TfmaeDetector detector(config);
  detector.Fit(train);
  for (const std::int64_t length : {config.window, std::int64_t{53},
                                    config.window - 3}) {
    const data::TimeSeries test = TinySignal(length, 2, 84);
    const std::vector<float> reference =
        SerialReferenceScore(detector, test, nullptr);
    for (const int threads : {1, 2, 4}) {
      ThreadPool::Instance().SetNumThreads(threads);
      ExpectBitwiseEqual(detector.Score(test), reference,
                         "length " + std::to_string(length) + " @" +
                             std::to_string(threads) + "T");
    }
  }
}

// Int8 lanes share lane 0's precision: a quantized call scores the same at
// every thread count, and every lane replays the int8 plan.
TEST(InferencePlanLanesTest, Int8ScoreIsThreadCountInvariant) {
  EnvGuard guard;
  const TfmaeConfig config = LaneConfig();
  const data::TimeSeries train = TinySignal(192, 2, 85);
  const data::TimeSeries test = TinySignal(96, 2, 86);
  TfmaeDetector fitted(config);
  fitted.Fit(train);
  ASSERT_TRUE(fitted.Calibrate(train));
  std::vector<float> reference;
  for (const int threads : {1, 2, 4}) {
    ThreadPool::Instance().SetNumThreads(threads);
    TfmaeDetector detector(config);
    detector.Fit(train);
    detector.SetQuantSpec(fitted.quant_spec());
    detector.SetQuantMode(TfmaeDetector::QuantMode::kInt8);
    detector.Score(test);  // captures
    const std::vector<float> scores = detector.Score(test);
    ASSERT_NE(detector.inference_plan(), nullptr);
    EXPECT_TRUE(detector.inference_plan()->stats().quantized);
    EXPECT_EQ(detector.quant_fallbacks(), 0);
    if (threads == 1) {
      reference = scores;
    } else {
      ExpectBitwiseEqual(scores, reference,
                         "int8 @" + std::to_string(threads) + "T");
    }
  }
}

// An injected capture failure degrades the whole call to the serial eager
// path at any thread count; the next call captures and spreads again.
TEST(InferencePlanLanesTest, InjectedCaptureFaultFallsBackAtAnyThreadCount) {
  EnvGuard guard;
  const TfmaeConfig config = LaneConfig();
  const data::TimeSeries train = TinySignal(192, 2, 87);
  const data::TimeSeries test = TinySignal(91, 2, 88);
  for (const int threads : {1, 2, 4}) {
    ThreadPool::Instance().SetNumThreads(threads);
    TfmaeDetector detector(config);
    detector.Fit(train);
    const std::vector<float> reference =
        SerialReferenceScore(detector, test, nullptr);
    const std::string what = std::to_string(threads) + "T";
    {
      fault::ScopedFaults faults("infer.plan.capture:#1");
      ExpectBitwiseEqual(detector.Score(test), reference, what + " faulted");
      EXPECT_EQ(detector.inference_plan(), nullptr) << what;
      EXPECT_EQ(detector.plan_capture_failures(), 1) << what;
    }
    ExpectBitwiseEqual(detector.Score(test), reference, what + " recovered");
    EXPECT_NE(detector.inference_plan(), nullptr) << what;
  }
}

// A failed quantized capture demotes the detector's lanes to fp32 for good:
// the next call neither retries int8 nor counts another fallback, and both
// score exactly like the fp32 pipeline. A quant-mode change lifts it.
TEST(InferencePlanLanesTest, QuantCaptureFaultDemotionIsSticky) {
  EnvGuard guard;
  const TfmaeConfig config = LaneConfig();
  const data::TimeSeries train = TinySignal(192, 2, 93);
  const data::TimeSeries test = TinySignal(96, 2, 94);
  TfmaeDetector detector(config);
  detector.Fit(train);
  ASSERT_TRUE(detector.Calibrate(train));
  detector.SetQuantMode(TfmaeDetector::QuantMode::kInt8);
  const std::vector<float> reference =
      SerialReferenceScore(detector, test, nullptr);
  ThreadPool::Instance().SetNumThreads(4);
  {
    fault::ScopedFaults faults("infer.quant.capture:1.0");
    for (int call = 0; call < 2; ++call) {
      const std::string what = "demoted call " + std::to_string(call);
      ExpectBitwiseEqual(detector.Score(test), reference, what);
      ASSERT_NE(detector.inference_plan(), nullptr) << what;
      EXPECT_FALSE(detector.inference_plan()->stats().quantized) << what;
      EXPECT_EQ(detector.quant_fallbacks(), 1) << what;
    }
  }
  detector.SetQuantMode(TfmaeDetector::QuantMode::kOff);
  detector.SetQuantMode(TfmaeDetector::QuantMode::kInt8);
  detector.Score(test);
  ASSERT_NE(detector.inference_plan(), nullptr);
  EXPECT_TRUE(detector.inference_plan()->stats().quantized);
  EXPECT_EQ(detector.quant_fallbacks(), 1);
}

// Extra lanes are replicas of one capture: the ledger carries one `plan`
// event per capture geometry, and the canonical stream is byte-identical
// at 1/2/4 threads.
TEST(InferencePlanLanesTest, LedgerIsThreadCountInvariant) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 89);
  const data::TimeSeries test = TinySignal(90, 2, 90);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tfmae_lanes_ledger.jsonl")
          .string();
  std::string reference;
  for (const int threads : {1, 2, 4}) {
    ThreadPool::Instance().SetNumThreads(threads);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".partial", ec);
    obs::RunManifest manifest;
    manifest.tool = "inference_plan_test";
    manifest.run_id = "lanes_ledger";
    ASSERT_TRUE(obs::Ledger::Instance().Open(path, manifest));
    TfmaeDetector detector(LaneConfig());
    detector.Fit(train);
    detector.Score(test);
    detector.Score(test);
    ASSERT_TRUE(obs::Ledger::Instance().Close());
    auto file = obs::ReadLedger(path);
    std::filesystem::remove(path, ec);
    ASSERT_TRUE(file.has_value());
    int plan_events = 0;
    for (const obs::LedgerEvent& event : file->events) {
      if (event.type == "plan") ++plan_events;
    }
    EXPECT_EQ(plan_events, 1) << threads << "T";
    const std::string canonical = obs::CanonicalEventStream(*file);
    if (threads == 1) {
      reference = canonical;
    } else {
      EXPECT_EQ(canonical, reference) << threads << "T";
    }
  }
}

// TFMAE_PLAN_PROFILE keeps its accumulators per plan, so concurrently
// replaying lanes never share them (run under ThreadSanitizer by
// scripts/check.sh thread and plan). Enough windows pass for each lane to
// print a breakdown; the scores stay those of the serial pipeline.
TEST(InferencePlanLanesTest, ProfilingMultiLaneScoreIsRaceFree) {
  EnvGuard guard;
  const TfmaeConfig config = LaneConfig();
  const data::TimeSeries train = TinySignal(192, 2, 91);
  const data::TimeSeries test = TinySignal(2100, 2, 92);
  TfmaeDetector detector(config);
  detector.Fit(train);
  const std::vector<float> reference =
      SerialReferenceScore(detector, test, nullptr);
  ASSERT_EQ(setenv("TFMAE_PLAN_PROFILE", "1", 1), 0);
  ThreadPool::Instance().SetNumThreads(4);
  const std::vector<float> scores = detector.Score(test);
  unsetenv("TFMAE_PLAN_PROFILE");
  ASSERT_NE(detector.inference_plan(), nullptr);
  ExpectBitwiseEqual(scores, reference, "profiled @4T");
}

}  // namespace
}  // namespace tfmae::core
