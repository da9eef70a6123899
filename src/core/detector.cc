#include "core/detector.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/config_io.h"
#include "nn/numeric_guard.h"
#include "nn/serialize.h"
#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/quant_kernels.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/stopwatch.h"

namespace tfmae::core {
namespace {

// Fingerprint of the full training recipe; a checkpoint resumed under a
// different config would silently diverge, so Resume() rejects mismatches.
std::uint32_t ConfigCrc(const TfmaeConfig& config) {
  const std::string text = ConfigToString(config);
  return util::Crc32(text.data(), text.size());
}

}  // namespace

// In-place per-feature instance normalization of one window. Exported
// (detector.h) so the serving plane normalizes stream windows the same way.
void PerWindowNormalize(std::vector<float>* values, std::int64_t len,
                        std::int64_t n_feat) {
  for (std::int64_t n = 0; n < n_feat; ++n) {
    double sum = 0.0;
    for (std::int64_t t = 0; t < len; ++t) {
      sum += (*values)[static_cast<std::size_t>(t * n_feat + n)];
    }
    const double mean = sum / static_cast<double>(len);
    double sq = 0.0;
    for (std::int64_t t = 0; t < len; ++t) {
      const double d =
          (*values)[static_cast<std::size_t>(t * n_feat + n)] - mean;
      sq += d * d;
    }
    const double std_dev =
        std::sqrt(sq / static_cast<double>(len)) + 1e-4;
    for (std::int64_t t = 0; t < len; ++t) {
      float& v = (*values)[static_cast<std::size_t>(t * n_feat + n)];
      v = static_cast<float>((v - mean) / std_dev);
    }
  }
}

namespace {

// TFMAE_QUANT selects the scoring precision: "int8" enables the quantized
// path (with automatic fp32 fallback), anything else is off.
TfmaeDetector::QuantMode QuantModeEnvDefault() {
  const char* v = std::getenv("TFMAE_QUANT");
  if (v != nullptr && std::string(v) == "int8") {
    return TfmaeDetector::QuantMode::kInt8;
  }
  return TfmaeDetector::QuantMode::kOff;
}

// Calibration replays are bounded: past this many windows the observed
// ranges have long converged and further replays only cost time.
constexpr std::size_t kMaxCalibrationWindows = 64;

}  // namespace

TfmaeDetector::TfmaeDetector(TfmaeConfig config, std::string name)
    : name_(std::move(name)),
      config_(config),
      rng_(config.seed),
      quant_mode_(QuantModeEnvDefault()) {}

void TfmaeDetector::SetQuantMode(QuantMode mode) {
  if (mode != quant_mode_) lanes_.Reset();  // precision change: plan is stale
  quant_mode_ = mode;
}

void TfmaeDetector::SetQuantSpec(QuantSpec spec) {
  quant_spec_ = std::move(spec);
  lanes_.Reset();
}

void TfmaeDetector::SetScoreReference(ScoreDistribution dist) {
  score_reference_ = std::move(dist);
}

bool TfmaeDetector::Calibrate(const data::TimeSeries& series,
                              std::string* error) {
  TFMAE_CHECK_MSG(fitted_, "Calibrate() called before Fit()");
  TFMAE_CHECK(series.num_features == model_->num_features());
  const data::TimeSeries normalized = normalizer_.Apply(series);
  const std::int64_t window = std::min(config_.window, normalized.length);
  const std::int64_t stride =
      config_.score_stride > 0 ? std::min(config_.score_stride, window)
                               : window;
  const std::vector<std::int64_t> starts =
      data::WindowStarts(normalized.length, window, stride);

  // A private mask rng keeps calibration from perturbing the detector's
  // scoring stream — Score() after Calibrate() is bitwise the same as
  // Score() without it.
  Rng mask_rng(config_.seed + 1);
  std::vector<MaskedWindow> windows;
  windows.reserve(std::min(starts.size(), kMaxCalibrationWindows));
  for (std::int64_t start : starts) {
    if (windows.size() >= kMaxCalibrationWindows) break;
    windows.push_back(PrepareAt(normalized, start, window, &mask_rng));
  }

  QuantSpec spec;
  if (!CalibrateQuantSpec(*model_, windows, series.num_features, &spec,
                          error)) {
    return false;
  }
  quant_spec_ = std::move(spec);
  lanes_.Reset();  // next Score() may now compile the quantized plan
  TFMAE_COUNTER_ADD("infer.quant.calibrations", 1);
  if (obs::LedgerActive()) {
    float amax_lo = 0.0f;
    float amax_hi = 0.0f;
    for (std::size_t i = 0; i < quant_spec_.sites.size(); ++i) {
      const float a = quant_spec_.sites[i].TensorAbsMax();
      if (i == 0) {
        amax_lo = amax_hi = a;
      } else {
        amax_lo = std::min(amax_lo, a);
        amax_hi = std::max(amax_hi, a);
      }
    }
    obs::Ledger::Instance().Event(
        "quant", {{"verdict", obs::JsonQuote("calibrated")},
                  {"sites", std::to_string(quant_spec_.sites.size())},
                  {"windows", std::to_string(quant_spec_.windows)},
                  {"amax_min", std::to_string(amax_lo)},
                  {"amax_max", std::to_string(amax_hi)}});
  }
  return true;
}

void TfmaeDetector::Fit(const data::TimeSeries& train) {
  FitInternal(train, FitOptions{}, nullptr);
}

void TfmaeDetector::Fit(const data::TimeSeries& train,
                        const FitOptions& options) {
  FitInternal(train, options, nullptr);
}

bool TfmaeDetector::Resume(const data::TimeSeries& train,
                           const FitOptions& options) {
  TFMAE_CHECK_MSG(!options.checkpoint_dir.empty(),
                  "Resume() requires FitOptions::checkpoint_dir");
  std::string error;
  auto found = FindLatestValidCheckpoint(options.checkpoint_dir, &error);
  if (!found.has_value()) {
    Log(LogLevel::kWarning, "Resume: no valid checkpoint (" + error + ")");
    return false;
  }
  const TrainingCheckpoint& checkpoint = found->second;
  if (checkpoint.config_crc != ConfigCrc(config_)) {
    Log(LogLevel::kError, "Resume: checkpoint " + found->first +
                              " was trained under a different config");
    return false;
  }
  if (checkpoint.num_features != train.num_features) {
    Log(LogLevel::kError,
        "Resume: checkpoint feature width does not match the training data");
    return false;
  }
  const std::int64_t window = std::min(config_.window, train.length);
  const std::int64_t stride = config_.stride > 0 ? config_.stride : window;
  const std::size_t expected_windows =
      data::WindowStarts(train.length, window, stride).size();
  if (checkpoint.progress.order.size() != expected_windows) {
    Log(LogLevel::kError,
        "Resume: checkpoint window count does not match the training data");
    return false;
  }
  Log(LogLevel::kInfo,
      "Resume: continuing from " + found->first + " (step " +
          std::to_string(checkpoint.progress.steps) + ")");
  FitInternal(train, options, &checkpoint);
  return true;
}

void TfmaeDetector::FitInternal(const data::TimeSeries& train,
                                const FitOptions& options,
                                const TrainingCheckpoint* resume_from) {
  TFMAE_CHECK_MSG(train.length >= 2, "training series too short");
  Stopwatch watch;
  MemoryStats::ResetPeak();

  // Every Fit starts from the configured seed so the reconstruction below
  // (parameter init, mask preparation) is a pure function of (data, config)
  // — the property that lets Resume() rebuild the pre-training state and
  // then overwrite it with the checkpointed one.
  rng_ = Rng(config_.seed);

  normalizer_.Fit(train);
  const data::TimeSeries normalized = normalizer_.Apply(train);

  model_ = std::make_unique<TfmaeModel>(train.num_features, config_, &rng_);
  lanes_.Reset();  // weights change: any captured plan is stale
  nn::AdamOptions adam_options;
  adam_options.learning_rate = config_.learning_rate;
  adam_options.clip_grad_norm = config_.clip_grad_norm;
  optimizer_ = std::make_unique<nn::Adam>(model_->Parameters(), adam_options);

  // Slice training windows and precompute masks once (masks are functions of
  // the data only).
  const std::int64_t window = std::min(config_.window, normalized.length);
  const std::int64_t stride = config_.stride > 0 ? config_.stride : window;
  const std::vector<std::int64_t> starts =
      data::WindowStarts(normalized.length, window, stride);
  std::vector<MaskedWindow> windows;
  windows.reserve(starts.size());
  for (std::int64_t start : starts) {
    windows.push_back(PrepareAt(normalized, start, window, &rng_));
  }
  stats_ = TrainStats{};
  stats_.num_windows = static_cast<std::int64_t>(windows.size());
  if (obs::LedgerActive()) {
    // One-time masking statistics: functions of (data, config, seed) only,
    // so the record is thread-count-invariant like every other event.
    std::int64_t masked_steps = 0;
    std::int64_t masked_bins = 0;
    for (const MaskedWindow& w : windows) {
      masked_steps += static_cast<std::int64_t>(w.temporal.masked.size());
      for (const auto& column : w.frequency) {
        masked_bins += static_cast<std::int64_t>(column.masked_bins.size());
      }
    }
    obs::Ledger::Instance().MaskingStats(
        static_cast<std::int64_t>(windows.size()), window, masked_steps,
        static_cast<std::int64_t>(windows.size()) * window, masked_bins);
  }

  std::vector<std::size_t> order(windows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Restore the checkpointed state over the freshly reconstructed one.
  std::int64_t start_epoch = 0;
  std::int64_t start_window = 0;
  double resumed_loss_sum = 0.0;
  if (resume_from != nullptr) {
    TFMAE_CHECK_MSG(nn::DecodeParameters(model_.get(), resume_from->weights),
                    "checkpoint weights do not match the model architecture");
    TFMAE_CHECK_MSG(optimizer_->ImportState(resume_from->adam),
                    "checkpoint optimizer state does not match the model");
    rng_.SetState(resume_from->rng);
    start_epoch = resume_from->progress.epoch;
    start_window = resume_from->progress.next_window;
    resumed_loss_sum = resume_from->progress.loss_sum;
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::size_t>(resume_from->progress.order[i]);
    }
    stats_.num_steps = resume_from->progress.steps;
    stats_.mean_loss_first_epoch = resume_from->progress.mean_loss_first_epoch;
    stats_.resumed_at_step = resume_from->progress.steps;
  }

  const bool checkpointing =
      !options.checkpoint_dir.empty() && options.checkpoint_every > 0;
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_dir, ec);
  }
  const auto write_checkpoint = [&](std::int64_t epoch,
                                    std::int64_t next_window,
                                    double loss_sum) {
    TrainingCheckpoint checkpoint;
    checkpoint.config_crc = ConfigCrc(config_);
    checkpoint.num_features = train.num_features;
    checkpoint.progress.epoch = epoch;
    checkpoint.progress.next_window = next_window;
    checkpoint.progress.steps = stats_.num_steps;
    checkpoint.progress.loss_sum = loss_sum;
    checkpoint.progress.mean_loss_first_epoch = stats_.mean_loss_first_epoch;
    checkpoint.progress.order.assign(order.begin(), order.end());
    checkpoint.rng = rng_.GetState();
    checkpoint.adam = optimizer_->ExportState();
    checkpoint.weights = nn::EncodeParameters(*model_);
    const std::string path =
        TrainingCheckpointPath(options.checkpoint_dir, stats_.num_steps);
    const bool saved = SaveTrainingCheckpoint(checkpoint, path);
    if (obs::LedgerActive()) {
      obs::Ledger::Instance().CheckpointWrite(
          stats_.num_steps, std::filesystem::path(path).filename().string(),
          saved);
    }
    if (saved) {
      ++stats_.checkpoints_written;
      TFMAE_COUNTER_ADD("core.fit.checkpoints_written", 1);
      PruneTrainingCheckpoints(options.checkpoint_dir, options.keep_last);
    } else {
      // A failed checkpoint write must never kill training: the model in
      // memory is healthy, only the recovery horizon shrinks.
      ++stats_.checkpoint_failures;
      TFMAE_COUNTER_ADD("core.fit.checkpoint_failures", 1);
      if (obs::FlightRecorderActive()) {
        obs::FlightRecorder::Instance().Note(
            "checkpoint",
            "write failed at step " + std::to_string(stats_.num_steps));
      }
      Log(LogLevel::kWarning, "checkpoint write failed at step " +
                                  std::to_string(stats_.num_steps) +
                                  "; training continues");
    }
  };

  nn::NumericGuard guard(optimizer_.get(), options.numeric);
  const std::int64_t batch = std::max<std::int64_t>(1, config_.batch_size);
  bool stop = false;
  for (std::int64_t epoch = start_epoch; epoch < config_.epochs && !stop;
       ++epoch) {
    std::int64_t window_begin = 0;
    double loss_sum = 0.0;
    if (resume_from != nullptr && epoch == start_epoch) {
      window_begin = start_window;
      loss_sum = resumed_loss_sum;
    } else {
      rng_.Shuffle(&order);
    }
    std::int64_t accumulated = 0;
    double step_loss = 0.0;
    model_->ZeroGrad();
    for (std::int64_t idx = window_begin;
         idx < static_cast<std::int64_t>(order.size()) && !stop; ++idx) {
      const MaskedWindow& masked = windows[order[static_cast<std::size_t>(idx)]];
      const TfmaeModel::Views views = model_->Forward(masked);
      // Gradients accumulate across the mini-batch; scale keeps the
      // effective step equal to the batch-mean gradient.
      const Tensor loss = ops::Scale(model_->Loss(views),
                                     1.0f / static_cast<float>(batch));
      loss.Backward();
      double window_loss = loss.item() * static_cast<double>(batch);
      if (TFMAE_FAULT("train.nan_loss")) {
        window_loss = std::numeric_limits<double>::quiet_NaN();
      }
      // Blown losses are skipped by the guard below; keeping them out of
      // the epoch mean keeps TrainStats finite through a recovered run.
      if (std::isfinite(window_loss)) loss_sum += window_loss;
      step_loss += window_loss;
      if (++accumulated == batch) {
        if (guard.PreStep(static_cast<float>(step_loss))) {
          if (obs::LedgerActive()) {
            // Pre-clip gradient norm; recomputed only when a ledger is open,
            // so default runs pay nothing for the record.
            obs::Ledger::Instance().Step(
                stats_.num_steps, step_loss,
                nn::GlobalGradNorm(optimizer_->parameters()),
                static_cast<double>(optimizer_->options().learning_rate));
          }
          optimizer_->Step();
          guard.CommitGoodStep();
          ++stats_.num_steps;
          if (checkpointing &&
              stats_.num_steps % options.checkpoint_every == 0) {
            write_checkpoint(epoch, idx + 1, loss_sum);
          }
          if (options.max_steps > 0 && stats_.num_steps >= options.max_steps) {
            stats_.interrupted = true;
            stop = true;
          }
        } else if (guard.gave_up()) {
          stats_.interrupted = true;
          stop = true;
          if (obs::FlightRecorderActive()) {
            obs::FlightRecorder::Instance().Dump("guard_give_up");
          }
        }
        model_->ZeroGrad();
        accumulated = 0;
        step_loss = 0.0;
        if (!stop && TFMAE_FAULT("train.interrupt")) {
          // Simulated crash: training stops without a final checkpoint, as
          // a SIGKILL would. Resume() picks up from the last periodic one.
          Log(LogLevel::kWarning, "injected training interrupt at step " +
                                      std::to_string(stats_.num_steps));
          stats_.interrupted = true;
          stop = true;
          if (obs::FlightRecorderActive()) {
            obs::FlightRecorder::Instance().Note(
                "fault", "train.interrupt at step " +
                             std::to_string(stats_.num_steps));
            obs::FlightRecorder::Instance().Dump("injected_fault");
          }
        }
      }
    }
    if (stop) break;
    if (accumulated > 0) {
      if (guard.PreStep(static_cast<float>(step_loss))) {
        if (obs::LedgerActive()) {
          obs::Ledger::Instance().Step(
              stats_.num_steps, step_loss,
              nn::GlobalGradNorm(optimizer_->parameters()),
              static_cast<double>(optimizer_->options().learning_rate));
        }
        optimizer_->Step();
        guard.CommitGoodStep();
        ++stats_.num_steps;
      } else if (guard.gave_up()) {
        stats_.interrupted = true;
        if (obs::FlightRecorderActive()) {
          obs::FlightRecorder::Instance().Dump("guard_give_up");
        }
        break;
      }
      model_->ZeroGrad();
    }
    const double mean_loss =
        windows.empty() ? 0.0 : loss_sum / static_cast<double>(windows.size());
    if (epoch == 0) stats_.mean_loss_first_epoch = mean_loss;
    stats_.mean_loss_last_epoch = mean_loss;
    if (obs::LedgerActive()) {
      obs::Ledger::Instance().EpochEnd(epoch, mean_loss, stats_.num_steps);
    }
  }

  stats_.numeric = guard.stats();
  stats_.fit_seconds = watch.ElapsedSeconds();
  stats_.peak_tensor_bytes = MemoryStats::PeakBytes();
  fitted_ = true;
}

bool TfmaeDetector::SaveCheckpoint(const std::string& prefix) const {
  TFMAE_CHECK_MSG(fitted_, "SaveCheckpoint() called before Fit()");
  if (!SaveConfig(config_, prefix + ".config")) return false;
  {
    std::ofstream norm(prefix + ".norm");
    if (!norm) return false;
    norm.precision(std::numeric_limits<float>::max_digits10);
    norm << normalizer_.means().size() << '\n';
    for (std::size_t i = 0; i < normalizer_.means().size(); ++i) {
      norm << normalizer_.means()[i] << ' ' << normalizer_.stds()[i] << '\n';
    }
    if (!norm) return false;
  }
  if (!nn::SaveParameters(*model_, prefix + ".weights")) return false;
  // The calibration spec travels with the checkpoint as its own container
  // (<prefix>.quant) so a missing/corrupt quant file degrades the loaded
  // detector to fp32 scoring instead of failing the weight load.
  if (!quant_spec_.empty() && !SaveQuantSpec(quant_spec_, prefix + ".quant")) {
    return false;
  }
  // Same sidecar contract for the drift monitor's calibration score
  // reference (<prefix>.drift): absent when never built, tolerated when
  // missing at load.
  if (!score_reference_.empty() &&
      !SaveScoreDistribution(score_reference_, prefix + ".drift")) {
    return false;
  }
  return true;
}

bool TfmaeDetector::LoadCheckpoint(const std::string& prefix) {
  const auto config = LoadConfig(prefix + ".config");
  if (!config.has_value()) return false;

  std::ifstream norm(prefix + ".norm");
  if (!norm) return false;
  std::size_t count = 0;
  norm >> count;
  if (!norm || count == 0) return false;
  std::vector<float> means(count);
  std::vector<float> stds(count);
  for (std::size_t i = 0; i < count; ++i) {
    norm >> means[i] >> stds[i];
  }
  if (!norm) return false;

  config_ = *config;
  rng_ = Rng(config_.seed);
  normalizer_.SetStatistics(std::move(means), std::move(stds));
  model_ = std::make_unique<TfmaeModel>(static_cast<std::int64_t>(count),
                                        config_, &rng_);
  if (!nn::LoadParameters(model_.get(), prefix + ".weights")) {
    model_.reset();
    return false;
  }
  lanes_.Reset();  // loaded weights: any captured plan is stale
  quant_spec_ = QuantSpec{};
  std::string quant_error;
  if (!LoadQuantSpec(prefix + ".quant", &quant_spec_, &quant_error)) {
    // Missing or corrupt calibration: degrade to fp32 scoring; int8 mode
    // will count a fallback per Score() call until re-calibrated.
    quant_spec_ = QuantSpec{};
  }
  score_reference_ = ScoreDistribution{};
  std::string drift_error;
  if (!LoadScoreDistribution(prefix + ".drift", &score_reference_,
                             &drift_error)) {
    // Missing or corrupt reference: drift monitoring stays off until the
    // server rebuilds one from calibration scores.
    score_reference_ = ScoreDistribution{};
  }
  optimizer_.reset();  // a loaded detector scores; re-Fit to train further
  fitted_ = true;
  return true;
}

MaskedWindow TfmaeDetector::PrepareAt(const data::TimeSeries& normalized,
                                      std::int64_t start, std::int64_t window,
                                      Rng* rng) const {
  const std::int64_t n_feat = normalized.num_features;
  std::vector<float> values(
      normalized.values.begin() + static_cast<std::ptrdiff_t>(start * n_feat),
      normalized.values.begin() +
          static_cast<std::ptrdiff_t>((start + window) * n_feat));
  if (config_.per_window_normalization) {
    PerWindowNormalize(&values, window, n_feat);
  }
  return model_->PrepareWindow(values, rng);
}

void TfmaeDetector::CountQuantFallback(const std::string& reason) {
  ++quant_fallbacks_;
  TFMAE_COUNTER_ADD("infer.quant.fallbacks", 1);
  if (obs::LedgerActive()) {
    obs::Ledger::Instance().Event(
        "quant", {{"verdict", obs::JsonQuote("fallback")},
                  {"reason", obs::JsonQuote(reason)}});
  }
}

void TfmaeDetector::RecordCapture() const {
  const InferencePlanStats& ps = lanes_.primary()->stats();
  TFMAE_COUNTER_ADD("infer.plan.detector_captures", 1);
  if (!obs::LedgerActive()) return;
  // One event per capture geometry: the extra lanes a call adds are
  // replicas of this plan and stay out of the ledger, so the record does
  // not depend on the thread count.
  obs::Ledger::Instance().Event(
      "plan",
      {{"ops", std::to_string(ps.ops)},
       {"captured_ops", std::to_string(ps.captured_ops)},
       {"fused_ops", std::to_string(ps.fused_ops)},
       {"elided_reshapes", std::to_string(ps.elided_reshapes)},
       {"slots", std::to_string(ps.slots)},
       {"arena_bytes", std::to_string(ps.arena_bytes)},
       // Wall-clock field: the t_ prefix keeps it out of the
       // thread-count-invariant canonical stream.
       {"t_capture_ms", std::to_string(ps.capture_ms)}});
  if (ps.quantized) {
    obs::Ledger::Instance().Event(
        "quant",
        {{"verdict", obs::JsonQuote("self_verified")},
         {"isa", obs::JsonQuote(quant::QuantGemmIsa())},
         {"sites", std::to_string(quant_spec_.sites.size())},
         {"quant_linear_ops", std::to_string(ps.quant_linear_ops)},
         {"elided_quant_pairs", std::to_string(ps.elided_quant_pairs)},
         {"quant_arena_bytes", std::to_string(ps.quant_arena_bytes)}});
  }
}

std::vector<float> TfmaeDetector::Score(const data::TimeSeries& series) {
  TFMAE_CHECK_MSG(fitted_, "Score() called before Fit()");
  TFMAE_CHECK(series.num_features == model_->num_features());
  const data::TimeSeries normalized = normalizer_.Apply(series);

  const std::int64_t window = std::min(config_.window, normalized.length);
  const std::int64_t stride =
      config_.score_stride > 0 ? std::min(config_.score_stride, window)
                               : window;
  const std::vector<std::int64_t> starts =
      data::WindowStarts(normalized.length, window, stride);

  // Resolve the scoring precision once per call. Int8 needs a calibration
  // spec whose feature count matches the scored series; anything else is a
  // counted, ledger-visible fallback to fp32.
  const QuantSpec* quant = nullptr;
  if (quant_mode_ == QuantMode::kInt8) {
    if (quant_spec_.empty()) {
      CountQuantFallback("no calibration spec");
    } else if (quant_spec_.num_features != series.num_features) {
      CountQuantFallback("calibration feature count mismatch: spec " +
                         std::to_string(quant_spec_.num_features) +
                         " vs series " + std::to_string(series.num_features));
    } else {
      quant = &quant_spec_;
    }
  }

  // Only the random ablation variants draw from rng_; their windows are
  // all prepared here, in window order, so the draws keep their sequence.
  const bool random_masks =
      (config_.use_temporal_branch &&
       config_.temporal_mask == masking::TemporalMaskVariant::kRandom) ||
      (config_.use_frequency_branch &&
       config_.frequency_mask == masking::FrequencyMaskVariant::kRandom);
  std::vector<MaskedWindow> prepared;
  if (random_masks) {
    prepared.reserve(starts.size());
    for (const std::int64_t start : starts) {
      prepared.push_back(PrepareAt(normalized, start, window, &rng_));
    }
  }

  // Each window's scores land in its row of a [windows x window] buffer;
  // the overlap average below then adds them up in window order, the same
  // sums in the same order however the rows were produced.
  const std::int64_t num_windows = static_cast<std::int64_t>(starts.size());
  std::vector<float> window_scores(
      static_cast<std::size_t>(num_windows * window));
  const PlanLanes::ScoreResult scored = lanes_.Score(
      *model_, num_windows, quant,
      [&](std::int64_t i) {
        const std::size_t k = static_cast<std::size_t>(i);
        return random_masks ? std::move(prepared[k])
                            : PrepareAt(normalized, starts[k], window, nullptr);
      },
      [&](std::int64_t i, const std::vector<float>& out) {
        std::copy(out.begin(), out.begin() + window,
                  window_scores.begin() + i * window);
      });
  if (!scored.quant_fallback.empty()) CountQuantFallback(scored.quant_fallback);
  if (scored.primary_captured) RecordCapture();
  if (num_windows > 0 && !scored.planned) {
    // The reason lands in the obs counters; the call scored eagerly.
    ++plan_capture_failures_;
    TFMAE_COUNTER_ADD("infer.plan.fallbacks", 1);
  }

  std::vector<double> score_sum(static_cast<std::size_t>(series.length), 0.0);
  std::vector<std::int32_t> score_count(
      static_cast<std::size_t>(series.length), 0);
  for (std::int64_t i = 0; i < num_windows; ++i) {
    const std::int64_t start = starts[static_cast<std::size_t>(i)];
    const float* scores_i = window_scores.data() + i * window;
    for (std::int64_t t = 0; t < window; ++t) {
      score_sum[static_cast<std::size_t>(start + t)] += scores_i[t];
      ++score_count[static_cast<std::size_t>(start + t)];
    }
  }
  std::vector<float> scores(static_cast<std::size_t>(series.length), 0.0f);
  for (std::size_t t = 0; t < scores.size(); ++t) {
    if (score_count[t] > 0) {
      scores[t] =
          static_cast<float>(score_sum[t] / static_cast<double>(score_count[t]));
    }
  }
  if (obs::LedgerActive() && !scores.empty()) {
    // End-of-run anomaly-score distribution (the Fig. 9 CDF data): 64
    // linear buckets over the observed [min, max].
    float lo = scores[0];
    float hi = scores[0];
    for (const float s : scores) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    constexpr int kBuckets = 64;
    std::vector<std::uint64_t> buckets(kBuckets, 0);
    const double span = static_cast<double>(hi) - static_cast<double>(lo);
    for (const float s : scores) {
      int b = span > 0.0
                  ? static_cast<int>((static_cast<double>(s) - lo) / span *
                                     kBuckets)
                  : 0;
      buckets[static_cast<std::size_t>(std::clamp(b, 0, kBuckets - 1))] += 1;
    }
    obs::Ledger::Instance().ScoreHistogram(
        "anomaly_score", lo, hi, static_cast<std::uint64_t>(scores.size()),
        buckets);
  }
  return scores;
}

}  // namespace tfmae::core
