#include "serve/fleet_server.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

#include "core/config_io.h"
#include "core/inference_plan.h"
#include "data/timeseries.h"
#include "eval/detection.h"
#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tfmae::serve {
namespace {

// Per-(stream, seq) mask-RNG seed. The paper's CV/amplitude masks are pure
// functions of the window values and never draw from it; the random-masking
// ablation variants do, and this keeps their draws deterministic under ANY
// batch composition (a shared RNG would make mask draws depend on scoring
// order). splitmix64 finalizer.
std::uint64_t MixSeed(std::uint64_t seed, std::int64_t stream,
                      std::int64_t seq) {
  std::uint64_t x = seed +
                    0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(stream + 1) +
                    0xBF58476D1CE4E5B9ULL * static_cast<std::uint64_t>(seq + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int Log2Bucket(std::uint64_t v) {
  int b = 0;
  while (v > 1 && b < 63) {
    v >>= 1;
    ++b;
  }
  return b;
}

void AtomicMax(std::atomic<std::int64_t>* target, std::int64_t value) {
  std::int64_t cur = target->load(std::memory_order_relaxed);
  while (cur < value &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

/// Quantile over a fixed log2 histogram with linear interpolation inside a
/// bucket (the obs exporters' scheme), clamped to the observed min/max.
double HistogramQuantile(const std::uint64_t* counts, int buckets,
                         std::uint64_t min_v, std::uint64_t max_v, double p) {
  std::uint64_t total = 0;
  for (int b = 0; b < buckets; ++b) total += counts[b];
  if (total == 0) return 0.0;
  const double target = p * static_cast<double>(total);
  double cumulative = 0.0;
  for (int b = 0; b < buckets; ++b) {
    const double count = static_cast<double>(counts[b]);
    if (count == 0.0) continue;
    if (cumulative + count >= target) {
      const double lo = static_cast<double>(1ULL << b);
      const double hi = lo * 2.0;
      const double frac = (target - cumulative) / count;
      double v = lo + (hi - lo) * frac;
      v = std::max(v, static_cast<double>(min_v));
      v = std::min(v, static_cast<double>(max_v));
      return v;
    }
    cumulative += count;
  }
  return static_cast<double>(max_v);
}

void JsonField(std::string* out, const char* key, const std::string& value) {
  if (out->size() > 1) out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(value);
}

std::string JsonDouble(double v, const char* fmt = "%.1f") {
  char buf[32];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

const char* ShedPolicyName(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kRejectNew:
      return "reject";
    case ShedPolicy::kDropOldest:
      return "drop_oldest";
    case ShedPolicy::kBlockDeadline:
      return "block";
  }
  return "reject";
}

std::optional<ShedPolicy> ParseShedPolicy(std::string_view name) {
  if (name == "reject") return ShedPolicy::kRejectNew;
  if (name == "drop_oldest") return ShedPolicy::kDropOldest;
  if (name == "block") return ShedPolicy::kBlockDeadline;
  return std::nullopt;
}

/// One stream slot: the compact state plus its ingest lock. Pushes to
/// different streams contend only on the queue; pushes to the same stream
/// are the caller's timeline and serialize here.
struct FleetServer::Entry {
  /// `slo_window` > 0 allocates this stream's sliding error-budget ring
  /// (one byte per tracked window); 0 means no SLO objective is active and
  /// the ring stays empty.
  Entry(const core::StreamingOptions& options, std::int64_t slo_window)
      : state(options) {
    if (slo_window > 0) {
      slo_ring.assign(static_cast<std::size_t>(slo_window), 0);
    }
  }
  std::mutex mu;
  core::StreamState state;
  // Sliding SLO error budget (guarded by mu): violation bits of the last
  // slo_window scored windows, their running sum, and the sticky-per-
  // episode exhaustion latch (clears when the window recovers).
  std::vector<std::uint8_t> slo_ring;
  std::size_t slo_pos = 0;
  std::int64_t slo_filled = 0;
  std::int64_t slo_violations = 0;
  bool slo_exhausted = false;
};

/// One ready window awaiting a batched pass: a value snapshot (the stream's
/// buffer keeps sliding underneath) plus the metadata its result carries.
struct FleetServer::Request {
  std::int64_t stream = -1;
  std::int64_t seq = -1;
  std::int64_t fresh = 0;
  std::int32_t imputed = 0;
  std::vector<float> values;
  /// Stage clock: admission stamp (local NowNs()) for the queue-wait stage
  /// and the experienced-latency SLO. 0 for windows restored from a
  /// snapshot — their wait predates this process, so they count a zero
  /// queue stage and are exempt from the latency objective.
  std::uint64_t t_admit_ns = 0;
};

FleetServer::FleetServer(core::TfmaeDetector* detector, FleetOptions options)
    : detector_(detector), options_(options) {
  TFMAE_CHECK(detector != nullptr);
  TFMAE_CHECK_MSG(detector->fitted(),
                  "FleetServer requires a fitted detector");
  TFMAE_CHECK(options_.max_streams >= 1);
  TFMAE_CHECK(options_.queue_capacity >= 1);
  TFMAE_CHECK(options_.batch_max >= 1);
  // The serving geometry: one ready window == one model window, so the
  // batcher can coalesce windows from any mix of streams into one pass. A
  // larger stream window would make Score() slice sub-windows and average —
  // use the synchronous StreamingDetector for that shape.
  TFMAE_CHECK_MSG(options_.streaming.window <= detector->config().window,
                  "FleetServer: streaming.window must not exceed the "
                  "detector's config().window (one window per rescore)");
  TFMAE_CHECK(options_.snapshot_keep >= 2);
  streams_.resize(static_cast<std::size_t>(options_.max_streams));
  const std::string config_text = core::ConfigToString(detector_->config());
  config_crc_ = util::Crc32(config_text.data(), config_text.size());
  // Drift monitor reference: the detector's persisted calibration score
  // distribution when it carries one (<prefix>.drift sidecar); otherwise
  // CalibrateThreshold or SetDriftReference installs one later.
  if (detector_->has_score_reference()) {
    drift_ref_ = detector_->score_reference();
  }
  if (options_.drift_check_every > 0 && options_.drift_reservoir > 0) {
    drift_ring_.reserve(static_cast<std::size_t>(options_.drift_reservoir));
  }
  if (options_.watchdog_stall_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

FleetServer::~FleetServer() {
  // Shutdown contract: every admitted window is scored before the server
  // goes away, even if the owner forgot to Drain().
  Drain();
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

std::int64_t FleetServer::OpenStream() {
  std::lock_guard<std::mutex> lock(open_mu_);
  const std::int64_t n = num_streams_.load(std::memory_order_relaxed);
  if (n >= options_.max_streams) return -1;
  const bool slo_on =
      options_.slo_latency_ns > 0 || options_.slo_staleness_rows > 0;
  auto entry = std::make_unique<Entry>(options_.streaming,
                                       slo_on ? options_.slo_window : 0);
  entry->state.set_threshold(default_threshold_);
  streams_[static_cast<std::size_t>(n)] = std::move(entry);
  // Publish AFTER the slot is filled so lock-free readers of num_streams()
  // always find a constructed Entry behind any id they accept.
  num_streams_.store(n + 1, std::memory_order_release);
  TFMAE_GAUGE_SET("serve.streams", n + 1);
  return n;
}

void FleetServer::set_threshold(float threshold) {
  std::lock_guard<std::mutex> lock(open_mu_);
  default_threshold_ = threshold;
  const std::int64_t n = num_streams_.load(std::memory_order_acquire);
  for (std::int64_t s = 0; s < n; ++s) {
    Entry& entry = *streams_[static_cast<std::size_t>(s)];
    std::lock_guard<std::mutex> stream_lock(entry.mu);
    entry.state.set_threshold(threshold);
  }
}

void FleetServer::CalibrateThreshold(
    const std::vector<float>& calibration_scores, double anomaly_fraction) {
  set_threshold(
      eval::QuantileThreshold(calibration_scores, anomaly_fraction));
  // The same calibration scores double as the drift monitor's reference
  // distribution when no persisted one was installed.
  std::lock_guard<std::mutex> lock(drift_mu_);
  if (drift_ref_.empty()) {
    drift_ref_ = core::BuildScoreDistribution(calibration_scores);
  }
}

void FleetServer::SetDriftReference(core::ScoreDistribution reference) {
  std::lock_guard<std::mutex> lock(drift_mu_);
  drift_ref_ = std::move(reference);
}

AdmitStatus FleetServer::Push(std::int64_t stream,
                              const std::vector<float>& row,
                              core::StreamingResult* result) {
  TFMAE_TRACE("serve.push");
  if (draining_.load(std::memory_order_acquire)) return AdmitStatus::kDraining;
  if (stream < 0 || stream >= num_streams()) return AdmitStatus::kUnknownStream;
  if (TFMAE_FAULT("serve.push")) {
    // Injected ingest failure, shaped exactly like an admission-control
    // refusal: the row is untouched and the caller's overload retry path
    // must absorb it.
    rows_overloaded_.fetch_add(1, std::memory_order_relaxed);
    TFMAE_COUNTER_ADD("serve.ingest.rejected_overload", 1);
    RecordShedStrike();
    return AdmitStatus::kOverloaded;
  }
  Entry& entry = *streams_[static_cast<std::size_t>(stream)];

  if (options_.shed_policy == ShedPolicy::kBlockDeadline) {
    // Self-service pre-wait: instead of bouncing kOverloaded back, the
    // pushing thread spends its own time scoring the backlog, up to the
    // deadline. Runs BEFORE entry.mu so a waiting push never blocks the
    // scoring path's result commits for this stream.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.shed_deadline_ms);
    for (;;) {
      {
        std::lock_guard<std::mutex> queue_lock(queue_mu_);
        if (static_cast<std::int64_t>(queue_.size()) <
            options_.queue_capacity) {
          break;
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
      TryFlush();  // no-op when another thread is mid-batch; then nap
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  bool queued = false;
  std::int64_t depth = 0;
  {
    std::lock_guard<std::mutex> stream_lock(entry.mu);
    {
      // Admission control BEFORE the row is absorbed: an overloaded refusal
      // must leave the stream untouched so the caller can re-push the same
      // row after draining. Checked up front rather than at enqueue time —
      // once Absorb() has advanced the hop cadence there is no way to hand
      // the window back.
      std::lock_guard<std::mutex> queue_lock(queue_mu_);
      if (static_cast<std::int64_t>(queue_.size()) >=
          options_.queue_capacity) {
        if (options_.shed_policy == ShedPolicy::kDropOldest &&
            !queue_.empty()) {
          // Evict the oldest admitted window to make room for the new row,
          // and publish the victim as a shed-marked result so the coverage
          // gap is observable rather than silent.
          Request victim = std::move(queue_.front());
          queue_.pop_front();
          shed_dropped_.fetch_add(1, std::memory_order_relaxed);
          TFMAE_COUNTER_ADD("serve.shed.dropped", 1);
          RecordShedStrike();
          ScoredWindow marker;
          marker.stream = victim.stream;
          marker.seq = victim.seq;
          marker.fresh = victim.fresh;
          marker.degraded = victim.imputed > 0;
          marker.imputed_values = victim.imputed;
          marker.shed = true;
          std::lock_guard<std::mutex> results_lock(results_mu_);
          results_.push_back(marker);
        } else {
          rows_overloaded_.fetch_add(1, std::memory_order_relaxed);
          TFMAE_COUNTER_ADD("serve.ingest.rejected_overload", 1);
          if (options_.shed_policy == ShedPolicy::kBlockDeadline) {
            shed_deadline_expired_.fetch_add(1, std::memory_order_relaxed);
            TFMAE_COUNTER_ADD("serve.shed.deadline_expired", 1);
          }
          RecordShedStrike();
          return AdmitStatus::kOverloaded;
        }
      }
    }
    // The row is being admitted: saturation is over for strike purposes
    // (the degraded latch, once set, stays).
    shed_strikes_.store(0, std::memory_order_relaxed);

    const core::AbsorbOutcome outcome = entry.state.Absorb(row);
    switch (outcome.status) {
      case core::PushStatus::kRejected:
        rows_rejected_.fetch_add(1, std::memory_order_relaxed);
        TFMAE_COUNTER_ADD("serve.ingest.rejected_row", 1);
        return AdmitStatus::kRejectedRow;
      case core::PushStatus::kQuarantined:
        rows_quarantined_.fetch_add(1, std::memory_order_relaxed);
        rows_pushed_.fetch_add(1, std::memory_order_relaxed);
        TFMAE_COUNTER_ADD("serve.ingest.quarantined", 1);
        return AdmitStatus::kQuarantined;
      case core::PushStatus::kWarmup:
        rows_warmup_.fetch_add(1, std::memory_order_relaxed);
        rows_pushed_.fetch_add(1, std::memory_order_relaxed);
        TFMAE_COUNTER_ADD("serve.ingest.admitted", 1);
        return AdmitStatus::kWarmup;
      case core::PushStatus::kScored:
        break;
    }
    rows_pushed_.fetch_add(1, std::memory_order_relaxed);
    TFMAE_COUNTER_ADD("serve.ingest.admitted", 1);

    if (outcome.rescore_due) {
      Request request;
      request.stream = stream;
      request.seq = entry.state.total_pushed() - 1;
      request.fresh = outcome.fresh;
      request.imputed = outcome.imputed_values;
      request.values = entry.state.window();  // snapshot before it slides
      request.t_admit_ns = NowNs();           // stage clock: queue wait starts
      std::lock_guard<std::mutex> queue_lock(queue_mu_);
      queue_.push_back(std::move(request));
      depth = static_cast<std::int64_t>(queue_.size());
      AtomicMax(&peak_queue_depth_, depth);
      windows_enqueued_.fetch_add(1, std::memory_order_relaxed);
      queued = true;
    } else if (result != nullptr) {
      // In-between-hop push: StreamingDetector's documented semantics —
      // reuse the latest committed tail score.
      result->score = entry.state.last_tail_score();
      result->is_anomaly = result->score >= entry.state.threshold();
      result->degraded = outcome.imputed_values > 0;
      result->imputed_values = outcome.imputed_values;
    }
  }

  if (!queued) {
    MaybeAutoSnapshot();
    return AdmitStatus::kAccepted;
  }
  TFMAE_GAUGE_MAX("serve.queue.depth_peak", depth);
  TFMAE_HISTOGRAM_RECORD("serve.queue.depth", static_cast<std::uint64_t>(depth));
  // Flush OUTSIDE every lock: the scoring path re-acquires stream locks to
  // commit results (lock order: score_mu_ -> entry.mu; the push path holds
  // entry.mu -> queue_mu_ — no cycle as long as nothing here holds a lock
  // while asking for score_mu_).
  if (options_.auto_flush && depth >= options_.batch_max) TryFlush();
  MaybeAutoSnapshot();
  return AdmitStatus::kQueued;
}

std::int64_t FleetServer::ScoreBatchLocked() {
  std::vector<Request> batch;
  {
    std::lock_guard<std::mutex> queue_lock(queue_mu_);
    const std::int64_t take = std::min<std::int64_t>(
        options_.batch_max, static_cast<std::int64_t>(queue_.size()));
    batch.reserve(static_cast<std::size_t>(take));
    for (std::int64_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  if (batch.empty()) return 0;
  TFMAE_TRACE("serve.batch");
  const std::int64_t batch_size = static_cast<std::int64_t>(batch.size());
  const std::int64_t window = options_.streaming.window;
  const core::TfmaeModel& model = *detector_->model();
  const core::TfmaeConfig& config = detector_->config();
  const std::uint64_t t0 = NowNs();
  // Heartbeat for the watchdog: this batch is now in flight.
  batch_start_ns_.store(t0, std::memory_order_release);
  if (TFMAE_FAULT("serve.score")) {
    // Injected scoring stall: long enough for a tight watchdog deadline to
    // fire; the batch then scores normally.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Stage clock: pop -> here is the batch-formation stage; masking counts
  // in the score stage, where it runs on the lanes.
  const std::uint64_t t_prep = NowNs();

  // Lane precision: int8 when the detector selected it and carries a
  // calibration spec. A failed int8 capture demotes this server's lanes to
  // fp32 for good (core/plan_lanes.h).
  const core::QuantSpec* quant = nullptr;
  if (detector_->quant_mode() == core::TfmaeDetector::QuantMode::kInt8 &&
      detector_->has_quant_spec()) {
    quant = &detector_->quant_spec();
  }
  // The detector's scoring path, window for window: global z-score,
  // optional per-window instance normalization, masks from a per-(stream,
  // seq) rng, then the tail of the window's scores.
  std::vector<float> scores(batch.size(), 0.0f);
  const core::PlanLanes::ScoreResult scored = lanes_.Score(
      model, batch_size, quant,
      [&](std::int64_t i) {
        Request& request = batch[static_cast<std::size_t>(i)];
        data::TimeSeries series;
        series.length = window;
        series.num_features = model.num_features();
        series.values = std::move(request.values);
        data::TimeSeries normalized = detector_->normalizer().Apply(series);
        if (config.per_window_normalization) {
          core::PerWindowNormalize(&normalized.values, window,
                                   normalized.num_features);
        }
        Rng mask_rng(MixSeed(config.seed, request.stream, request.seq));
        return model.PrepareWindow(normalized.values, &mask_rng);
      },
      [&](std::int64_t i, const std::vector<float>& out) {
        scores[static_cast<std::size_t>(i)] = core::StreamState::TailScore(
            out, window, batch[static_cast<std::size_t>(i)].fresh);
      });
  if (!scored.quant_fallback.empty()) {
    quant_lane_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    TFMAE_COUNTER_ADD("serve.quant.capture_fallbacks", 1);
  }
  TFMAE_COUNTER_ADD("serve.plan.lane_captures", scored.captured);
  if (!scored.planned) {
    // A failed capture never produces a wrong plan, only no plan: this
    // batch scored eagerly and the next batch retries the capture.
    TFMAE_COUNTER_ADD("serve.plan.capture_fallbacks", 1);
    eager_windows_.fetch_add(batch_size, std::memory_order_relaxed);
  }
  const std::uint64_t t_scored = NowNs();
  const std::uint64_t elapsed = t_scored - t0;
  RecordLatency(elapsed / static_cast<std::uint64_t>(batch_size), batch_size);

  // Commit tail scores and publish results (dispatch thread, serial,
  // admission order).
  std::vector<ScoredWindow> done(batch.size());
  for (std::int64_t i = 0; i < batch_size; ++i) {
    const Request& request = batch[static_cast<std::size_t>(i)];
    ScoredWindow& result = done[static_cast<std::size_t>(i)];
    result.stream = request.stream;
    result.seq = request.seq;
    result.score = scores[static_cast<std::size_t>(i)];
    result.fresh = request.fresh;
    result.degraded = request.imputed > 0;
    result.imputed_values = request.imputed;
    Entry& entry = *streams_[static_cast<std::size_t>(request.stream)];
    {
      std::lock_guard<std::mutex> stream_lock(entry.mu);
      entry.state.CommitRescore(result.score);
      result.is_anomaly = result.score >= entry.state.threshold();
    }
    if (result.is_anomaly) {
      alerts_.fetch_add(1, std::memory_order_relaxed);
      TFMAE_COUNTER_ADD("serve.alerts", 1);
    }
  }
  {
    std::lock_guard<std::mutex> results_lock(results_mu_);
    results_.insert(results_.end(), done.begin(), done.end());
  }
  windows_scored_.fetch_add(batch_size, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  AtomicMax(&max_batch_, batch_size);
  TFMAE_COUNTER_ADD("serve.batch.count", 1);
  TFMAE_COUNTER_ADD("serve.batch.windows", batch_size);
  TFMAE_HISTOGRAM_RECORD("serve.batch.size",
                         static_cast<std::uint64_t>(batch_size));
  // Stage clock: results are published — each window's timeline is
  // complete. The accounting pass (stage histograms, SLO budgets, drift
  // reservoir, sampled trace spans) runs while score_mu_ is still held, so
  // it never interleaves with the next batch's stamps.
  const std::uint64_t t_done = NowNs();
  AccountBatch(batch, scores, t0, t_prep, t_scored, t_done);
  batch_start_ns_.store(0, std::memory_order_release);  // heartbeat: idle
  return batch_size;
}

void FleetServer::AccountBatch(const std::vector<Request>& batch,
                               const std::vector<float>& scores,
                               std::uint64_t t_pop, std::uint64_t t_prep,
                               std::uint64_t t_scored, std::uint64_t t_done) {
  const std::uint64_t n = static_cast<std::uint64_t>(batch.size());
  if (n == 0) return;
  // Post-pop phases are batch-wide work; each window carries an equal
  // share, so the shares add back up to the batch's wall time (modulo
  // integer division) and total == queue + batch + score + result holds
  // exactly per window — the reconciliation invariant live_smoke.py and
  // serve_obs_test.cc pin.
  const std::uint64_t batch_share = (t_prep - t_pop) / n;
  const std::uint64_t score_share = (t_scored - t_prep) / n;
  const std::uint64_t result_share = (t_done - t_scored) / n;

  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    for (const Request& request : batch) {
      // A restored window (t_admit_ns == 0) waited in a previous process;
      // its queue stage is unknowable and counts as zero.
      const std::uint64_t queue_ns =
          (request.t_admit_ns != 0 && t_pop > request.t_admit_ns)
              ? t_pop - request.t_admit_ns
              : 0;
      const std::uint64_t total_ns =
          queue_ns + batch_share + score_share + result_share;
      TFMAE_HISTOGRAM_RECORD("serve.stage.queue_ns", queue_ns);
      TFMAE_HISTOGRAM_RECORD("serve.stage.batch_ns", batch_share);
      TFMAE_HISTOGRAM_RECORD("serve.stage.score_ns", score_share);
      TFMAE_HISTOGRAM_RECORD("serve.stage.result_ns", result_share);
      TFMAE_HISTOGRAM_RECORD("serve.stage.total_ns", total_ns);
      stage_queue_sum_ns_ += queue_ns;
      stage_batch_sum_ns_ += batch_share;
      stage_score_sum_ns_ += score_share;
      stage_result_sum_ns_ += result_share;
      if (request.t_admit_ns != 0 && t_done > request.t_admit_ns) {
        const std::uint64_t e2e = t_done - request.t_admit_ns;
        e2e_counts_[Log2Bucket(e2e)] += 1;
        if (e2e_min_ns_ == 0 || e2e < e2e_min_ns_) e2e_min_ns_ = e2e;
        e2e_max_ns_ = std::max(e2e_max_ns_, e2e);
      }
    }
  }

  // Per-stream SLO budgets. Experienced latency is admission to result
  // commit (t_done - t_admit) — deliberately the wall latency a consumer
  // sees, not the amortized stage total.
  if (options_.slo_latency_ns > 0 || options_.slo_staleness_rows > 0) {
    const std::int64_t allowed = static_cast<std::int64_t>(
        options_.slo_budget * static_cast<double>(options_.slo_window));
    std::int64_t latency_breaches = 0;
    std::int64_t staleness_breaches = 0;
    struct Episode {
      std::int64_t stream;
      std::int64_t violations;
    };
    std::vector<Episode> episodes;
    for (const Request& request : batch) {
      bool violation = false;
      if (options_.slo_latency_ns > 0 && request.t_admit_ns != 0 &&
          t_done > request.t_admit_ns &&
          static_cast<std::int64_t>(t_done - request.t_admit_ns) >
              options_.slo_latency_ns) {
        ++latency_breaches;
        violation = true;
      }
      Entry& entry = *streams_[static_cast<std::size_t>(request.stream)];
      std::lock_guard<std::mutex> stream_lock(entry.mu);
      if (options_.slo_staleness_rows > 0 &&
          entry.state.total_pushed() - 1 - request.seq >
              options_.slo_staleness_rows) {
        ++staleness_breaches;
        violation = true;
      }
      if (entry.slo_ring.empty()) continue;
      const std::int64_t window =
          static_cast<std::int64_t>(entry.slo_ring.size());
      if (entry.slo_filled == window) {
        entry.slo_violations -= entry.slo_ring[entry.slo_pos];
      } else {
        ++entry.slo_filled;
      }
      entry.slo_ring[entry.slo_pos] = violation ? 1 : 0;
      entry.slo_violations += violation ? 1 : 0;
      entry.slo_pos = (entry.slo_pos + 1) % entry.slo_ring.size();
      if (!entry.slo_exhausted && entry.slo_filled == window &&
          entry.slo_violations > allowed) {
        entry.slo_exhausted = true;
        slo_exhausted_streams_.fetch_add(1, std::memory_order_relaxed);
        episodes.push_back(Episode{request.stream, entry.slo_violations});
      } else if (entry.slo_exhausted && entry.slo_violations <= allowed) {
        // Recovery: the sliding window slid back under budget — the latch
        // clears so a later regression counts as a new episode.
        entry.slo_exhausted = false;
        slo_exhausted_streams_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (latency_breaches > 0) {
      slo_latency_breaches_.fetch_add(latency_breaches,
                                      std::memory_order_relaxed);
      TFMAE_COUNTER_ADD("serve.slo.latency_breaches", latency_breaches);
    }
    if (staleness_breaches > 0) {
      slo_staleness_breaches_.fetch_add(staleness_breaches,
                                        std::memory_order_relaxed);
      TFMAE_COUNTER_ADD("serve.slo.staleness_breaches", staleness_breaches);
    }
    TFMAE_GAUGE_SET("serve.slo.exhausted_streams",
                    slo_exhausted_streams_.load(std::memory_order_relaxed));
    for (const Episode& episode : episodes) {
      slo_exhausted_episodes_.fetch_add(1, std::memory_order_relaxed);
      TFMAE_COUNTER_ADD("serve.slo.budget_exhausted", 1);
      if (obs::LedgerActive()) {
        // Which stream exhausts, and when, depends entirely on load and
        // scheduling; every varying field is t_-tagged.
        obs::Ledger::Instance().Event(
            "serve.slo",
            {{"window", std::to_string(options_.slo_window)},
             {"budget", std::to_string(options_.slo_budget)},
             {"t_stream", std::to_string(episode.stream)},
             {"t_violations", std::to_string(episode.violations)}});
      }
    }
  }

  DriftObserve(scores);

  // Sampled full-span timelines: every trace_sample'th scored window
  // contributes its four real wall intervals to the chrome-trace capture.
  // Spans use actual phase boundaries (not amortized shares), so the
  // rendered timeline shows when the window truly sat where.
  if (options_.trace_sample > 0 && obs::TracingActive()) {
    static obs::TraceSite* const kQueueSite =
        obs::GetTraceSite("serve.stage.queue");
    static obs::TraceSite* const kBatchSite =
        obs::GetTraceSite("serve.stage.batch");
    static obs::TraceSite* const kScoreSite =
        obs::GetTraceSite("serve.stage.score");
    static obs::TraceSite* const kResultSite =
        obs::GetTraceSite("serve.stage.result");
    // The stage clock is epoch-based steady time; trace timestamps share
    // obs::NowNs()'s process origin. Both tick the same steady clock, so
    // one offset converts.
    const std::uint64_t offset = NowNs() - obs::NowNs();
    for (const Request& request : batch) {
      const std::uint64_t tick =
          trace_counter_.fetch_add(1, std::memory_order_relaxed);
      if (tick % static_cast<std::uint64_t>(options_.trace_sample) != 0) {
        continue;
      }
      const std::uint64_t admit =
          (request.t_admit_ns != 0 && request.t_admit_ns < t_pop)
              ? request.t_admit_ns
              : t_pop;
      if (admit >= offset) {
        obs::AppendTraceEvent(kQueueSite, admit - offset, t_pop - admit);
      }
      obs::AppendTraceEvent(kBatchSite, t_pop - offset, t_prep - t_pop);
      obs::AppendTraceEvent(kScoreSite, t_prep - offset, t_scored - t_prep);
      obs::AppendTraceEvent(kResultSite, t_scored - offset, t_done - t_scored);
    }
  }
}

void FleetServer::DriftObserve(const std::vector<float>& scores) {
  if (options_.drift_check_every <= 0 || options_.drift_reservoir <= 0) return;
  double ks = 0.0;
  std::size_t samples = 0;
  {
    std::lock_guard<std::mutex> lock(drift_mu_);
    if (drift_ref_.empty()) return;
    const std::size_t cap =
        static_cast<std::size_t>(options_.drift_reservoir);
    for (float s : scores) {
      if (drift_ring_.size() < cap) {
        drift_ring_.push_back(s);
      } else {
        drift_ring_[drift_pos_] = s;
      }
      drift_pos_ = (drift_pos_ + 1) % cap;
      ++drift_seen_;
      ++drift_since_check_;
    }
    if (drift_since_check_ < options_.drift_check_every) return;
    // A near-empty reservoir would make the K-S distance reservoir noise,
    // not evidence; wait for a useful sample.
    if (drift_ring_.size() < std::min<std::size_t>(cap, 32)) return;
    drift_since_check_ = 0;
    // Bin the reservoir on the reference's own edges, then compare CDFs.
    std::vector<std::uint64_t> recent(drift_ref_.buckets.size(), 0);
    for (float s : drift_ring_) {
      ++recent[static_cast<std::size_t>(core::ScoreDistributionBin(
          drift_ref_, static_cast<double>(s)))];
    }
    ks = obs::KsDistance(drift_ref_.lo, drift_ref_.hi, drift_ref_.buckets,
                         drift_ref_.lo, drift_ref_.hi, recent);
    drift_ks_ = ks;
    samples = drift_ring_.size();
  }
  drift_checks_.fetch_add(1, std::memory_order_relaxed);
  TFMAE_COUNTER_ADD("serve.drift.checks", 1);
  // Gauges are integers; the distance is published in millionths.
  TFMAE_GAUGE_SET("serve.drift.ks", static_cast<std::int64_t>(ks * 1e6));
  if (ks <= options_.drift_threshold) return;
  drift_alarms_.fetch_add(1, std::memory_order_relaxed);
  TFMAE_COUNTER_ADD("serve.drift.alarms", 1);
  if (obs::FlightRecorderActive()) {
    obs::FlightRecorder::Instance().Note(
        "drift", "online score drift: ks=" + std::to_string(ks) +
                     " over threshold " +
                     std::to_string(options_.drift_threshold));
  }
  if (obs::LedgerActive()) {
    // The reservoir's contents depend on scoring order across streams, so
    // the measured distance is schedule-dependent: t_-tagged.
    obs::Ledger::Instance().Event(
        "serve.drift",
        {{"threshold", std::to_string(options_.drift_threshold)},
         {"reservoir", std::to_string(options_.drift_reservoir)},
         {"t_ks", std::to_string(ks)},
         {"t_samples", std::to_string(samples)}});
  }
}

void FleetServer::TryFlush() {
  // One batch, only if no other thread is mid-batch: the process-wide
  // ThreadPool supports one dispatching thread at a time, and a skipped
  // flush is picked up by the next over-threshold push or explicit Flush.
  if (!score_mu_.try_lock()) return;
  ScoreBatchLocked();
  score_mu_.unlock();
}

std::int64_t FleetServer::Flush() {
  std::int64_t total = 0;
  for (;;) {
    std::lock_guard<std::mutex> lock(score_mu_);
    const std::int64_t n = ScoreBatchLocked();
    if (n == 0) break;
    total += n;
  }
  return total;
}

std::int64_t FleetServer::Drain() {
  // Latch the server closed FIRST: once a producer observes the queue
  // emptying it must not be able to refill it, or 4 fast producers can
  // livelock shutdown forever. Pushes racing the latch are fine — whatever
  // they admitted is scored by the flush below.
  draining_.store(true, std::memory_order_release);
  const std::int64_t scored = Flush();
  TFMAE_GAUGE_SET("serve.bytes_per_stream", ApproxBytesPerStream());
  bool first_drain = false;
  {
    std::lock_guard<std::mutex> lock(open_mu_);
    first_drain = !drained_event_emitted_;
    drained_event_emitted_ = true;
  }
  if (first_drain && obs::LedgerActive()) {
    const ServeStats s = stats();
    obs::Ledger::Instance().Event(
        "serve",
        {{"streams", std::to_string(s.streams)},
         {"rows", std::to_string(s.rows_pushed)},
         {"windows", std::to_string(s.windows_scored)},
         {"alerts", std::to_string(s.alerts)},
         {"rejected", std::to_string(s.rows_rejected)},
         {"quarantined", std::to_string(s.rows_quarantined)},
         {"bytes_per_stream", std::to_string(s.bytes_per_stream)},
         {"precision", obs::JsonQuote(s.quant_lanes > 0 ? "int8" : "fp32")},
         {"quant_fallbacks", std::to_string(s.quant_fallbacks)},
         // Batching composition depends on flush timing (and overload on
         // ingest timing): t_-prefixed so the canonical event stream stays
         // invariant across thread counts and schedules.
         {"t_batches", std::to_string(s.batches)},
         {"t_max_batch", std::to_string(s.max_batch)},
         {"t_overloaded", std::to_string(s.rows_overloaded)}});
  }
  return scored;
}

void FleetServer::RecordShedStrike() {
  const std::int64_t strikes =
      shed_strikes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.degraded_after <= 0 || strikes < options_.degraded_after) return;
  if (degraded_.exchange(true, std::memory_order_relaxed)) return;
  // First time over the threshold: latch sticky degraded mode, exactly once.
  TFMAE_COUNTER_ADD("serve.shed.degraded_entered", 1);
  if (obs::FlightRecorderActive()) {
    obs::FlightRecorder::Instance().Note(
        "shed", std::string("fleet server entered degraded mode (policy=") +
                    ShedPolicyName(options_.shed_policy) + ", strikes=" +
                    std::to_string(strikes) + ")");
  }
  if (obs::LedgerActive()) {
    // Load-dependent by nature (it only exists when ingest outruns scoring),
    // so every field is timing-tagged and the event is excluded from
    // cross-thread-count canonical-stream comparisons.
    obs::Ledger::Instance().Event(
        "serve.shed",
        {{"policy", obs::JsonQuote(ShedPolicyName(options_.shed_policy))},
         {"t_strikes", std::to_string(strikes)},
         {"t_queue_capacity", std::to_string(options_.queue_capacity)}});
  }
}

void FleetServer::WatchdogLoop() {
  const auto poll = std::chrono::milliseconds(
      std::max<std::int64_t>(1, options_.watchdog_stall_ms / 4));
  const std::uint64_t stall_ns =
      static_cast<std::uint64_t>(options_.watchdog_stall_ms) * 1000000ull;
  std::uint64_t last_flagged = 0;
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, poll, [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    const std::uint64_t start = batch_start_ns_.load(std::memory_order_acquire);
    if (start == 0) continue;  // no batch in flight
    const std::uint64_t now = NowNs();
    if (now - start < stall_ns) continue;
    if (start == last_flagged) continue;  // one postmortem per stalled batch
    last_flagged = start;
    watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
    TFMAE_COUNTER_ADD("serve.watchdog.stalls", 1);
    const std::int64_t stalled_ms =
        static_cast<std::int64_t>((now - start) / 1000000ull);
    Log(LogLevel::kWarning,
        "serve watchdog: batch in flight for " + std::to_string(stalled_ms) +
            " ms (deadline " + std::to_string(options_.watchdog_stall_ms) +
            " ms)");
    if (obs::FlightRecorderActive()) {
      obs::FlightRecorder::Instance().Note(
          "watchdog", "scoring batch stalled " + std::to_string(stalled_ms) +
                          " ms (deadline " +
                          std::to_string(options_.watchdog_stall_ms) + " ms)");
      obs::FlightRecorder::Instance().Dump("serve.watchdog.stall");
    }
  }
}

FleetSnapshotData FleetServer::CaptureSnapshot() {
  FleetSnapshotData data;
  data.config_crc = config_crc_;
  data.streaming = options_.streaming;

  // A consistent cut needs three guarantees at once: no batch is in flight
  // (popped-but-uncommitted requests would be in neither the queue nor any
  // stream), no push is mid-absorb (a row absorbed but its window not yet
  // enqueued would make state and queue disagree), and the stream count is
  // stable. score_mu_ gives the first, holding EVERY stream lock gives the
  // second, open_mu_ the third. Lock order: score_mu_ -> open_mu_ ->
  // entry.mu (ascending) -> queue_mu_, consistent with every other path
  // (pushes take entry.mu -> queue_mu_; set_threshold open_mu_ -> entry.mu;
  // nothing takes score_mu_ while holding any of these).
  std::lock_guard<std::mutex> score_lock(score_mu_);
  std::lock_guard<std::mutex> open_lock(open_mu_);
  const std::int64_t n = num_streams_.load(std::memory_order_acquire);
  for (std::int64_t s = 0; s < n; ++s) {
    streams_[static_cast<std::size_t>(s)]->mu.lock();
  }
  {
    std::lock_guard<std::mutex> queue_lock(queue_mu_);
    data.pending.reserve(queue_.size());
    for (const Request& r : queue_) {
      PendingWindow p;
      p.stream = r.stream;
      p.seq = r.seq;
      p.fresh = r.fresh;
      p.imputed = r.imputed;
      p.values = r.values;
      data.pending.push_back(std::move(p));
    }
  }
  data.index = snapshot_index_.fetch_add(1, std::memory_order_relaxed) + 1;
  data.threshold = default_threshold_;
  data.counters.rows_pushed = rows_pushed_.load(std::memory_order_relaxed);
  data.counters.rows_overloaded =
      rows_overloaded_.load(std::memory_order_relaxed);
  data.counters.rows_rejected = rows_rejected_.load(std::memory_order_relaxed);
  data.counters.rows_quarantined =
      rows_quarantined_.load(std::memory_order_relaxed);
  data.counters.rows_warmup = rows_warmup_.load(std::memory_order_relaxed);
  data.counters.windows_enqueued =
      windows_enqueued_.load(std::memory_order_relaxed);
  data.counters.windows_scored =
      windows_scored_.load(std::memory_order_relaxed);
  data.counters.alerts = alerts_.load(std::memory_order_relaxed);
  data.counters.shed_dropped = shed_dropped_.load(std::memory_order_relaxed);
  data.counters.shed_deadline_expired =
      shed_deadline_expired_.load(std::memory_order_relaxed);
  data.stream_states.resize(static_cast<std::size_t>(n));
  for (std::int64_t s = 0; s < n; ++s) {
    util::ByteWriter writer;
    streams_[static_cast<std::size_t>(s)]->state.EncodeTo(&writer);
    data.stream_states[static_cast<std::size_t>(s)] = writer.Take();
  }
  for (std::int64_t s = n - 1; s >= 0; --s) {
    streams_[static_cast<std::size_t>(s)]->mu.unlock();
  }
  return data;
}

bool FleetServer::SnapshotNow(std::string* error) {
  if (options_.snapshot_dir.empty()) {
    if (error != nullptr) *error = "no snapshot_dir configured";
    return false;
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.snapshot_dir, ec);
  const FleetSnapshotData data = CaptureSnapshot();
  last_snapshot_rows_.store(data.counters.rows_pushed,
                            std::memory_order_relaxed);
  const std::string path =
      FleetSnapshotPath(options_.snapshot_dir, data.index);
  // File I/O runs outside every lock: the capture above copied what it
  // needs, so ingest and scoring resume while the container is written.
  std::string write_error;
  if (!WriteFleetSnapshot(data, path, &write_error)) {
    snapshots_failed_.fetch_add(1, std::memory_order_relaxed);
    TFMAE_COUNTER_ADD("serve.snapshot.failures", 1);
    Log(LogLevel::kWarning,
        "fleet snapshot write failed (" + write_error +
            "); serving continues on the previous snapshot");
    if (obs::FlightRecorderActive()) {
      obs::FlightRecorder::Instance().Note("snapshot",
                                           "write failed: " + write_error);
    }
    if (error != nullptr) *error = write_error;
    return false;
  }
  snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  TFMAE_COUNTER_ADD("serve.snapshot.writes", 1);
  PruneFleetSnapshots(options_.snapshot_dir, options_.snapshot_keep);
  if (obs::LedgerActive()) {
    obs::Ledger::Instance().Event(
        "serve.snapshot",
        {{"file", obs::JsonQuote(path)},
         {"streams", std::to_string(data.stream_states.size())},
         {"rows", std::to_string(data.counters.rows_pushed)},
         // Pending depth and snapshot cadence depend on flush/ingest timing.
         {"t_index", std::to_string(data.index)},
         {"t_pending", std::to_string(data.pending.size())}});
  }
  return true;
}

void FleetServer::MaybeAutoSnapshot() {
  if (options_.snapshot_every <= 0 || options_.snapshot_dir.empty()) return;
  const std::int64_t rows = rows_pushed_.load(std::memory_order_relaxed);
  std::int64_t last = last_snapshot_rows_.load(std::memory_order_relaxed);
  if (rows - last < options_.snapshot_every) return;
  // One pusher wins the CAS and cuts the snapshot; the rest carry on.
  if (!last_snapshot_rows_.compare_exchange_strong(last, rows,
                                                   std::memory_order_relaxed)) {
    return;
  }
  SnapshotNow();
}

bool FleetServer::Restore(const FleetSnapshotData& snapshot,
                          std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (num_streams() != 0) {
    return fail("Restore requires a fresh server (no streams opened)");
  }
  if (snapshot.config_crc != config_crc_) {
    return fail("snapshot config CRC does not match this detector's config");
  }
  const core::StreamingOptions& a = snapshot.streaming;
  const core::StreamingOptions& b = options_.streaming;
  if (a.window != b.window || a.hop != b.hop ||
      a.impute_staleness_cap != b.impute_staleness_cap ||
      a.quarantine_sigma != b.quarantine_sigma ||
      a.quarantine_warmup != b.quarantine_warmup) {
    return fail("snapshot streaming options do not match this server's");
  }
  const std::int64_t n =
      static_cast<std::int64_t>(snapshot.stream_states.size());
  if (n > options_.max_streams) {
    return fail("snapshot holds more streams than max_streams");
  }
  {
    std::lock_guard<std::mutex> lock(open_mu_);
    default_threshold_ = snapshot.threshold;
  }
  for (std::int64_t s = 0; s < n; ++s) {
    if (OpenStream() != s) return fail("stream slot allocation failed");
    Entry& entry = *streams_[static_cast<std::size_t>(s)];
    util::ByteReader reader(snapshot.stream_states[static_cast<std::size_t>(s)]);
    std::lock_guard<std::mutex> stream_lock(entry.mu);
    if (!entry.state.DecodeFrom(&reader) || !reader.AtEnd()) {
      return fail("stream " + std::to_string(s) + " payload is corrupt");
    }
  }
  {
    std::lock_guard<std::mutex> queue_lock(queue_mu_);
    for (const PendingWindow& p : snapshot.pending) {
      if (p.stream < 0 || p.stream >= n || p.seq < 0) {
        return fail("pending window references an invalid stream");
      }
      const Entry& entry = *streams_[static_cast<std::size_t>(p.stream)];
      const std::size_t expect =
          static_cast<std::size_t>(options_.streaming.window) *
          static_cast<std::size_t>(std::max<std::int64_t>(
              entry.state.num_features(), 0));
      if (p.values.size() != expect) {
        return fail("pending window has the wrong geometry");
      }
      Request request;
      request.stream = p.stream;
      request.seq = p.seq;
      request.fresh = p.fresh;
      request.imputed = p.imputed;
      request.values = p.values;
      queue_.push_back(std::move(request));
    }
  }
  rows_pushed_.store(snapshot.counters.rows_pushed, std::memory_order_relaxed);
  rows_overloaded_.store(snapshot.counters.rows_overloaded,
                         std::memory_order_relaxed);
  rows_rejected_.store(snapshot.counters.rows_rejected,
                       std::memory_order_relaxed);
  rows_quarantined_.store(snapshot.counters.rows_quarantined,
                          std::memory_order_relaxed);
  rows_warmup_.store(snapshot.counters.rows_warmup, std::memory_order_relaxed);
  windows_enqueued_.store(snapshot.counters.windows_enqueued,
                          std::memory_order_relaxed);
  windows_scored_.store(snapshot.counters.windows_scored,
                        std::memory_order_relaxed);
  alerts_.store(snapshot.counters.alerts, std::memory_order_relaxed);
  shed_dropped_.store(snapshot.counters.shed_dropped,
                      std::memory_order_relaxed);
  shed_deadline_expired_.store(snapshot.counters.shed_deadline_expired,
                               std::memory_order_relaxed);
  snapshot_index_.store(snapshot.index, std::memory_order_relaxed);
  last_snapshot_rows_.store(snapshot.counters.rows_pushed,
                            std::memory_order_relaxed);
  TFMAE_COUNTER_ADD("serve.snapshot.restores", 1);
  if (obs::LedgerActive()) {
    obs::Ledger::Instance().Event(
        "serve.restore",
        {{"streams", std::to_string(n)},
         {"rows", std::to_string(snapshot.counters.rows_pushed)},
         {"t_index", std::to_string(snapshot.index)},
         {"t_pending", std::to_string(snapshot.pending.size())}});
  }
  return true;
}

std::vector<ScoredWindow> FleetServer::TakeResults() {
  std::lock_guard<std::mutex> lock(results_mu_);
  std::vector<ScoredWindow> out;
  out.swap(results_);
  return out;
}

const core::StreamHealth& FleetServer::health(std::int64_t stream) const {
  TFMAE_CHECK(stream >= 0 && stream < num_streams());
  return streams_[static_cast<std::size_t>(stream)]->state.health();
}

float FleetServer::last_score(std::int64_t stream) const {
  TFMAE_CHECK(stream >= 0 && stream < num_streams());
  Entry& entry = *streams_[static_cast<std::size_t>(stream)];
  std::lock_guard<std::mutex> lock(entry.mu);
  return entry.state.last_tail_score();
}

std::int64_t FleetServer::total_pushed(std::int64_t stream) const {
  TFMAE_CHECK(stream >= 0 && stream < num_streams());
  Entry& entry = *streams_[static_cast<std::size_t>(stream)];
  std::lock_guard<std::mutex> lock(entry.mu);
  return entry.state.total_pushed();
}

std::int64_t FleetServer::ApproxBytesPerStream() const {
  if (num_streams() == 0) return 0;
  Entry& entry = *streams_[0];
  std::lock_guard<std::mutex> lock(entry.mu);
  return entry.state.ApproxBytes();
}

void FleetServer::RecordLatency(std::uint64_t ns_per_window,
                                std::int64_t windows) {
  // One registry sample per window (count == windows scored), so the
  // histogram's _sum adds up to the batches' prepare+score wall time and
  // reconciles with the batch+score stage sums.
  for (std::int64_t i = 0; i < windows; ++i) {
    TFMAE_HISTOGRAM_RECORD("serve.score.window_ns", ns_per_window);
  }
  std::lock_guard<std::mutex> lock(latency_mu_);
  latency_counts_[Log2Bucket(ns_per_window)] +=
      static_cast<std::uint64_t>(windows);
  if (latency_min_ns_ == 0 || ns_per_window < latency_min_ns_) {
    latency_min_ns_ = ns_per_window;
  }
  latency_max_ns_ = std::max(latency_max_ns_, ns_per_window);
}

ServeStats FleetServer::stats() const {
  ServeStats s;
  s.streams = num_streams();
  s.rows_pushed = rows_pushed_.load(std::memory_order_relaxed);
  s.rows_overloaded = rows_overloaded_.load(std::memory_order_relaxed);
  s.rows_rejected = rows_rejected_.load(std::memory_order_relaxed);
  s.rows_quarantined = rows_quarantined_.load(std::memory_order_relaxed);
  s.rows_warmup = rows_warmup_.load(std::memory_order_relaxed);
  s.windows_enqueued = windows_enqueued_.load(std::memory_order_relaxed);
  s.windows_scored = windows_scored_.load(std::memory_order_relaxed);
  s.eager_windows = eager_windows_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.alerts = alerts_.load(std::memory_order_relaxed);
  s.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
  s.bytes_per_stream = ApproxBytesPerStream();
  s.shed_dropped = shed_dropped_.load(std::memory_order_relaxed);
  s.shed_deadline_expired =
      shed_deadline_expired_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.snapshots_written = snapshots_written_.load(std::memory_order_relaxed);
  s.snapshots_failed = snapshots_failed_.load(std::memory_order_relaxed);
  s.snapshot_index = snapshot_index();
  s.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
  {
    // Quantiles from the log2 histograms (see HistogramQuantile), clamped
    // to observed min/max. A const_cast-free copy is not worth a second
    // mutex: stats() is an observer called off the hot path.
    std::lock_guard<std::mutex> lock(
        const_cast<std::mutex&>(latency_mu_));
    s.p50_window_ns = HistogramQuantile(latency_counts_, kLatencyBuckets,
                                        latency_min_ns_, latency_max_ns_, 0.50);
    s.p95_window_ns = HistogramQuantile(latency_counts_, kLatencyBuckets,
                                        latency_min_ns_, latency_max_ns_, 0.95);
    s.p99_window_ns = HistogramQuantile(latency_counts_, kLatencyBuckets,
                                        latency_min_ns_, latency_max_ns_, 0.99);
    s.stage_queue_ns = static_cast<std::int64_t>(stage_queue_sum_ns_);
    s.stage_batch_ns = static_cast<std::int64_t>(stage_batch_sum_ns_);
    s.stage_score_ns = static_cast<std::int64_t>(stage_score_sum_ns_);
    s.stage_result_ns = static_cast<std::int64_t>(stage_result_sum_ns_);
    s.stage_total_ns = s.stage_queue_ns + s.stage_batch_ns +
                       s.stage_score_ns + s.stage_result_ns;
    s.p50_e2e_ns = HistogramQuantile(e2e_counts_, kLatencyBuckets, e2e_min_ns_,
                                     e2e_max_ns_, 0.50);
    s.p95_e2e_ns = HistogramQuantile(e2e_counts_, kLatencyBuckets, e2e_min_ns_,
                                     e2e_max_ns_, 0.95);
    s.p99_e2e_ns = HistogramQuantile(e2e_counts_, kLatencyBuckets, e2e_min_ns_,
                                     e2e_max_ns_, 0.99);
  }
  s.slo_latency_breaches =
      slo_latency_breaches_.load(std::memory_order_relaxed);
  s.slo_staleness_breaches =
      slo_staleness_breaches_.load(std::memory_order_relaxed);
  s.slo_exhausted_streams =
      slo_exhausted_streams_.load(std::memory_order_relaxed);
  s.slo_exhausted_episodes =
      slo_exhausted_episodes_.load(std::memory_order_relaxed);
  s.drift_checks = drift_checks_.load(std::memory_order_relaxed);
  s.drift_alarms = drift_alarms_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(drift_mu_));
    s.drift_ks = drift_ks_;
  }
  s.quant_fallbacks = quant_lane_fallbacks_.load(std::memory_order_relaxed) +
                      detector_->quant_fallbacks();
  {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(score_mu_));
    for (std::int64_t i = 0; i < lanes_.size(); ++i) {
      const core::InferencePlan* plan = lanes_.lane(i).plan.get();
      if (plan == nullptr) continue;
      ++s.plan_lanes;
      if (plan->stats().quantized) ++s.quant_lanes;
      if (s.plan_arena_bytes == 0) {
        s.plan_arena_bytes = plan->stats().arena_bytes;
        s.quant_arena_bytes = plan->stats().quant_arena_bytes;
      }
    }
  }
  return s;
}

std::string ServeStatsJson(const ServeStats& s) {
  std::string out = "{";
  JsonField(&out, "streams", std::to_string(s.streams));
  JsonField(&out, "rows_pushed", std::to_string(s.rows_pushed));
  JsonField(&out, "rows_overloaded", std::to_string(s.rows_overloaded));
  JsonField(&out, "rows_rejected", std::to_string(s.rows_rejected));
  JsonField(&out, "rows_quarantined", std::to_string(s.rows_quarantined));
  JsonField(&out, "rows_warmup", std::to_string(s.rows_warmup));
  JsonField(&out, "windows_enqueued", std::to_string(s.windows_enqueued));
  JsonField(&out, "windows_scored", std::to_string(s.windows_scored));
  JsonField(&out, "eager_windows", std::to_string(s.eager_windows));
  JsonField(&out, "batches", std::to_string(s.batches));
  JsonField(&out, "max_batch", std::to_string(s.max_batch));
  JsonField(&out, "alerts", std::to_string(s.alerts));
  JsonField(&out, "plan_lanes", std::to_string(s.plan_lanes));
  JsonField(&out, "quant_lanes", std::to_string(s.quant_lanes));
  JsonField(&out, "quant_fallbacks", std::to_string(s.quant_fallbacks));
  JsonField(&out, "plan_arena_bytes", std::to_string(s.plan_arena_bytes));
  JsonField(&out, "quant_arena_bytes", std::to_string(s.quant_arena_bytes));
  JsonField(&out, "peak_queue_depth", std::to_string(s.peak_queue_depth));
  JsonField(&out, "bytes_per_stream", std::to_string(s.bytes_per_stream));
  JsonField(&out, "shed_dropped", std::to_string(s.shed_dropped));
  JsonField(&out, "shed_deadline_expired",
            std::to_string(s.shed_deadline_expired));
  JsonField(&out, "degraded", s.degraded ? "true" : "false");
  JsonField(&out, "snapshots_written", std::to_string(s.snapshots_written));
  JsonField(&out, "snapshots_failed", std::to_string(s.snapshots_failed));
  JsonField(&out, "snapshot_index", std::to_string(s.snapshot_index));
  JsonField(&out, "watchdog_stalls", std::to_string(s.watchdog_stalls));
  JsonField(&out, "p50_window_ns", JsonDouble(s.p50_window_ns));
  JsonField(&out, "p95_window_ns", JsonDouble(s.p95_window_ns));
  JsonField(&out, "p99_window_ns", JsonDouble(s.p99_window_ns));
  JsonField(&out, "stage_queue_ns", std::to_string(s.stage_queue_ns));
  JsonField(&out, "stage_batch_ns", std::to_string(s.stage_batch_ns));
  JsonField(&out, "stage_score_ns", std::to_string(s.stage_score_ns));
  JsonField(&out, "stage_result_ns", std::to_string(s.stage_result_ns));
  JsonField(&out, "stage_total_ns", std::to_string(s.stage_total_ns));
  JsonField(&out, "p50_e2e_ns", JsonDouble(s.p50_e2e_ns));
  JsonField(&out, "p95_e2e_ns", JsonDouble(s.p95_e2e_ns));
  JsonField(&out, "p99_e2e_ns", JsonDouble(s.p99_e2e_ns));
  JsonField(&out, "slo_latency_breaches",
            std::to_string(s.slo_latency_breaches));
  JsonField(&out, "slo_staleness_breaches",
            std::to_string(s.slo_staleness_breaches));
  JsonField(&out, "slo_exhausted_streams",
            std::to_string(s.slo_exhausted_streams));
  JsonField(&out, "slo_exhausted_episodes",
            std::to_string(s.slo_exhausted_episodes));
  JsonField(&out, "drift_checks", std::to_string(s.drift_checks));
  JsonField(&out, "drift_alarms", std::to_string(s.drift_alarms));
  JsonField(&out, "drift_ks", JsonDouble(s.drift_ks, "%.4f"));
  out.push_back('}');
  return out;
}

}  // namespace tfmae::serve
