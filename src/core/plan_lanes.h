// Plan lanes: the one window-scoring path (DESIGN.md §10).
//
// Every scoring caller — TfmaeDetector::Score over a series, serve::
// FleetServer over a batch of stream windows — hands PlanLanes::Score two
// callbacks: `prepare(i)` builds window i's MaskedWindow (normalization and
// the temporal/frequency masks), `take(i, scores)` receives its per-step
// scores. Everything between is here: which plans exist, how windows spread
// over cores, and what a failed capture means.
//
// InferencePlan replay is stateful — one planned arena with rebindable
// inputs — so concurrency comes from replicas, not sharing. A lane is one
// capture-verified InferencePlan plus a reusable output buffer. Window 0 is
// prepared on the caller and its geometry selects (or captures) the lanes;
// then one ParallelFor covers every window, each chunk claiming a free lane
// and preparing its own window, with every kernel-level ParallelFor inline
// at fixed chunk boundaries (util/thread_pool.h). So a window's scores are
// bitwise those of a sequential replay on any lane, and eager == plan makes
// them those of TfmaeModel::ScoreWindow. All lanes in use share one geometry
// and one precision, so the lane a window lands on never shows in its
// scores.
//
// Fallback policy, one for every caller:
//  * no lane could be captured (or the `infer.plan.capture` fault fired):
//    the call scores every window serially and eagerly, and the next call
//    tries to capture again;
//  * a quantized capture failed (or the `infer.quant.capture` fault fired):
//    the lane set drops its int8 lanes and runs fp32 until Reset(), so one
//    call never mixes precisions and the demotion is counted once.
// Callers keep their own counters and ledger events, read off ScoreResult.
#ifndef TFMAE_CORE_PLAN_LANES_H_
#define TFMAE_CORE_PLAN_LANES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/inference_plan.h"

namespace tfmae::core {

class PlanLanes {
 public:
  struct Lane {
    std::unique_ptr<InferencePlan> plan;
    /// Replay output; right after a capture, that capture's eager scores.
    std::vector<float> out;
    std::atomic_flag busy = ATOMIC_FLAG_INIT;
    /// Replays of `plan` already folded into lane 0 (FoldReplays).
    std::int64_t folded_replays = 0;
  };

  /// What one Score() call did, for the caller's counters and events.
  struct ScoreResult {
    /// False: no lane was usable and every window was scored eagerly.
    bool planned = false;
    /// Lane captures that succeeded in this call.
    std::int64_t captured = 0;
    /// Lane 0 was (re)captured in this call: a new geometry or precision.
    bool primary_captured = false;
    /// Non-empty: a quantized capture failed for this reason and the lanes
    /// now run fp32 until Reset().
    std::string quant_fallback;
  };

  using Prepare = std::function<MaskedWindow(std::int64_t)>;
  using Take = std::function<void(std::int64_t, const std::vector<float>&)>;

  /// Scores windows [0, count): take(i, scores) receives window i's
  /// per-step scores (at least its window length), possibly from several
  /// threads at once but once per window. prepare(i) is called once per
  /// window, window 0 first on the calling thread, the rest from inside the
  /// parallel chunks. `quant` (null = fp32) is the precision the caller
  /// wants; a demoted lane set ignores it.
  ScoreResult Score(const TfmaeModel& model, std::int64_t count,
                    const QuantSpec* quant, const Prepare& prepare,
                    const Take& take);

  /// Lane 0's plan, or null when it has none. Its stats().replays count
  /// every lane's replays.
  const InferencePlan* primary() const;

  std::int64_t size() const { return static_cast<std::int64_t>(lanes_.size()); }
  const Lane& lane(std::int64_t i) const {
    return *lanes_[static_cast<std::size_t>(i)];
  }

  /// Drops every lane and lifts an int8 demotion (weights, precision or
  /// calibration changed).
  void Reset() {
    lanes_.clear();
    quant_demoted_ = false;
  }

 private:
  Lane& lane(std::int64_t i) { return *lanes_[static_cast<std::size_t>(i)]; }

  /// Makes the first `want` lanes hold plans for `example`'s geometry at
  /// precision `quant` (null = fp32), capturing every lane whose plan is
  /// missing or of another geometry or precision. Stops at the first failed
  /// capture; returns how many leading lanes are ready (reason in `error`).
  std::int64_t Ensure(const TfmaeModel& model, std::int64_t want,
                      const MaskedWindow& example, const QuantSpec* quant,
                      ScoreResult* result, std::string* error);

  /// One ParallelFor over [begin, end) at grain 1. Each chunk claims a free
  /// lane among the first `lanes` and calls fn(i, lane) for its window. At
  /// most num_threads chunks run at once, so with that many lanes a claim
  /// never waits.
  void ForEach(std::int64_t begin, std::int64_t end, std::int64_t lanes,
               const std::function<void(std::int64_t, Lane&)>& fn);

  /// Adds every other lane's replays since the last call to lane 0's
  /// stats().replays, so primary() reports the whole set's work.
  void FoldReplays();

  std::vector<std::unique_ptr<Lane>> lanes_;
  /// A quantized capture failed: lanes stay fp32 until Reset().
  bool quant_demoted_ = false;
};

}  // namespace tfmae::core

#endif  // TFMAE_CORE_PLAN_LANES_H_
