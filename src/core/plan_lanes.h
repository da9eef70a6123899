// Plan lanes: replicated inference plans that score windows on several
// cores at once (DESIGN.md §10).
//
// InferencePlan replay is stateful — one planned arena with rebindable
// inputs — so concurrency comes from replicas, not sharing. A lane is one
// capture-verified InferencePlan plus a reusable output buffer. Both
// TfmaeDetector::Score and serve::FleetServer score a set of windows with
// one ParallelFor whose chunks each claim a free lane; inside a chunk every
// kernel-level ParallelFor runs inline at fixed chunk boundaries
// (util/thread_pool.h), so a window's scores are bitwise those of a
// sequential replay on any lane. All lanes in use share one geometry and one
// precision, so the lane a window lands on never shows in its scores.
//
// What a failed capture means is the caller's policy: the detector falls
// back per call, the fleet demotes int8 lanes to fp32 for good.
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

  struct EnsureResult {
    std::int64_t ready = 0;     ///< leading lanes holding a matching plan
    std::int64_t captured = 0;  ///< captures that succeeded in this call
  };

  /// Makes the first max(want, 1) lanes hold plans for `example`'s geometry
  /// at precision `quant` (null = fp32), capturing every lane whose plan is
  /// missing or of another geometry or precision. Each capture leaves the
  /// example's eager scores in its lane's `out`, whether or not it
  /// succeeds. Stops at the first failed capture, so `ready` < want means a
  /// capture failed (reason in `error`); lanes [0, ready) stay usable.
  EnsureResult Ensure(const TfmaeModel& model, std::int64_t want,
                      const MaskedWindow& example, const QuantSpec* quant,
                      std::string* error = nullptr);

  /// True iff lane 0 holds a plan for `example`'s geometry at precision
  /// `quantized`.
  bool PrimaryMatches(const MaskedWindow& example, bool quantized) const;

  /// One ParallelFor over [begin, end) at grain 1. Each chunk claims a free
  /// lane among the first `lanes` (which must be ready) and calls fn(i,
  /// lane) for its window. At most num_threads chunks run at once, so with
  /// that many lanes a claim never waits.
  void ForEach(std::int64_t begin, std::int64_t end, std::int64_t lanes,
               const std::function<void(std::int64_t, Lane&)>& fn);

  /// Adds every other lane's replays since the last call to lane 0's
  /// stats().replays, so primary() reports the whole set's work.
  void FoldReplays();

  /// Lane 0's plan, or null when it has none.
  const InferencePlan* primary() const;

  std::int64_t size() const { return static_cast<std::int64_t>(lanes_.size()); }
  const Lane& lane(std::int64_t i) const {
    return *lanes_[static_cast<std::size_t>(i)];
  }
  Lane& lane(std::int64_t i) { return *lanes_[static_cast<std::size_t>(i)]; }

  /// Drops every lane (weights, precision or calibration changed).
  void Reset() { lanes_.clear(); }

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace tfmae::core

#endif  // TFMAE_CORE_PLAN_LANES_H_
