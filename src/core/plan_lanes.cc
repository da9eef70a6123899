#include "core/plan_lanes.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/fault.h"
#include "util/thread_pool.h"

namespace tfmae::core {
namespace {

bool HoldsPlanFor(const PlanLanes::Lane& lane, const MaskedWindow& example,
                  bool quantized) {
  return lane.plan != nullptr && lane.plan->Matches(example) &&
         lane.plan->stats().quantized == quantized;
}

}  // namespace

PlanLanes::ScoreResult PlanLanes::Score(const TfmaeModel& model,
                                        std::int64_t count,
                                        const QuantSpec* quant,
                                        const Prepare& prepare,
                                        const Take& take) {
  ScoreResult result;
  if (count <= 0) return result;
  const MaskedWindow first = prepare(0);
  if (quant_demoted_) quant = nullptr;

  // One lane per concurrent chunk, all of window 0's geometry.
  const std::int64_t want = std::min<std::int64_t>(
      count, ThreadPool::Instance().num_threads());
  bool stale = size() < want;
  for (std::int64_t i = 0; i < want && !stale; ++i) {
    stale = !HoldsPlanFor(lane(i), first, quant != nullptr);
  }
  std::int64_t lanes = want;
  if (stale) {
    lanes = 0;
    // Why a capture failed; only a quantized failure reports it.
    std::string error;
    if (!TFMAE_FAULT("infer.plan.capture")) {
      if (quant != nullptr) {
        if (TFMAE_FAULT("infer.quant.capture")) {
          error = "injected fault: infer.quant.capture";
        } else {
          lanes = Ensure(model, want, first, quant, &result, &error);
        }
        if (lanes < want) {
          // Demote the whole set: one call never mixes precisions, so the
          // lane a window lands on never shows in its scores.
          result.quant_fallback = std::move(error);
          quant_demoted_ = true;
          lanes_.clear();
          quant = nullptr;
        }
      }
      if (quant == nullptr) {
        lanes = Ensure(model, want, first, nullptr, &result, &error);
      }
    }
  }

  if (lanes == 0) {
    // No plan: serial eager scoring, bitwise what a plan would replay. The
    // next call tries to capture again.
    lanes_.clear();
    result.primary_captured = false;
    take(0, model.ScoreWindow(first));
    for (std::int64_t i = 1; i < count; ++i) {
      take(i, model.ScoreWindow(prepare(i)));
    }
    return result;
  }
  result.planned = true;
  ForEach(0, count, lanes, [&](std::int64_t i, Lane& lane) {
    MaskedWindow own;
    const MaskedWindow& window = i == 0 ? first : (own = prepare(i));
    lane.plan->Score(window, &lane.out);
    take(i, lane.out);
  });
  FoldReplays();
  return result;
}

std::int64_t PlanLanes::Ensure(const TfmaeModel& model, std::int64_t want,
                               const MaskedWindow& example,
                               const QuantSpec* quant, ScoreResult* result,
                               std::string* error) {
  while (size() < want) lanes_.push_back(std::make_unique<Lane>());
  std::int64_t ready = 0;
  for (; ready < want; ++ready) {
    Lane& l = lane(ready);
    if (HoldsPlanFor(l, example, quant != nullptr)) continue;
    l.plan.reset();
    l.folded_replays = 0;
    l.plan = InferencePlan::Capture(model, example, &l.out, error, quant);
    if (l.plan == nullptr) break;
    ++result->captured;
    if (ready == 0) result->primary_captured = true;
  }
  return ready;
}

void PlanLanes::ForEach(std::int64_t begin, std::int64_t end,
                        std::int64_t lanes,
                        const std::function<void(std::int64_t, Lane&)>& fn) {
  ParallelFor(begin, end, 1, [&](std::int64_t i0, std::int64_t i1) {
    Lane* claimed = nullptr;
    for (std::int64_t l = 0;; l = (l + 1) % lanes) {
      if (!lane(l).busy.test_and_set(std::memory_order_acquire)) {
        claimed = &lane(l);
        break;
      }
      if (l == lanes - 1) std::this_thread::yield();
    }
    for (std::int64_t i = i0; i < i1; ++i) fn(i, *claimed);
    claimed->busy.clear(std::memory_order_release);
  });
}

void PlanLanes::FoldReplays() {
  if (primary() == nullptr) return;
  for (std::int64_t i = 1; i < size(); ++i) {
    Lane& l = lane(i);
    if (l.plan == nullptr) continue;
    const std::int64_t replays = l.plan->stats().replays;
    lane(0).plan->AddSiblingReplays(replays - l.folded_replays);
    l.folded_replays = replays;
  }
}

const InferencePlan* PlanLanes::primary() const {
  return lanes_.empty() ? nullptr : lanes_[0]->plan.get();
}

}  // namespace tfmae::core
