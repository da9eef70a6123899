#include "core/plan_lanes.h"

#include <algorithm>
#include <thread>

#include "util/thread_pool.h"

namespace tfmae::core {
namespace {

bool HoldsPlanFor(const PlanLanes::Lane& lane, const MaskedWindow& example,
                  bool quantized) {
  return lane.plan != nullptr && lane.plan->Matches(example) &&
         lane.plan->stats().quantized == quantized;
}

}  // namespace

PlanLanes::EnsureResult PlanLanes::Ensure(const TfmaeModel& model,
                                          std::int64_t want,
                                          const MaskedWindow& example,
                                          const QuantSpec* quant,
                                          std::string* error) {
  want = std::max<std::int64_t>(want, 1);
  while (size() < want) lanes_.push_back(std::make_unique<Lane>());
  EnsureResult result;
  for (; result.ready < want; ++result.ready) {
    Lane& l = lane(result.ready);
    if (HoldsPlanFor(l, example, quant != nullptr)) continue;
    l.plan.reset();
    l.folded_replays = 0;
    l.plan = InferencePlan::Capture(model, example, &l.out, error, quant);
    if (l.plan == nullptr) break;
    ++result.captured;
  }
  return result;
}

bool PlanLanes::PrimaryMatches(const MaskedWindow& example,
                               bool quantized) const {
  return !lanes_.empty() && HoldsPlanFor(lane(0), example, quantized);
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
