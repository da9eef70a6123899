// Open-loop load generation for a streaming server.
//
// One generator thread sends rows on a fixed schedule that never slows down
// when the server does: global row i is due at t0 + i / rate, and belongs
// to stream i % streams, so each stream is a phase-offset periodic source.
// A consumer thread collects completed windows. A window's latency runs
// from the due time of the row that completed it to the moment the
// consumer received its result, so a stall anywhere - in the server or in
// the generator itself - is charged to every row that was due during it.
//
// This module knows nothing about TFMAE: the server is reached through the
// OpenLoopHooks callbacks, which is what lets the tests drive it with a
// fake server.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace perfbench {

/// What one push did, as the generator sees it.
enum class PushKind {
  kAccepted,  ///< row absorbed, no window completed
  kQueued,    ///< row absorbed and completed a window (seq reported)
  kRefused,   ///< row refused (admission control); counts as a failure
};

/// A completed window: the stream and the seq the server tagged it with.
struct WindowId {
  std::int64_t stream = 0;
  std::int64_t seq = 0;
};

struct OpenLoopHooks {
  /// Generator thread: sends row `row` of `stream`. For kQueued, stores the
  /// seq the completed window will carry in `*seq`.
  std::function<PushKind(std::int64_t stream, std::int64_t row,
                         std::int64_t* seq)>
      push;
  /// Consumer thread: appends the windows completed since the last call and
  /// returns true when it found any (false lets the consumer nap).
  std::function<bool(std::vector<WindowId>* done)> poll;
  /// Optional: the server's scoring step, run in a loop on its own thread
  /// (100 us naps while it finds nothing); returns true when it did work.
  std::function<bool()> work;
  /// Optional, generator thread, right before global row `i` is sent (the
  /// tests inject generator stalls here).
  std::function<void(std::int64_t i)> before_send;
};

struct RungConfig {
  double rows_per_s = 1000.0;
  std::int64_t streams = 1;
  /// Per-stream row index the rung starts at (rows continue across rungs).
  std::int64_t first_row = 0;
  double seconds = 1.0;
  /// Rows per window, to express unsent rows in windows.
  std::int64_t hop = 1;
  /// The generator stops early once the backlog exceeds this many windows:
  /// the rung has failed and pushing on would only fill the admission queue.
  double abort_backlog_windows = 2048.0;
};

struct BacklogSample {
  double t_s = 0.0;      ///< seconds since the rung started
  double windows = 0.0;  ///< unsent rows / hop + windows queued, not returned
};

struct RungResult {
  RungConfig config;
  std::int64_t rows_sent = 0;
  std::int64_t rows_refused = 0;
  std::int64_t windows_queued = 0;
  std::int64_t windows_done = 0;
  std::vector<double> latency_ms;   ///< per completed window, due -> result
  std::vector<double> lateness_ms;  ///< per sent row, due -> send
  std::vector<BacklogSample> backlog;
  double send_seconds = 0.0;        ///< first due time to last send
  double server_busy_seconds = 0.0;  ///< time inside work() calls that did work
  bool aborted = false;    ///< stopped early on the backlog limit
  bool drained = false;    ///< every queued window came back
  /// Windows completed that the generator never saw queued (a server bug).
  std::int64_t unmatched = 0;
};

/// Runs one rung: spawns the consumer (and the worker, if `hooks.work` is
/// set), sends on the schedule from the calling thread, waits for the
/// consumer to drain, joins both.
RungResult RunRung(const RungConfig& config, const OpenLoopHooks& hooks);

/// True when the backlog grew by more than `limit_windows` over the second
/// half of the sending interval (least-squares slope times that span).
bool BacklogGrowing(const std::vector<BacklogSample>& samples,
                    double send_seconds, double limit_windows);

/// Why a rung did or did not meet the latency limit.
struct RungVerdict {
  bool meets = false;
  bool growing = false;
  double p99_ms = 0.0;  ///< 0 when the sample is too small for a p99
};
RungVerdict JudgeRung(const RungResult& rung, double p99_limit_ms,
                      double growth_limit_windows);

/// The fixed geometric ladder of offered rates: rung k offers
/// kLadderBaseRowsPerS * kLadderStep^k rows/s (adjacent rungs 5% apart).
constexpr double kLadderBaseRowsPerS = 1000.0;
constexpr double kLadderStep = 1.05;
double LadderRate(int rung);

/// Searches the ladder from `start` with at most `max_probes` probes: steps
/// of 2, 4, 8... rungs, up while rungs pass or down while they fail, until
/// the verdict flips; then bisects the bracket. `best_rung` is the highest
/// rung seen to pass (-1 if none). `probe(rung)` runs and judges one rung.
struct LadderSearch {
  int best_rung = -1;
  std::vector<std::pair<int, bool>> probes;
};
LadderSearch SearchLadder(int start, int max_probes,
                          const std::function<bool(int)>& probe);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
