// What an in-process search left behind, read through public APIs, and
// the after-the-fact replays that time the layers the search reaches only
// through the layer above: EvalContext::EvaluateOnce on a fresh context,
// the FE-operator and model factories, SmacOptimizer::Suggest with its
// RandomForestSurrogate, and the process-pool DispatchBackend.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/volcano_ml.h"
#include "eval/dispatch.h"

namespace perfbench {

/// One stepped search, as observed from outside the library.
struct SearchRecord {
  volcanoml::VolcanoMlOptions options;
  /// The evaluator's effective options (the run seed already folded in),
  /// read back from the search's own EvalContext.
  volcanoml::EvaluatorOptions eval_options;
  const volcanoml::Dataset* train = nullptr;
  /// Committed (assignment, utility) pairs in commit order.
  std::vector<std::pair<volcanoml::Assignment, double>> observations;
  /// Committed-request count after each Step: step i committed the
  /// requests in [batch_ends[i-1], batch_ends[i]).
  std::vector<size_t> batch_ends;
  std::vector<double> step_seconds;
  double search_seconds = 0.0;
  double best_utility = 0.0;
  volcanoml::Assignment best_assignment;
  std::vector<volcanoml::TrajectoryPoint> trajectory;
  size_t evaluations = 0;
  size_t cache_hits = 0;
  size_t hard_failures = 0;
  volcanoml::DispatchTelemetry telemetry;
  double test_bal_acc = 0.0;
  /// Serial EvaluateOnce replay seconds per commit (0 for repeats), when
  /// the replay ran right after the search.
  std::vector<double> replay_seconds;
};

/// One search to run: its options, the table it sees, and the held-out
/// rows its final pipeline is scored on (null: no final pipeline).
struct SearchInput {
  volcanoml::VolcanoMlOptions options;
  const volcanoml::Dataset* train = nullptr;
  const volcanoml::Dataset* test = nullptr;
};

/// The final pipeline must beat chance (1 / classes) by this much in
/// balanced accuracy on the held-out rows.
inline constexpr double kChanceMargin = 0.15;

/// Bitwise equality of two trajectories.
[[nodiscard]] bool SameTrajectory(
    const std::vector<volcanoml::TrajectoryPoint>& a,
    const std::vector<volcanoml::TrajectoryPoint>& b);

/// Prepares and steps one search to its budget, then scores the final
/// pipeline on `test` with the benchmark's own balanced accuracy. Checks
/// the trajectory (monotone, ends at the full budget) into `outcome`.
[[nodiscard]] SearchRecord RunSearch(const SearchInput& input,
                                     Outcome* outcome);

/// Index of the first commit of each distinct request (later repeats are
/// memo hits: the engine did not compute them).
[[nodiscard]] std::vector<bool> FirstOccurrences(const SearchRecord& record);

/// Re-evaluates every distinct committed request of each search on a
/// fresh EvalContext (`threads` requests at a time) and checks each
/// committed utility against it bit for bit, and each incumbent against
/// the best replayed utility. Returns, per search, the replay wall seconds
/// of each commit (0 for repeats, which the engine answered from memo).
std::vector<std::vector<double>> VerifyAgainstReplay(
    const std::vector<const SearchRecord*>& records, size_t threads,
    Outcome* outcome);
/// The same for one search, serially.
std::vector<double> VerifyAgainstReplay(const SearchRecord& record,
                                        Outcome* outcome);

/// Per-layer times of one search, from serial replays.
struct LayerTimes {
  double fe_fit_transform = 0.0;
  double fe_transform = 0.0;
  double fit_tree = 0.0;
  double fit_mlp = 0.0;
  double fit_other = 0.0;
  double predict = 0.0;
  std::vector<double> suggest_ms;
  std::vector<double> surrogate_fit_ms;
};

/// Replays the distinct requests through the FE-operator and model
/// factories (FE fit+transform of the train split, transform of the
/// validation split, model fit, predict), and the optimizer history
/// through SmacOptimizer / RandomForestSurrogate. The optimizer replay
/// runs on the joint space for joint plans, else on the HP subspace of
/// the arm with the most commits.
[[nodiscard]] LayerTimes ReplayLayers(const SearchRecord& record,
                                      Outcome* outcome);

/// Worker-layer replay: a fresh process-pool backend fed the search's
/// committed batches (grouped `group` requests at a time when the search
/// ran serially).
struct PoolReplay {
  double start_ms = 0.0;
  std::vector<double> batch_ms;
  /// Slowest in-process replayed trial of each replayed batch, and the
  /// summed replayed trial time of the batch.
  std::vector<double> batch_slowest_s;
  std::vector<double> batch_busy_s;
  std::vector<size_t> batch_sizes;
  volcanoml::DispatchTelemetry telemetry;
};
[[nodiscard]] PoolReplay ReplayOnPool(
    const SearchRecord& record, const std::vector<double>& replay_seconds,
    size_t workers, size_t group, const std::string& worker_binary,
    Outcome* outcome);

/// CreateDispatchBackend (process pool) plus one one-request Dispatch of
/// the space's default assignment; returns the elapsed milliseconds.
[[nodiscard]] double TimeWorkerStart(const volcanoml::VolcanoMlOptions& options,
                                     const volcanoml::Dataset& train,
                                     size_t workers,
                                     const std::string& worker_binary,
                                     Outcome* outcome);

/// Snapshot cost of an in-process twin stopped halfway through `record`'s
/// search: SaveSnapshot and LoadSnapshot (into a freshly prepared twin)
/// medians, and the snapshot size.
struct SnapshotTimes {
  double save_ms = 0.0;
  double load_ms = 0.0;
  double bytes = 0.0;
};
[[nodiscard]] SnapshotTimes TimeSnapshots(const SearchRecord& record,
                                          Outcome* outcome);

/// Replays the first `max_replayed` of `records` (traced searches; their
/// EvaluateOnce replay is reused when already recorded) and
/// sets the core, bo, eval, fe, ml and worker per-layer metrics.
/// `worker_start_ms` holds pool starts already timed during set-up; the
/// pool replays add theirs when it is empty.
void SetLayerMetrics(const std::vector<SearchRecord>& records,
                     size_t max_replayed, const std::string& worker_binary,
                     std::vector<double> worker_start_ms, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
