#pragma once

#include <functional>
#include <vector>

#include "sim/sim_config.hpp"
#include "sim/sweep.hpp"

namespace ms::rt {

/// Search-space pruning heuristics of Section V-C2.
///
/// Exhaustively choosing the resource granularity P and the task granularity
/// T means sweeping P in [1, 56] x T in [1, thousands]. The paper's
/// observations cut this down:
///   (H1) P should divide the usable core count (56) so no physical core's
///        threads are split between partitions — {2,4,7,8,14,28,56};
///   (H2) T should be a multiple of P for load balance (T = m*P);
///   (H3) T should be neither too small (no pipelining) nor too large
///        (per-task overhead, poor per-thread utilization).
/// Knobs for the pruned search space.
struct TunerOptions {
  /// H2/H3 bound: consider m in [1, max_multiplier].
  int max_multiplier = 8;
};

/// How Tuner::search evaluates its candidates.
struct SearchOptions {
  /// Where evaluations run. The default runs them one after another on the
  /// calling thread; other values spread them over the shared sweep pool,
  /// so `metric` must then be thread-safe (simulator-backed metrics are,
  /// since every evaluation builds its own Context).
  sim::SweepOptions sweep{.threads = 1};
};

class Tuner {
public:
  struct Candidate {
    int partitions = 1;
    int tiles = 1;
  };

  struct Result {
    Candidate best{};
    double best_metric = 0.0;
    std::size_t evaluated = 0;
    /// Candidates skipped because their metric was not finite (they never
    /// become `best`).
    std::size_t rejected = 0;
  };

  /// H1: the pruned partition-count candidates for `spec` — all divisors of
  /// usable_cores() except 1.
  [[nodiscard]] static std::vector<int> partition_candidates(const sim::CoprocessorSpec& spec);

  /// H2+H3: tile-count candidates for a fixed P.
  [[nodiscard]] static std::vector<int> tile_candidates(int partitions, const TunerOptions& opt = TunerOptions());

  /// The full pruned (P, T) space.
  [[nodiscard]] static std::vector<Candidate> pruned_space(const sim::CoprocessorSpec& spec,
                                                           const TunerOptions& opt = TunerOptions());

  /// The unpruned space the paper calls "huge": every P in [1, usable cores]
  /// and every T in [1, max_tiles].
  [[nodiscard]] static std::vector<Candidate> exhaustive_space(const sim::CoprocessorSpec& spec,
                                                               int max_tiles);

  /// Evaluate `metric` (lower is better — e.g. virtual execution time in
  /// ms) over a candidate list and return the winner. Ties keep the earliest
  /// candidate. The ranking is an ordered reduction over the candidate list
  /// after every evaluation has finished, so the winner and its tie-breaks
  /// do not depend on `opt.sweep`. A candidate whose metric is not finite
  /// (a metric's way to rule it out, e.g. a hazardous pipeline) is skipped
  /// and counted in Result::rejected. Throws std::invalid_argument on an
  /// empty candidate list or an empty metric, and rt::Error when no
  /// candidate has a finite metric.
  [[nodiscard]] static Result search(const std::vector<Candidate>& candidates,
                                     const std::function<double(Candidate)>& metric,
                                     const SearchOptions& opt = {});
};

}  // namespace ms::rt
