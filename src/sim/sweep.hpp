#pragma once

#include <cstddef>
#include <vector>

#include "sim/function_ref.hpp"

namespace ms::sim {

/// A job body `void(std::size_t job)`, by reference: the pool copies nothing
/// and allocates nothing for it.
using JobBody = FunctionRef<void(std::size_t)>;

/// Knobs for a parallel sweep.
struct SweepOptions {
  /// Worker threads to use: 0 = one per hardware thread, 1 = run serially
  /// on the calling thread (no pool involvement at all), N > 1 = at most N
  /// threads of the shared pool.
  int threads = 0;
};

/// A persistent pool of worker threads for embarrassingly parallel
/// simulation sweeps (partition sweeps, tile sweeps, KNN training sets).
///
/// Simulated scenarios hold no global mutable state — every job builds its
/// own {SimConfig, Context} — so N scenarios parallelize cleanly; the pool
/// exists to amortize thread creation across the thousands of sweeps a
/// tuning session runs. Jobs are claimed with an atomic cursor (dynamic
/// load balancing: simulation cost varies wildly across (P, T) points), and
/// results are written by job index, so result ordering — and therefore
/// every virtual-time number — is identical to a serial run.
class ThreadPool {
public:
  /// `threads` = 0 picks one worker per hardware thread (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept;

  /// Run body(0) .. body(jobs-1), blocking until every job finished. The
  /// calling thread participates, so a 1-worker pool degrades gracefully.
  /// `max_workers` bounds how many threads work the batch (0 = no bound).
  /// The first exception thrown by a job is rethrown here (remaining jobs
  /// still run to completion). Reentrant by design: a nested run() from
  /// inside a job — on a pool worker or on the calling thread that is
  /// helping drain — executes the inner jobs inline on that thread (no
  /// deadlock on nested sweeps; see the nested-parallel_map regression
  /// tests).
  void run(std::size_t jobs, JobBody body, std::size_t max_workers = 0);

  /// Lazily-created process-wide pool shared by every sweep call site.
  static ThreadPool& shared();

private:
  struct Impl;
  Impl* impl_;
};

/// Run body(0..jobs-1) across the shared pool (or serially for
/// opt.threads == 1 / single-job sweeps). Blocks until all jobs complete.
void parallel_for(std::size_t jobs, JobBody body, const SweepOptions& opt = {});

/// Map i -> fn(i) for i in [0, jobs) with deterministic result ordering:
/// out[i] is fn(i) no matter which worker computed it or in what order.
template <typename R, typename Fn>
[[nodiscard]] std::vector<R> parallel_map(std::size_t jobs, Fn&& fn,
                                          const SweepOptions& opt = {}) {
  std::vector<R> out(jobs);
  parallel_for(
      jobs, [&](std::size_t i) { out[i] = fn(i); }, opt);
  return out;
}

}  // namespace ms::sim
