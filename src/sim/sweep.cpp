#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/span.hpp"

namespace ms::sim {

namespace {
/// True while the current thread is draining a batch — set for pool workers
/// for their whole life AND for any calling thread while it participates in
/// its own run(). Nested run() calls from either must execute inline: a pool
/// worker would deadlock the batch it is part of, and the calling thread
/// already holds run_mu (app dispatch under a parallel sweep launching a
/// parallel kernel is exactly this shape).
thread_local bool t_in_pool_batch = false;

telemetry::Counter& tel_batches() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_pool_batches_total", "Batches submitted to a ThreadPool::run");
  return c;
}
telemetry::Counter& tel_jobs() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_pool_jobs_total", "Sweep jobs executed (pooled, nested-inline, and serial paths)");
  return c;
}
telemetry::Gauge& tel_workers() {
  static telemetry::Gauge& g = telemetry::registry().gauge(
      "ms_pool_workers", "Worker threads owned by the most recent ThreadPool");
  return g;
}
telemetry::Histogram& tel_job_ns() {
  static telemetry::Histogram& h = telemetry::registry().histogram(
      "ms_pool_job_wall_ns", "Wall-clock nanoseconds per pooled job body");
  return h;
}
telemetry::Histogram& tel_queue_wait_ns() {
  static telemetry::Histogram& h = telemetry::registry().histogram(
      "ms_pool_queue_wait_ns", "Submit-to-first-claim wall latency per draining thread");
  return h;
}
/// Per-worker busy time as one labeled family: worker threads are children
/// "0".."N-1", the submitting thread is child "caller".
telemetry::CounterFamily& tel_worker_busy() {
  static telemetry::CounterFamily& f = telemetry::registry().counter_family(
      "ms_pool_worker_busy_ns", "Wall nanoseconds each pool worker spent in job bodies",
      "worker");
  return f;
}
telemetry::Counter& tel_caller_busy() {
  static telemetry::Counter& c = tel_worker_busy().with("caller");
  return c;
}
}  // namespace

struct ThreadPool::Impl {
  /// One run() call. Workers hold their own shared_ptr while draining, so a
  /// straggler that wakes after the batch finished touches only the (fully
  /// exhausted) batch object, never state recycled for the next run.
  struct Batch {
    explicit Batch(JobBody b) noexcept : body(b) {}

    JobBody body;
    std::size_t jobs = 0;
    std::size_t max_workers = 0;  ///< 0 = unlimited
    std::uint64_t submit_ns = 0;  ///< wall stamp at submit; 0 = telemetry off
    std::atomic<std::size_t> entrants{0};
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable complete;
    std::exception_ptr error;

    /// `busy` is the draining thread's busy-time counter (per worker, or the
    /// caller's). Timing is all-or-nothing on the submit stamp so a batch
    /// submitted with telemetry off never reads the clock.
    void drain(telemetry::Counter& busy) {
      if (max_workers != 0 &&
          entrants.fetch_add(1, std::memory_order_relaxed) >= max_workers) {
        return;
      }
      const bool timed = submit_ns != 0;
      std::uint64_t busy_ns = 0;
      std::uint64_t executed = 0;
      bool first_claim = true;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs) break;
        std::uint64_t t0 = 0;
        if (timed) {
          t0 = telemetry::now_ns();
          if (first_claim) {
            tel_queue_wait_ns().observe(t0 - submit_ns);
            first_claim = false;
          }
        }
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
        if (timed) {
          const std::uint64_t dt = telemetry::now_ns() - t0;
          tel_job_ns().observe(dt);
          busy_ns += dt;
        }
        ++executed;
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == jobs) {
          std::lock_guard<std::mutex> lock(mu);
          complete.notify_all();
        }
      }
      if (executed > 0) {
        tel_jobs().add(executed);
        if (timed) busy.add(busy_ns);
      }
    }
  };

  explicit Impl(unsigned threads) {
    if (threads == 0) {
      threads = std::thread::hardware_concurrency();
      if (threads == 0) threads = 1;
    }
    workers.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
      workers.emplace_back([this, i] { worker_loop(i); });
    }
    tel_workers().set(static_cast<std::int64_t>(threads));
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mu);
      shutting_down = true;
    }
    wake.notify_all();
    for (auto& w : workers) w.join();
  }

  void worker_loop(unsigned idx) {
    t_in_pool_batch = true;
    // Per-worker busy counter: one family child per index, shared by every
    // pool that ever runs a worker with this index (the registry dedupes).
    telemetry::Counter& busy = tel_worker_busy().with(std::to_string(idx));
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lock(mu);
        wake.wait(lock, [&] { return shutting_down || generation != seen; });
        if (shutting_down) return;
        seen = generation;
        batch = current;
      }
      if (batch) batch->drain(busy);
    }
  }

  void run(std::size_t jobs, JobBody body, std::size_t max_workers) {
    std::lock_guard<std::mutex> run_lock(run_mu);  // one batch at a time
    const telemetry::ScopedSpan span("sim.pool.batch");
    tel_batches().add(1);
    auto batch = std::make_shared<Batch>(body);
    batch->jobs = jobs;
    batch->max_workers = max_workers;
    if (telemetry::enabled()) batch->submit_ns = telemetry::now_ns();
    {
      std::lock_guard<std::mutex> lock(mu);
      current = batch;
      ++generation;
    }
    // Wake only the helpers the batch can use: the calling thread takes one
    // job itself, and max_workers counts it. A worker left asleep joins the
    // current batch at its next wake-up; the entrants count bounds it then.
    std::size_t helpers = std::min<std::size_t>(jobs - 1, workers.size());
    if (max_workers != 0) helpers = std::min(helpers, max_workers - 1);
    for (std::size_t i = 0; i < helpers; ++i) wake.notify_one();
    // The calling thread helps drain. Mark it as batch-bound for the
    // duration so a job that itself sweeps (nested parallel kernel inside a
    // parallel-sweep job) runs the inner jobs inline instead of re-entering
    // run() and self-deadlocking on run_mu.
    t_in_pool_batch = true;
    batch->drain(tel_caller_busy());
    t_in_pool_batch = false;
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->complete.wait(
        lock, [&] { return batch->done.load(std::memory_order_acquire) == batch->jobs; });
    if (batch->error) std::rethrow_exception(batch->error);
  }

  std::vector<std::thread> workers;
  std::mutex run_mu;
  std::mutex mu;
  std::condition_variable wake;
  bool shutting_down = false;
  std::uint64_t generation = 0;
  std::shared_ptr<Batch> current;
};

ThreadPool::ThreadPool(unsigned threads) : impl_(new Impl(threads)) {}

ThreadPool::~ThreadPool() { delete impl_; }

unsigned ThreadPool::size() const noexcept {
  return static_cast<unsigned>(impl_->workers.size());
}

void ThreadPool::run(std::size_t jobs, JobBody body, std::size_t max_workers) {
  if (jobs == 0) return;
  if (t_in_pool_batch) {
    // Nested sweep from inside a job — whether the job landed on a pool
    // worker or on the calling thread of the outer run(). Run inline,
    // serially: deterministic and deadlock-free; the outer sweep already
    // owns the workers (and, for the calling thread, run_mu).
    for (std::size_t i = 0; i < jobs; ++i) body(i);
    tel_jobs().add(jobs);
    return;
  }
  impl_->run(jobs, body, max_workers);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t jobs, JobBody body, const SweepOptions& opt) {
  if (jobs == 0) return;
  if (opt.threads == 1 || jobs == 1) {
    for (std::size_t i = 0; i < jobs; ++i) body(i);
    tel_jobs().add(jobs);
    return;
  }
  ThreadPool::shared().run(jobs, body,
                           opt.threads > 0 ? static_cast<std::size_t>(opt.threads) : 0);
}

}  // namespace ms::sim
