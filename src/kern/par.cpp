#include "kern/par.hpp"

#include <atomic>

#include "sim/sweep.hpp"

namespace ms::kern::par {

namespace {
std::atomic<int> g_threads{0};
}  // namespace

void set_threads(int t) noexcept { g_threads.store(t, std::memory_order_relaxed); }

int threads() noexcept { return g_threads.load(std::memory_order_relaxed); }

void for_blocked(std::size_t begin0, std::size_t end0, std::size_t block, BlockBody body) {
  if (end0 <= begin0) return;
  if (block == 0) block = end0 - begin0;
  const std::size_t blocks = block_count(end0 - begin0, block);

  auto run_block = [&](std::size_t b) {
    const std::size_t b0 = begin0 + b * block;
    const std::size_t b1 = b0 + block < end0 ? b0 + block : end0;
    body(b0, b1);
  };

  // Single block, or serial override: skip the pool entirely. Results are
  // identical either way — the decomposition above never changes.
  const int t = threads();
  if (blocks == 1 || t == 1) {
    for (std::size_t b = 0; b < blocks; ++b) run_block(b);
    return;
  }
  sim::SweepOptions opt;
  opt.threads = t;
  sim::parallel_for(blocks, run_block, opt);
}

}  // namespace ms::kern::par
