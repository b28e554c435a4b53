#pragma once

#include <cstddef>
#include <vector>

#include "sim/function_ref.hpp"

namespace ms::kern::par {

/// Kernel execution engine: a thin parallel layer the functional kernels run
/// on, built on top of sim::ThreadPool. Two rules make it safe to use from
/// inside the simulator without perturbing any result:
///
///  1. **Fixed block decomposition.** Work is split into blocks whose size and
///     boundaries are a pure function of the problem size — never of the
///     worker count. A block is always computed in one piece by one thread,
///     so every floating-point operation inside a block happens in the same
///     order whether the engine runs on 1 thread or N.
///  2. **Deterministic reduction.** Per-block partials are merged by a fixed
///     pairwise tree over the block index order. The merge shape depends only
///     on the block count, so reductions are bit-identical across 1..N
///     threads and across serial-vs-parallel runs.
///
/// Virtual time is untouched by construction: the engine only changes how
/// fast a kernel's host-side functional payload executes; the cost model
/// never sees it.

/// Default grains. Big enough that the per-batch pool overhead (a wake +
/// two atomic cursors) is noise, small enough that paper-size kernels split
/// into plenty of blocks for load balancing.
inline constexpr std::size_t kRowBand = 64;      ///< rows per 2-D band
inline constexpr std::size_t kChunk = 1 << 15;   ///< elements per 1-D chunk

/// Worker-count override, mainly for determinism tests and benchmarks:
/// 0 = one worker per hardware thread (the default), 1 = run serially on the
/// calling thread, N = at most N threads. Never affects results.
void set_threads(int threads) noexcept;
[[nodiscard]] int threads() noexcept;

/// RAII scope for set_threads (tests sweep 1 / 2 / hardware).
class ThreadScope {
public:
  explicit ThreadScope(int t) noexcept : prev_(threads()) { set_threads(t); }
  ~ThreadScope() { set_threads(prev_); }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

private:
  int prev_;
};

/// Number of fixed blocks covering n items at the given grain.
[[nodiscard]] constexpr std::size_t block_count(std::size_t n, std::size_t block) noexcept {
  return block == 0 ? 0 : (n + block - 1) / block;
}

/// A block body `void(std::size_t begin, std::size_t end)`, by reference.
using BlockBody = sim::FunctionRef<void(std::size_t, std::size_t)>;

/// Run body(begin, end) over the fixed blocks of [begin0, end0): block b
/// covers [begin0 + b*block, min(begin0 + (b+1)*block, end0)). Blocks may run
/// concurrently; the body must only write state owned by its block.
void for_blocked(std::size_t begin0, std::size_t end0, std::size_t block, BlockBody body);

namespace detail {
/// Fixed pairwise tree merge of partials in block-index order; the shape is a
/// function of partials.size() only. Leaves the result in partials[0].
template <typename T, typename Combine>
void tree_merge(std::vector<T>& partials, Combine&& combine) {
  for (std::size_t stride = 1; stride < partials.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < partials.size(); i += 2 * stride) {
      partials[i] = combine(partials[i], partials[i + stride]);
    }
  }
}
}  // namespace detail

/// Deterministic blocked reduction over [begin0, end0): `map(begin, end)`
/// produces each fixed block's partial (computed serially within the block);
/// `combine(a, b)` merges partials by the fixed tree. Returns `identity` for
/// an empty range. Bit-identical for every thread count by construction.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T blocked_reduce(std::size_t begin0, std::size_t end0, std::size_t block,
                               T identity, Map&& map, Combine&& combine) {
  if (end0 <= begin0) return identity;
  const std::size_t blocks = block_count(end0 - begin0, block);
  std::vector<T> partials(blocks);
  T* out = partials.data();
  for_blocked(begin0, end0, block,
              [out, begin0, block, &map](std::size_t b0, std::size_t b1) {
                out[(b0 - begin0) / block] = map(b0, b1);
              });
  detail::tree_merge(partials, combine);
  return partials[0];
}

}  // namespace ms::kern::par
