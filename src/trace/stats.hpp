#pragma once

#include <vector>

namespace ms::trace {

/// The paper's measurement protocol (Section III-B): run 11 iterations,
/// discard the first (warm-up), report the mean of the rest. `samples` must
/// be the per-iteration values in order.
[[nodiscard]] double mean_skip_first(const std::vector<double>& samples);

/// GFLOP/s from a flop count and a duration in milliseconds.
[[nodiscard]] double gflops(double flops, double millis) noexcept;

}  // namespace ms::trace
