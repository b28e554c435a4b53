#include "trace/stats.hpp"

#include <stdexcept>

namespace ms::trace {

double mean_skip_first(const std::vector<double>& samples) {
  if (samples.size() < 2) {
    throw std::invalid_argument("mean_skip_first: need at least two samples");
  }
  double sum = 0.0;
  for (std::size_t i = 1; i < samples.size(); ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 1);
}

double gflops(double flops, double millis) noexcept {
  if (millis <= 0.0) return 0.0;
  return flops / (millis * 1e-3) / 1e9;
}

}  // namespace ms::trace
