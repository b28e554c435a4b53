#include "rt/tuner.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "rt/errors.hpp"
#include "telemetry/span.hpp"

namespace ms::rt {
namespace {

telemetry::Counter& tel_searches() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_tuner_searches_total", "Tuner search invocations (all variants)");
  return c;
}
telemetry::Counter& tel_candidates() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_tuner_candidates_total", "Candidate configurations submitted to tuner searches");
  return c;
}
telemetry::Counter& tel_rejected() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_tuner_rejected_total", "Candidates skipped because their metric was not finite");
  return c;
}
telemetry::Gauge& tel_done() {
  static telemetry::Gauge& g = telemetry::registry().gauge(
      "ms_tuner_candidates_done", "Candidates evaluated so far in the current search (live progress)");
  return g;
}

/// Common entry bookkeeping for every search variant.
void tel_search_begin(std::size_t candidates) {
  tel_searches().add(1);
  tel_candidates().add(candidates);
  tel_done().set(0);
}

}  // namespace

std::vector<int> Tuner::partition_candidates(const sim::CoprocessorSpec& spec) {
  std::vector<int> out;
  const int cores = spec.usable_cores();
  for (int p = 2; p <= cores; ++p) {
    if (cores % p == 0) out.push_back(p);
  }
  return out;
}

std::vector<int> Tuner::tile_candidates(int partitions, const TunerOptions& opt) {
  if (partitions < 1) {
    throw std::invalid_argument("Tuner::tile_candidates: partitions must be >= 1");
  }
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(opt.max_multiplier));
  for (int m = 1; m <= opt.max_multiplier; ++m) {
    out.push_back(m * partitions);
  }
  return out;
}

std::vector<Tuner::Candidate> Tuner::pruned_space(const sim::CoprocessorSpec& spec,
                                                  const TunerOptions& opt) {
  std::vector<Candidate> out;
  for (const int p : partition_candidates(spec)) {
    for (const int t : tile_candidates(p, opt)) {
      out.push_back(Candidate{p, t});
    }
  }
  return out;
}

std::vector<Tuner::Candidate> Tuner::exhaustive_space(const sim::CoprocessorSpec& spec,
                                                      int max_tiles) {
  if (max_tiles < 1) {
    throw std::invalid_argument("Tuner::exhaustive_space: max_tiles must be >= 1");
  }
  std::vector<Candidate> out;
  out.reserve(static_cast<std::size_t>(spec.usable_cores()) * static_cast<std::size_t>(max_tiles));
  for (int p = 1; p <= spec.usable_cores(); ++p) {
    for (int t = 1; t <= max_tiles; ++t) {
      out.push_back(Candidate{p, t});
    }
  }
  return out;
}

Tuner::Result Tuner::search(const std::vector<Candidate>& candidates,
                            const std::function<double(Candidate)>& metric,
                            const SearchOptions& opt) {
  if (candidates.empty()) {
    throw std::invalid_argument("Tuner::search: empty candidate list");
  }
  if (!metric) {
    throw std::invalid_argument("Tuner::search: empty metric");
  }

  const telemetry::ScopedSpan span("rt.tuner.search");
  tel_search_begin(candidates.size());
  const auto values = sim::parallel_map<double>(
      candidates.size(),
      [&](std::size_t i) {
        const double v = metric(candidates[i]);
        tel_done().add(1);
        return v;
      },
      opt.sweep);

  // Ordered reduction: the winner and tie-breaks follow candidate order, not
  // evaluation order.
  Result r;
  r.best_metric = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ++r.evaluated;
    if (!std::isfinite(values[i])) {
      ++r.rejected;
      continue;
    }
    if (values[i] < r.best_metric) {
      r.best_metric = values[i];
      r.best = candidates[i];
    }
  }
  tel_rejected().add(static_cast<std::uint64_t>(r.rejected));
  if (r.rejected == candidates.size()) {
    throw Error("Tuner::search: no candidate configuration has a finite metric");
  }
  return r;
}

}  // namespace ms::rt
