#include "model/ml_tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>

#include "analyze/capture.hpp"
#include "model/workload_sim.hpp"
#include "sim/sweep.hpp"
#include "telemetry/span.hpp"

namespace ms::model {

namespace {
telemetry::Counter& tel_train_samples() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_model_knn_samples_total", "Labeled samples produced by KnnTuner::train");
  return c;
}
}  // namespace

KnnTuner::KnnTuner(int k) : k_(k) {
  if (k < 1) {
    throw std::invalid_argument("KnnTuner: k must be >= 1");
  }
}

KnnTuner::Features KnnTuner::featurize(const OffloadShape& shape) {
  const double transfer = shape.h2d_bytes + shape.d2h_bytes;
  const double compute = shape.work.flops + shape.work.elems;
  return Features{
      std::log2(transfer + 1.0),
      std::log2(compute + 1.0),
      std::log2((compute + 1.0) / (transfer + 1.0)),
      (shape.h2d_bytes + 1.0) / (shape.h2d_bytes + shape.d2h_bytes + 2.0),
  };
}

void KnnTuner::add_sample(const OffloadShape& shape, rt::Tuner::Candidate best) {
  samples_.push_back(Sample{featurize(shape), best});
}

double KnnTuner::distance(const Features& a, const Features& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < kFeatures; ++i) {
    const double x = a[i] - b[i];
    d += x * x;
  }
  return std::sqrt(d);
}

rt::Tuner::Candidate KnnTuner::predict(const OffloadShape& shape) const {
  if (samples_.empty()) {
    throw std::logic_error("KnnTuner::predict: no training samples");
  }
  const Features f = featurize(shape);

  std::vector<std::pair<double, const Sample*>> ranked;
  ranked.reserve(samples_.size());
  for (const Sample& s : samples_) {
    ranked.emplace_back(distance(f, s.f), &s);
  }
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(k_), ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(k),
                    ranked.end(),
                    [](const auto& a, const auto& b) { return a.first < b.first; });

  // Inverse-distance-weighted vote per distinct label.
  std::map<std::pair<int, int>, double> votes;
  for (std::size_t i = 0; i < k; ++i) {
    const double w = 1.0 / (ranked[i].first + 1e-9);
    const auto& c = ranked[i].second->best;
    votes[{c.partitions, c.tiles}] += w;
  }
  const auto best = std::max_element(votes.begin(), votes.end(), [](const auto& a, const auto& b) {
    return a.second < b.second;
  });
  return rt::Tuner::Candidate{best->first.first, best->first.second};
}

OffloadShape KnnTuner::random_shape(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> mib(0.5, 512.0);     // transfer volume
  std::uniform_real_distribution<double> balance(0.05, 0.95); // H2D share
  std::uniform_real_distribution<double> intensity(0.02, 50.0);  // compute per byte

  OffloadShape s;
  const double total = mib(rng) * 1024.0 * 1024.0;
  const double h_share = balance(rng);
  s.h2d_bytes = total * h_share;
  s.d2h_bytes = total * (1.0 - h_share);
  // Alternate between flop-heavy and memory-heavy kernels.
  if (seed % 2 == 0) {
    s.work.kind = sim::KernelKind::Gemm;
    s.work.flops = total * intensity(rng);
  } else {
    s.work.kind = sim::KernelKind::Streaming;
    s.work.elems = total / 4.0 * intensity(rng);
  }
  return s;
}

KnnTuner KnnTuner::train(const sim::SimConfig& cfg, int samples, std::uint32_t seed, int k) {
  if (samples < 1) {
    throw std::invalid_argument("KnnTuner::train: need at least one sample");
  }
  const telemetry::ScopedSpan span("model.knn.train");
  KnnTuner tuner(k);
  rt::TunerOptions opt;
  opt.max_multiplier = 6;
  const auto space = rt::Tuner::pruned_space(cfg.device, opt);

  // Label samples across the sweep pool: each sample's pruned-space search
  // runs serially inside one worker (its simulations share nothing), and
  // samples are added back in index order, so the trained tuner is
  // bit-identical to a serial run. Every candidate pipeline runs under its
  // own Capture and is hazard-checked before its virtual time is trusted as
  // a label: a hazardous one scores +infinity, which the search skips.
  struct Labeled {
    OffloadShape shape;
    rt::Tuner::Candidate best;
  };
  const auto labeled = sim::parallel_map<Labeled>(
      static_cast<std::size_t>(samples), [&](std::size_t i) {
        const OffloadShape shape = random_shape(seed + static_cast<std::uint32_t>(i));
        const auto result = rt::Tuner::search(space, [&](rt::Tuner::Candidate c) {
          analyze::Capture capture;
          const double ms = simulate_streamed_ms(cfg, shape, c.partitions, c.tiles);
          return capture.clean() ? ms : std::numeric_limits<double>::infinity();
        });
        return Labeled{shape, result.best};
      });
  for (const Labeled& l : labeled) {
    tuner.add_sample(l.shape, l.best);
  }
  tel_train_samples().add(static_cast<std::uint64_t>(samples));
  return tuner;
}

}  // namespace ms::model
