#pragma once

#include <cstddef>

#include "apps/app_common.hpp"

namespace ms::apps {

/// MineBench/Rodinia Kmeans port (Fig. 4(d) flow — non-overlappable: every
/// iteration ends in a host-side reduction and an explicit sync, so no
/// transfer can overlap the next iteration's kernels). The paper's twist:
/// the device kernel allocates/frees temporary per-thread space every
/// launch, so its overhead scales with the partition's thread count — which
/// is why more (smaller) partitions keep helping (Fig. 9(c)).
struct KmeansConfig {
  CommonConfig common;
  std::size_t points = 100000;
  std::size_t dims = 34;     ///< MineBench feature count
  std::size_t clusters = 8;  ///< paper: "the number of centroid is 8"
  int iterations = 100;      ///< paper: fixed 100 iterations
  int tiles = 4;             ///< T: point chunks (baseline forces 1)
  // The per-iteration device schedule is replay-shaped; set
  // common.graph = GraphMode::Compiled to record it once and
  // replay it each iteration instead of re-enqueueing every action.
};

class KmeansApp {
public:
  [[nodiscard]] static AppResult run(const sim::SimConfig& cfg, const KmeansConfig& kc);
};

}  // namespace ms::apps
