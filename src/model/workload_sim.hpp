#pragma once

#include "model/analytic.hpp"
#include "sim/sim_config.hpp"

namespace ms::model {

/// Run one generic streamed offload (the canonical H2D -> kernel -> D2H
/// pipeline over T equal tasks and P partitions) through the *full
/// discrete-event runtime* and return its virtual milliseconds. This is the
/// ground truth the analytic model approximates and the ML tuner trains
/// against: same shape vocabulary, none of the closed-form shortcuts.
[[nodiscard]] double simulate_streamed_ms(const sim::SimConfig& cfg, const OffloadShape& shape,
                                          int partitions, int tiles);

}  // namespace ms::model
