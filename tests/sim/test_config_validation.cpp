#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sim_config.hpp"

namespace ms::sim {
namespace {

struct Mutation {
  std::string name;
  std::function<void(SimConfig&)> apply;
};

// Print only the name. The default printer dumps the object's bytes, which
// hold heap and code addresses, and the discovered CTest names would then
// change from build to build.
void PrintTo(const Mutation& m, std::ostream* os) { *os << m.name; }

class InvalidConfigSweep : public ::testing::TestWithParam<Mutation> {};

TEST_P(InvalidConfigSweep, IsRejected) {
  SimConfig cfg = SimConfig::phi_31sp();
  GetParam().apply(cfg);
  EXPECT_THROW(cfg.validate(), std::invalid_argument) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Fields, InvalidConfigSweep,
    ::testing::Values(
        Mutation{"zero_cores", [](SimConfig& c) { c.device.cores = 0; }},
        Mutation{"negative_cores", [](SimConfig& c) { c.device.cores = -3; }},
        Mutation{"negative_reserved", [](SimConfig& c) { c.device.reserved_cores = -1; }},
        Mutation{"all_cores_reserved", [](SimConfig& c) { c.device.reserved_cores = c.device.cores; }},
        Mutation{"zero_threads_per_core", [](SimConfig& c) { c.device.threads_per_core = 0; }},
        Mutation{"zero_clock", [](SimConfig& c) { c.device.clock_ghz = 0.0; }},
        Mutation{"negative_flops_per_cycle",
                 [](SimConfig& c) { c.device.dp_flops_per_cycle_per_core = -1.0; }},
        Mutation{"zero_memory", [](SimConfig& c) { c.device.memory_bytes = 0; }},
        Mutation{"zero_bandwidth", [](SimConfig& c) { c.link.bandwidth_gib_s = 0.0; }},
        Mutation{"negative_latency",
                 [](SimConfig& c) { c.link.per_transfer_latency = SimTime::micros(-1.0); }},
        Mutation{"zero_elem_rate", [](SimConfig& c) { c.efficiency.elems_per_thread_us = 0.0; }},
        Mutation{"efficiency_over_one",
                 [](SimConfig& c) { c.efficiency.max_flop_efficiency = 1.01; }},
        Mutation{"efficiency_zero", [](SimConfig& c) { c.efficiency.max_flop_efficiency = 0.0; }},
        Mutation{"negative_ramp",
                 [](SimConfig& c) { c.efficiency.ramp_elems_per_thread = -1.0; }},
        Mutation{"negative_split_penalty",
                 [](SimConfig& c) { c.efficiency.split_core_penalty = -0.1; }},
        Mutation{"locality_bonus_one",
                 [](SimConfig& c) { c.efficiency.stencil_locality_bonus = 1.0; }},
        Mutation{"zero_devices", [](SimConfig& c) { c.num_devices = 0; }}));

TEST(ConfigValidation, AllPresetsAreValid) {
  EXPECT_NO_THROW(SimConfig::phi_31sp().validate());
  EXPECT_NO_THROW(SimConfig::phi_31sp_x2().validate());
  EXPECT_NO_THROW(SimConfig::phi_7120p().validate());
}

TEST(ConfigValidation, BoundaryValuesAreAccepted) {
  SimConfig c = SimConfig::phi_31sp();
  c.efficiency.max_flop_efficiency = 1.0;  // inclusive upper bound
  c.efficiency.split_core_penalty = 0.0;
  c.efficiency.stencil_locality_bonus = 0.0;
  c.link.per_transfer_latency = SimTime::zero();
  c.device.reserved_cores = 0;
  EXPECT_NO_THROW(c.validate());
}

}  // namespace
}  // namespace ms::sim
