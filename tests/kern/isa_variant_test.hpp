#pragma once

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "kern/isa.hpp"

namespace ms::kern::detail {

/// How gtest prints an Isa parameter (found by argument-dependent lookup).
inline void PrintTo(Isa isa, std::ostream* os) {
  *os << (isa == Isa::Avx2 ? "Avx2" : "Baseline");
}

}  // namespace ms::kern::detail

namespace ms::kern::test {

/// A test that runs once per ISA variant of the dispatched kernels
/// (kern/isa.hpp); the Avx2 run is skipped on a CPU without AVX2. A suite
/// derives from it and instantiates itself with
///   INSTANTIATE_TEST_SUITE_P(Isa, Suite, kIsaVariants, isa_variant_name);
class IsaVariantTest : public ::testing::TestWithParam<detail::Isa> {
protected:
  void SetUp() override {
    if (GetParam() == detail::Isa::Avx2 && !detail::cpu_has_avx2()) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
  }
  [[nodiscard]] detail::Isa isa() const { return GetParam(); }
};

inline const auto kIsaVariants = ::testing::Values(detail::Isa::Baseline, detail::Isa::Avx2);

inline std::string isa_variant_name(const ::testing::TestParamInfo<detail::Isa>& info) {
  return ::testing::PrintToString(info.param);
}

}  // namespace ms::kern::test
