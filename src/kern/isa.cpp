#include "kern/isa.hpp"

namespace ms::kern::detail {

bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();  // safe to call before static constructors have run
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Isa host_isa() noexcept {
  static const Isa isa = cpu_has_avx2() ? Isa::Avx2 : Isa::Baseline;
  return isa;
}

}  // namespace ms::kern::detail
