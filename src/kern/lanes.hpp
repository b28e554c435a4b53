#pragma once

#include <cstddef>
#include <cstring>

namespace ms::kern::detail {

/// L lanes of T as one GCC `vector_size` vector, for the explicit-lane
/// kernel bodies (kmeans_assign and the dense tile kernels). Spelled as a
/// typedef in a struct: GCC drops a template-dependent vector_size from an
/// alias-declaration. A vector wider than the variant's registers (8
/// doubles in AVX2, 4 in the baseline) is lowered to several registers.
template <typename T, std::size_t L>
struct Lanes {
  typedef T type __attribute__((vector_size(sizeof(T) * L)));
};

/// Vector loads and stores go through memcpy, which never assumes
/// alignment: outside an AVX function GCC aligns a 32-byte vector type to
/// 16 bytes only, so memory typed as a vector array could be allocated
/// 16-byte aligned and then accessed by the AVX2 variant's 32-byte aligned
/// moves.
template <typename V, typename T>
[[gnu::always_inline]] inline void load(V& v, const T* p) {
  std::memcpy(&v, p, sizeof v);
}
template <typename V, typename T>
[[gnu::always_inline]] inline void store(T* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

}  // namespace ms::kern::detail
