#pragma once

#include <cstddef>
#include <cstdint>

#include "kern/hotspot.hpp"

// Run-time ISA dispatch of the hot row kernels (srad_coeff, srad_update,
// hotspot_step, kmeans_assign) and the dense tile kernels (gemm_nt_acc,
// gemm_nt_tile, syrk_tile, gemm_nn_sub). Each one's row body is written
// once and compiled twice: for the build's baseline target and with AVX2
// enabled. The process picks one variant, once. Both variants are
// bit-identical: every lane runs the scalar operation sequence,
// `-ffp-contract=off` keeps any a*b+c from fusing into an FMA (and "fma" is
// not enabled), GCC never reassociates floating-point arithmetic without
// -ffast-math, and exp/log stay scalar libm calls. The public kernels run host_isa()'s variant; the
// overloads below name the variant, so tests can run both against the
// scalar oracles.

#if defined(__x86_64__) || defined(__i386__)
#define MS_KERN_TARGET_AVX2 [[gnu::target("avx2")]]
#else
#define MS_KERN_TARGET_AVX2
#endif

namespace ms::kern::detail {

enum class Isa : std::uint8_t { Baseline, Avx2 };

/// Whether this CPU (and OS) can run the Avx2 variants; false off x86.
[[nodiscard]] bool cpu_has_avx2() noexcept;

/// The variant every public dispatched kernel runs: Avx2 when the CPU has
/// it. Decided on the first call and fixed for the process.
[[nodiscard]] Isa host_isa() noexcept;

/// A pointer parameter of a Variants member: `__restrict`, so the inlined
/// body's loops vectorize without runtime alias checks (the body's own
/// `__restrict` does not survive inlining).
template <typename T>
struct VariantParam {
  using type = T;
};
template <typename T>
struct VariantParam<T*> {
  using type = T* __restrict;
};

/// The two compiled variants of `Body`, an always-inline function: each
/// member inlines it, so its loops are vectorized for that member's target.
/// Every pointer Body takes must not alias a pointer it writes through.
template <auto Body>
struct Variants;

template <typename... P, void (*Body)(P...)>
struct Variants<Body> {
  [[gnu::noinline]] static void baseline(typename VariantParam<P>::type... p) { Body(p...); }
  [[gnu::noinline]] MS_KERN_TARGET_AVX2 static void avx2(typename VariantParam<P>::type... p) {
    Body(p...);
  }
  [[nodiscard]] static constexpr auto pick(Isa isa) noexcept {
    return isa == Isa::Avx2 ? &avx2 : &baseline;
  }
};

/// The Avx2 variant of `Wide` or the baseline variant of `Base`, by `isa`:
/// for a body whose lane count is a template parameter, the baseline
/// variant runs its SSE2-width instance and the AVX2 variant the wider one.
/// Both instances take the same parameters.
template <auto Base, auto Wide>
[[nodiscard]] constexpr auto pick_lanes(Isa isa) noexcept {
  return isa == Isa::Avx2 ? &Variants<Wide>::avx2 : &Variants<Base>::baseline;
}

// The dispatched kernels with their variant named (the public kernel of the
// same name passes host_isa()).
void srad_coeff(Isa isa, const float* j, float* c, float* dn, float* ds, float* dw, float* de,
                std::size_t rows, std::size_t cols, std::size_t row_begin, std::size_t row_end,
                std::size_t col_begin, std::size_t col_end, double q0sqr);
void srad_update(Isa isa, float* j, const float* c, const float* dn, const float* ds,
                 const float* dw, const float* de, std::size_t rows, std::size_t cols,
                 std::size_t row_begin, std::size_t row_end, std::size_t col_begin,
                 std::size_t col_end, double lambda);
void hotspot_step(Isa isa, const double* t_in, const double* power, double* t_out,
                  std::size_t rows, std::size_t cols, std::size_t row_begin, std::size_t row_end,
                  std::size_t col_begin, std::size_t col_end, const HotspotParams& p);
void kmeans_assign(Isa isa, const float* points, const float* centroids,
                   std::int32_t* membership, std::size_t n, std::size_t dims, std::size_t k);
void gemm_nt_acc(Isa isa, const double* a, const double* b, double* c, std::size_t m,
                 std::size_t n, std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc);
void gemm_nt_tile(Isa isa, const double* a, const double* b, double* c, std::size_t m,
                  std::size_t n, std::size_t k, std::size_t lda, std::size_t ldb,
                  std::size_t ldc);
void syrk_tile(Isa isa, const double* a, double* c, std::size_t n, std::size_t k,
               std::size_t lda, std::size_t ldc);
void gemm_nn_sub(Isa isa, const double* a, const double* b, double* c, std::size_t m,
                 std::size_t n, std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc);

}  // namespace ms::kern::detail
