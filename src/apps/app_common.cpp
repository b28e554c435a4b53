#include "apps/app_common.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

namespace ms::apps {

namespace {

/// std::mt19937 producing 624 outputs at a time. The whole state is twisted
/// in one pass (the recurrence of libstdc++'s `_M_gen_rand`) and then
/// tempered in a second, both loops the compiler can vectorize, instead of
/// one branchy state step per call. The output sequence is std::mt19937's.
class BlockMt19937 {
public:
  static constexpr std::size_t kWords = 624;
  using Block = std::array<std::uint32_t, kWords>;

  explicit BlockMt19937(std::uint32_t seed) noexcept {
    state_[0] = seed;
    for (std::uint32_t i = 1; i < kWords; ++i) {
      state_[i] = 1812433253u * (state_[i - 1] ^ (state_[i - 1] >> 30)) + i;
    }
  }

  /// The next 624 outputs, in order.
  void next(Block& out) noexcept {
    constexpr std::size_t kShift = 397;
    std::size_t k = 0;
    for (; k < kWords - kShift; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
    }
    for (; k < kWords - 1; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift - kWords]);
    }
    state_[kWords - 1] = twist(state_[kWords - 1], state_[0], state_[kShift - 1]);
    for (k = 0; k < kWords; ++k) {
      std::uint32_t z = state_[k];
      z ^= z >> 11;
      z ^= (z << 7) & 0x9d2c5680u;
      z ^= (z << 15) & 0xefc60000u;
      out[k] = z ^ (z >> 18);
    }
  }

private:
  /// One word of the recurrence: the top bit of `upper`, the low 31 bits of
  /// `lower`, and the word 397 places on.
  static std::uint32_t twist(std::uint32_t upper, std::uint32_t lower, std::uint32_t far) noexcept {
    const std::uint32_t y = (upper & 0x80000000u) | (lower & 0x7fffffffu);
    return far ^ (y >> 1) ^ (0x9908b0dfu & (0u - (y & 1u)));
  }

  Block state_;
};

// Each value is libstdc++'s uniform_real_distribution<T> over std::mt19937,
// operation for operation: generate_canonical<T, digits> takes one word for a
// float and two for a double (low word first), sums them in T, divides by
// 2^32 or 2^64, clamps a result that rounded up to 1 to the largest T below
// 1, and the distribution returns `r * (hi - lo) + lo` in T. The file builds
// with -ffp-contract=off, so that last step rounds twice on every target.

/// generate_canonical's quotient for the word(s) at `w`, before its clamp.
template <typename T>
T canonical(const std::uint32_t* w) noexcept {
  if constexpr (std::is_same_v<T, float>) {
    return static_cast<float>(w[0]) * 0x1p-32f;
  } else {
    return (static_cast<double>(w[0]) + static_cast<double>(w[1]) * 0x1p32) * 0x1p-64;
  }
}

template <typename T>
void fill_uniform_impl(std::span<T> out, std::uint32_t seed, T lo, T hi) {
  constexpr std::size_t kWordsPerValue = sizeof(T) / sizeof(std::uint32_t);
  constexpr std::size_t kValuesPerBlock = BlockMt19937::kWords / kWordsPerValue;
  const T below_one = std::nextafter(T(1), T(0));
  const T range = hi - lo;
  BlockMt19937 rng(seed);
  BlockMt19937::Block words{};
  for (std::size_t base = 0; base < out.size(); base += kValuesPerBlock) {
    rng.next(words);
    const std::size_t n = std::min(kValuesPerBlock, out.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      out[base + i] = std::min(canonical<T>(&words[i * kWordsPerValue]), below_one) * range + lo;
    }
  }
}

}  // namespace

void fill_uniform(std::span<float> out, std::uint32_t seed, float lo, float hi) {
  fill_uniform_impl(out, seed, lo, hi);
}

void fill_uniform(std::span<double> out, std::uint32_t seed, double lo, double hi) {
  fill_uniform_impl(out, seed, lo, hi);
}

void fill_spd(std::span<double> matrix, std::size_t n, std::uint32_t seed) {
  fill_uniform(matrix, seed, 0.0, 1.0);
  // Symmetrize and dominate the diagonal: A := (R + R^T)/2 + n*I is SPD.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double avg = 0.5 * (matrix[i * n + j] + matrix[j * n + i]);
      matrix[i * n + j] = avg;
      matrix[j * n + i] = avg;
    }
    matrix[i * n + i] += static_cast<double>(n);
  }
}

double checksum(std::span<const float> v) noexcept {
  double s = 0.0;
  for (const float x : v) s += x;
  return s;
}

double checksum(std::span<const double> v) noexcept {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace ms::apps
