#include "apps/app_common.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

namespace ms::apps {
namespace {

TEST(AppCommon, FillUniformIsSeededAndBounded) {
  std::vector<float> a(1000), b(1000);
  fill_uniform(std::span<float>(a), 42, -2.0f, 3.0f);
  fill_uniform(std::span<float>(b), 42, -2.0f, 3.0f);
  EXPECT_EQ(a, b);  // same seed, same values
  for (const float x : a) {
    EXPECT_GE(x, -2.0f);
    EXPECT_LT(x, 3.0f);
  }
  std::vector<float> c(1000);
  fill_uniform(std::span<float>(c), 43, -2.0f, 3.0f);
  EXPECT_NE(a, c);  // different seed, different values
}

TEST(AppCommon, FillUniformDoubleVariant) {
  std::vector<double> a(100);
  fill_uniform(std::span<double>(a), 7, 10.0, 20.0);
  for (const double x : a) {
    EXPECT_GE(x, 10.0);
    EXPECT_LT(x, 20.0);
  }
}

TEST(AppCommon, FillSpdProducesSymmetricDominantMatrix) {
  const std::size_t n = 24;
  std::vector<double> m(n * n);
  fill_spd(std::span<double>(m), n, 5);
  for (std::size_t i = 0; i < n; ++i) {
    double off_diag = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(m[i * n + j], m[j * n + i]);
      if (i != j) off_diag += std::abs(m[i * n + j]);
    }
    // Diagonal dominance implies positive definiteness for symmetric m.
    EXPECT_GT(m[i * n + i], off_diag);
  }
}

#ifdef __GLIBCXX__
// fill_uniform generates 624 words per block: 624 floats or 312 doubles.
// These lengths cover empty, a single value, both sides of a block edge
// (the first for floats, the second for doubles) and many blocks.
constexpr std::size_t kFillLengths[] = {0, 1, 623, 624, 625, 1249, 100000};

// The apps' inputs (and so every functional checksum in the golden tables)
// were drawn with std::mt19937 + std::uniform_real_distribution; the block
// generator must reproduce them bit for bit, at every seed and range the apps
// use.
template <typename T>
std::vector<T> libstdcxx_uniform(std::size_t n, std::uint32_t seed, T lo, T hi) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<T> dist(lo, hi);
  std::vector<T> v(n);
  for (T& x : v) x = dist(rng);
  return v;
}

template <typename T>
void expect_same_bits(const std::vector<T>& got, const std::vector<T>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(T)), 0)
        << "value " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(FillUniform, MatchesLibstdcxxSequence) {
  const struct {
    std::uint32_t seed;
    float lo, hi;
  } floats[] = {{77, 10.0f, 200.0f}, {11, 0.0f, 10.0f}, {7, 0.0f, 180.0f}, {42, -2.0f, 3.0f}};
  const struct {
    std::uint32_t seed;
    double lo, hi;
  } doubles[] = {{31, 70.0, 90.0}, {32, 0.0, 0.5},   {101, -1.0, 1.0}, {202, -1.0, 1.0},
                 {909, 0.0, 1.0},  {1313, 0.0, 1.0}, {3, -1.0, 1.0}};
  for (const std::size_t n : kFillLengths) {
    for (const auto& c : floats) {
      SCOPED_TRACE(::testing::Message() << "float seed " << c.seed << " n " << n);
      std::vector<float> got(n);
      fill_uniform(std::span<float>(got), c.seed, c.lo, c.hi);
      expect_same_bits(got, libstdcxx_uniform(n, c.seed, c.lo, c.hi));
    }
    for (const auto& c : doubles) {
      SCOPED_TRACE(::testing::Message() << "double seed " << c.seed << " n " << n);
      std::vector<double> got(n);
      fill_uniform(std::span<double>(got), c.seed, c.lo, c.hi);
      expect_same_bits(got, libstdcxx_uniform(n, c.seed, c.lo, c.hi));
    }
  }
}

TEST(FillUniform, FillSpdMatchesLibstdcxxSequence) {
  // CfApp and LuApp draw their matrices with these seeds.
  constexpr std::size_t n = 128;
  for (const std::uint32_t seed : {909u, 1313u}) {
    std::vector<double> want = libstdcxx_uniform(n * n, seed, 0.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        const double avg = 0.5 * (want[i * n + j] + want[j * n + i]);
        want[i * n + j] = avg;
        want[j * n + i] = avg;
      }
      want[i * n + i] += static_cast<double>(n);
    }
    std::vector<double> got(n * n);
    fill_spd(std::span<double>(got), n, seed);
    expect_same_bits(got, want);
  }
}
#endif

// Values taken from libstdc++'s std::mt19937 + uniform_real_distribution, so
// a build on another standard library still checks the sequence, including
// the first value of the second 624-word block.
TEST(FillUniform, PinnedValues) {
  std::vector<float> f(626);
  fill_uniform(std::span<float>(f), 77, 10.0f, 200.0f);  // SradApp's image
  EXPECT_EQ(f[0], 0x1.7142eep+7f);
  EXPECT_EQ(f[623], 0x1.1e45fap+7f);
  EXPECT_EQ(f[624], 0x1.3e4142p+5f);
  EXPECT_EQ(f[625], 0x1.631e7ap+6f);
  std::vector<double> d(626);
  fill_uniform(std::span<double>(d), 101, -1.0, 1.0);  // MmApp's A
  EXPECT_EQ(d[0], 0x1.ae68c1708656p-4);
  EXPECT_EQ(d[311], -0x1.2b84f89d4238cp-1);
  EXPECT_EQ(d[312], 0x1.daa2e4e3482bcp-1);
  EXPECT_EQ(d[624], 0x1.53ddc9c77dcdcp-1);
  EXPECT_EQ(d[625], -0x1.d795985007908p-1);
}

TEST(AppCommon, ChecksumSumsSpans) {
  const std::vector<float> v{1.0f, 2.0f, 3.5f};
  EXPECT_DOUBLE_EQ(checksum(std::span<const float>(v)), 6.5);
  const std::vector<double> d{-1.0, 1.0};
  EXPECT_DOUBLE_EQ(checksum(std::span<const double>(d)), 0.0);
  EXPECT_DOUBLE_EQ(checksum(std::span<const double>{}), 0.0);
}

TEST(AppCommon, MeasureMsDropsTheWarmupIteration) {
  rt::Context ctx(sim::SimConfig::phi_31sp());
  int calls = 0;
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  // First iteration does 4x the work; the protocol must not let it skew the
  // mean.
  const double ms = measure_ms(ctx, 3, [&](int i) {
    ++calls;
    w.elems = i == 0 ? 4e8 : 1e8;
    ctx.stream(0).enqueue_kernel({"k", w, {}});
  });
  EXPECT_EQ(calls, 3);
  // The mean of the two non-warm-up iterations: ~1e8-element kernels.
  rt::Context probe(sim::SimConfig::phi_31sp());
  const double one = measure_ms(probe, 1, [&](int) {
    w.elems = 1e8;
    probe.stream(0).enqueue_kernel({"k", w, {}});
  });
  EXPECT_NEAR(ms, one, 0.1);
}

TEST(AppCommon, MeasureMsSingleIterationUsesIt) {
  rt::Context ctx(sim::SimConfig::phi_31sp());
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = 1e8;
  const double ms = measure_ms(ctx, 1, [&](int) { ctx.stream(0).enqueue_kernel({"k", w, {}}); });
  EXPECT_GT(ms, 1.0);
}

TEST(AppCommon, DefaultConfigMatchesPaperProtocolShape) {
  const CommonConfig c;
  EXPECT_TRUE(c.streamed);
  EXPECT_TRUE(c.functional);
  EXPECT_EQ(c.partitions, 4);
  EXPECT_GE(c.protocol_iterations, 2);  // warm-up + measured
}

}  // namespace
}  // namespace ms::apps
