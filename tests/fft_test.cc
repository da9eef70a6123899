// Tests for the FFT library: agreement with the reference DFT, inverse
// round-trips across lengths (including non-powers-of-two via Bluestein),
// convolution, and the moving-sum primitives behind Eq. (5).
#include "fft/fft.h"

#include <cmath>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "fft/convolution.h"
#include "util/rng.h"

namespace tfmae::fft {
namespace {

std::vector<Complex> RandomSignal(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> signal(static_cast<std::size_t>(n));
  for (auto& value : signal) {
    value = Complex(rng.Normal(), rng.Normal());
  }
  return signal;
}

TEST(FftTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(100));
  EXPECT_EQ(NextPowerOfTwo(1), 1);
  EXPECT_EQ(NextPowerOfTwo(3), 4);
  EXPECT_EQ(NextPowerOfTwo(100), 128);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024);
}

TEST(FftTest, MatchesNaiveDftSmall) {
  const std::vector<Complex> signal = RandomSignal(8, 1);
  const std::vector<Complex> fast = Fft(signal);
  const std::vector<Complex> slow = NaiveDft(signal);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i].real(), slow[i].real(), 1e-9);
    EXPECT_NEAR(fast[i].imag(), slow[i].imag(), 1e-9);
  }
}

TEST(FftTest, KnownSpectrumOfImpulse) {
  // DFT of a unit impulse at t=0 is all-ones.
  std::vector<Complex> impulse(16, Complex(0, 0));
  impulse[0] = Complex(1, 0);
  const std::vector<Complex> spectrum = Fft(impulse);
  for (const Complex& bin : spectrum) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, KnownSpectrumOfCosine) {
  // cos(2*pi*k0*t/n) has amplitude n/2 at bins k0 and n-k0.
  const std::int64_t n = 32;
  const std::int64_t k0 = 5;
  std::vector<Complex> signal(static_cast<std::size_t>(n));
  for (std::int64_t t = 0; t < n; ++t) {
    signal[static_cast<std::size_t>(t)] =
        Complex(std::cos(2.0 * M_PI * k0 * t / static_cast<double>(n)), 0);
  }
  const std::vector<double> amplitude = Amplitude(Fft(signal));
  for (std::int64_t k = 0; k < n; ++k) {
    if (k == k0 || k == n - k0) {
      EXPECT_NEAR(amplitude[static_cast<std::size_t>(k)], n / 2.0, 1e-9);
    } else {
      EXPECT_NEAR(amplitude[static_cast<std::size_t>(k)], 0.0, 1e-9);
    }
  }
}

// Round-trip across many lengths, exercising both radix-2 and Bluestein.
class FftRoundTripTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(FftRoundTripTest, IfftInvertsFft) {
  const std::int64_t n = GetParam();
  const std::vector<Complex> signal = RandomSignal(n, 1000 + n);
  const std::vector<Complex> recovered = Ifft(Fft(signal));
  ASSERT_EQ(recovered.size(), signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(recovered[i].real(), signal[i].real(), 1e-8) << "n=" << n;
    EXPECT_NEAR(recovered[i].imag(), signal[i].imag(), 1e-8) << "n=" << n;
  }
}

TEST_P(FftRoundTripTest, MatchesNaiveDft) {
  const std::int64_t n = GetParam();
  if (n > 256) GTEST_SKIP() << "naive DFT too slow";
  const std::vector<Complex> signal = RandomSignal(n, 2000 + n);
  const std::vector<Complex> fast = Fft(signal);
  const std::vector<Complex> slow = NaiveDft(signal);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(std::abs(fast[i] - slow[i]), 0.0, 1e-7) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftRoundTripTest,
                         ::testing::Values(1, 2, 3, 5, 7, 16, 50, 100, 127,
                                           128, 255, 256, 1000, 1024));

TEST(FftTest, RealFftRoundTrip) {
  Rng rng(7);
  std::vector<double> signal(100);
  for (double& v : signal) v = rng.Normal();
  const std::vector<double> recovered = RealIfft(RealFft(signal));
  ASSERT_EQ(recovered.size(), signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(recovered[i], signal[i], 1e-8);
  }
}

TEST(FftTest, RealSpectrumIsConjugateSymmetric) {
  Rng rng(8);
  std::vector<double> signal(64);
  for (double& v : signal) v = rng.Normal();
  const std::vector<Complex> spectrum = RealFft(signal);
  for (std::size_t k = 1; k < signal.size(); ++k) {
    const Complex conj = std::conj(spectrum[signal.size() - k]);
    EXPECT_NEAR(spectrum[k].real(), conj.real(), 1e-8);
    EXPECT_NEAR(spectrum[k].imag(), conj.imag(), 1e-8);
  }
}

TEST(ConvolutionTest, FftMatchesNaive) {
  Rng rng(9);
  std::vector<double> a(37);
  std::vector<double> b(12);
  for (double& v : a) v = rng.Normal();
  for (double& v : b) v = rng.Normal();
  const std::vector<double> fast = FftConvolve(a, b);
  const std::vector<double> slow = NaiveConvolve(a, b);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-8);
  }
}

class MovingSumTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(MovingSumTest, FftMatchesNaive) {
  const auto [n, w] = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(n * 31 + w));
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.Normal();
  const std::vector<double> fast = fft::MovingSumFft(x, w);
  const std::vector<double> slow = fft::MovingSumNaive(x, w);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-7) << "n=" << n << " w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MovingSumTest,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 5, 50, 100, 333),
                       ::testing::Values<std::int64_t>(1, 3, 10, 25)));

TEST(MovingSumTest, KnownValues) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> sums = MovingSumNaive(x, 3);
  // Truncated prefix windows at the head.
  EXPECT_NEAR(sums[0], 1.0, 1e-12);
  EXPECT_NEAR(sums[1], 3.0, 1e-12);
  EXPECT_NEAR(sums[2], 6.0, 1e-12);
  EXPECT_NEAR(sums[3], 9.0, 1e-12);
  EXPECT_NEAR(sums[4], 12.0, 1e-12);
}

// BluesteinProduct's rounding pinned to fixed values. These operands tell
// apart all three ways a compiler may round x * y: both products rounded
// before the sum, the y.real() products fused (what GCC emits on FMA
// targets, and what the transform's output has always carried there), and
// the x.real() products fused.
TEST(FftTest, BluesteinProductRoundingMatchesRecordedBits) {
  const Complex x(0x1.00000004p+0, 0x1.0000000800001p+0);
  const Complex y(0x1.0000001000002p+0, 0x1.fffffffcp-1);
  const Complex product = BluesteinProduct(x, y);
#ifdef __FMA__
  EXPECT_EQ(product.real(), 0x1.c000020800001p-29);
  EXPECT_EQ(product.imag(), 0x1.0000000d00002p+1);
#else
  EXPECT_EQ(product.real(), 0x1.c00002p-29);
  EXPECT_EQ(product.imag(), 0x1.0000000d00002p+1);
#endif
}

// Bluestein's transform with its chirp and kernel spectrum rebuilt on every
// call, as the library computed it before caching them per length.
std::vector<Complex> UncachedBluestein(const std::vector<Complex>& input,
                                       bool inverse) {
  const std::int64_t n = static_cast<std::int64_t>(input.size());
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> chirp(static_cast<std::size_t>(n));
  for (std::int64_t t = 0; t < n; ++t) {
    const std::int64_t t2 = (t * t) % (2 * n);
    const double angle = sign * M_PI * static_cast<double>(t2) /
                         static_cast<double>(n);
    chirp[static_cast<std::size_t>(t)] = Complex(std::cos(angle),
                                                 std::sin(angle));
  }
  const std::int64_t m = NextPowerOfTwo(2 * n - 1);
  std::vector<Complex> a(static_cast<std::size_t>(m), Complex(0, 0));
  std::vector<Complex> b(static_cast<std::size_t>(m), Complex(0, 0));
  for (std::int64_t t = 0; t < n; ++t) {
    a[static_cast<std::size_t>(t)] = BluesteinProduct(
        input[static_cast<std::size_t>(t)], chirp[static_cast<std::size_t>(t)]);
  }
  b[0] = std::conj(chirp[0]);
  for (std::int64_t t = 1; t < n; ++t) {
    const Complex value = std::conj(chirp[static_cast<std::size_t>(t)]);
    b[static_cast<std::size_t>(t)] = value;
    b[static_cast<std::size_t>(m - t)] = value;
  }
  FftPow2(&a, /*inverse=*/false);
  FftPow2(&b, /*inverse=*/false);
  for (std::int64_t i = 0; i < m; ++i) {
    a[static_cast<std::size_t>(i)] = BluesteinProduct(
        a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)]);
  }
  FftPow2(&a, /*inverse=*/true);
  std::vector<Complex> output(static_cast<std::size_t>(n));
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::int64_t k = 0; k < n; ++k) {
    output[static_cast<std::size_t>(k)] = BluesteinProduct(
        a[static_cast<std::size_t>(k)], chirp[static_cast<std::size_t>(k)]);
    if (inverse) output[static_cast<std::size_t>(k)] *= inv_n;
  }
  return output;
}

bool BitwiseEqual(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The per-length Bluestein tables and the moving sum's ones-kernel spectrum
// are cached; the cached transforms must equal fresh computations bit for
// bit, including when four threads build and read the caches at once.
TEST(FftCacheTest, CachedTransformsBitwiseEqualUncached) {
  const std::vector<std::int64_t> lengths = {3, 7, 50, 100, 333};
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int th = 0; th < 4; ++th) {
    threads.emplace_back([&, th] {
      int& bad = mismatches[static_cast<std::size_t>(th)];
      for (int rep = 0; rep < 3; ++rep) {
        for (const std::int64_t n : lengths) {
          const std::vector<Complex> x =
              RandomSignal(n, static_cast<std::uint64_t>(n + 13 * th + rep));
          if (!BitwiseEqual(Fft(x), UncachedBluestein(x, false))) ++bad;
          if (!BitwiseEqual(Ifft(x), UncachedBluestein(x, true))) ++bad;
          std::vector<double> real(static_cast<std::size_t>(n));
          for (std::size_t i = 0; i < real.size(); ++i) real[i] = x[i].real();
          for (const std::int64_t w : {1, 5, 25, 400}) {
            std::vector<double> expect = FftConvolve(
                real, std::vector<double>(
                          static_cast<std::size_t>(std::min(w, n)), 1.0));
            expect.resize(real.size());
            if (!BitwiseEqual(MovingSumFft(real, w), expect)) ++bad;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int th = 0; th < 4; ++th) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(th)], 0) << "thread " << th;
  }
}

}  // namespace
}  // namespace tfmae::fft
