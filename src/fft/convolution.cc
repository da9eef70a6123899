#include "fft/convolution.h"

#include <algorithm>
#include <utility>

#include "fft/fft.h"
#include "util/build_once_cache.h"
#include "util/logging.h"

namespace tfmae::fft {

namespace {

// Zero-padded forward transform of a real signal.
std::vector<Complex> PaddedSpectrum(const std::vector<double>& x,
                                    std::int64_t padded) {
  std::vector<Complex> f(static_cast<std::size_t>(padded), Complex(0, 0));
  for (std::size_t i = 0; i < x.size(); ++i) f[i] = Complex(x[i], 0);
  FftPow2(&f, /*inverse=*/false);
  return f;
}

// First `out_len` samples of IFFT(FFT(a) * fb), fb being the padded
// spectrum of the second operand.
std::vector<double> ConvolveWithSpectrum(const std::vector<double>& a,
                                         const std::vector<Complex>& fb,
                                         std::int64_t out_len) {
  std::vector<Complex> fa =
      PaddedSpectrum(a, static_cast<std::int64_t>(fb.size()));
  for (std::size_t i = 0; i < fa.size(); ++i) fa[i] *= fb[i];
  FftPow2(&fa, /*inverse=*/true);
  std::vector<double> out(static_cast<std::size_t>(out_len));
  for (std::int64_t i = 0; i < out_len; ++i) {
    out[static_cast<std::size_t>(i)] = fa[static_cast<std::size_t>(i)].real();
  }
  return out;
}

}  // namespace

std::vector<double> FftConvolve(const std::vector<double>& a,
                                const std::vector<double>& b) {
  TFMAE_CHECK(!a.empty() && !b.empty());
  const std::int64_t out_len =
      static_cast<std::int64_t>(a.size() + b.size()) - 1;
  return ConvolveWithSpectrum(a, PaddedSpectrum(b, NextPowerOfTwo(out_len)),
                              out_len);
}

std::vector<double> NaiveConvolve(const std::vector<double>& a,
                                  const std::vector<double>& b) {
  TFMAE_CHECK(!a.empty() && !b.empty());
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

std::vector<double> MovingSumFft(const std::vector<double>& x,
                                 std::int64_t w) {
  TFMAE_CHECK(w >= 1);
  if (x.empty()) return {};
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  const std::int64_t ones_len = std::min(w, n);
  // conv(x, ones)[t] = sum_{j} x[t - j] * 1 for j in [0, w), which is exactly
  // the trailing-window sum once truncated to the first |x| outputs. The
  // ones kernel's spectrum depends only on (its length, the padded length),
  // so it is built once per pair — the same values FftConvolve computes.
  const std::int64_t padded = NextPowerOfTwo(n + ones_len - 1);
  static BuildOnceCache<std::pair<std::int64_t, std::int64_t>,
                        std::vector<Complex>>
      cache;
  const std::vector<Complex>& ones_spectrum =
      cache.Get({ones_len, padded}, [&] {
        return PaddedSpectrum(
            std::vector<double>(static_cast<std::size_t>(ones_len), 1.0),
            padded);
      });
  return ConvolveWithSpectrum(x, ones_spectrum, n);
}

std::vector<double> MovingSumNaive(const std::vector<double>& x,
                                   std::int64_t w) {
  TFMAE_CHECK(w >= 1);
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  std::vector<double> out(x.size(), 0.0);
  for (std::int64_t t = 0; t < n; ++t) {
    const std::int64_t lo = std::max<std::int64_t>(0, t - w + 1);
    double acc = 0.0;
    for (std::int64_t k = lo; k <= t; ++k) {
      acc += x[static_cast<std::size_t>(k)];
    }
    out[static_cast<std::size_t>(t)] = acc;
  }
  return out;
}

}  // namespace tfmae::fft
