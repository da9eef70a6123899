#include "fft/fft.h"

#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "util/build_once_cache.h"
#include "util/logging.h"

namespace tfmae::fft {
namespace {

// Bit-reversal permutation for the iterative radix-2 transform.
void BitReverse(std::vector<Complex>* data) {
  const std::size_t n = data->size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap((*data)[i], (*data)[j]);
  }
}

// The per-length half of Bluestein's algorithm: the chirp and the spectrum
// of the convolution kernel b depend only on (n, direction), so they are
// built once and shared. Rebuilding them gives the same values bit for bit;
// the cache only skips the 2n libm calls and one of the three power-of-two
// transforms per call.
struct BluesteinTables {
  std::vector<Complex> chirp;     // w[t] = exp(sign * i * pi * t^2 / n)
  std::vector<Complex> b_spectrum;  // FFT of conj(chirp), wrapped to m
};

BluesteinTables MakeBluesteinTables(std::int64_t n, bool inverse) {
  const double sign = inverse ? 1.0 : -1.0;
  BluesteinTables tables;
  // t^2 is taken mod 2n to keep the argument small and the chirp exactly
  // periodic.
  tables.chirp.resize(static_cast<std::size_t>(n));
  for (std::int64_t t = 0; t < n; ++t) {
    const std::int64_t t2 = (t * t) % (2 * n);
    const double angle = sign * M_PI * static_cast<double>(t2) /
                         static_cast<double>(n);
    tables.chirp[static_cast<std::size_t>(t)] =
        Complex(std::cos(angle), std::sin(angle));
  }
  const std::int64_t m = NextPowerOfTwo(2 * n - 1);
  std::vector<Complex>& b = tables.b_spectrum;
  b.assign(static_cast<std::size_t>(m), Complex(0, 0));
  b[0] = std::conj(tables.chirp[0]);
  for (std::int64_t t = 1; t < n; ++t) {
    const Complex value = std::conj(tables.chirp[static_cast<std::size_t>(t)]);
    b[static_cast<std::size_t>(t)] = value;
    b[static_cast<std::size_t>(m - t)] = value;
  }
  FftPow2(&b, /*inverse=*/false);
  return tables;
}

// Bluestein's algorithm: expresses an arbitrary-length DFT as a convolution,
// evaluated with a power-of-two FFT.
std::vector<Complex> Bluestein(const std::vector<Complex>& input,
                               bool inverse) {
  const std::int64_t n = static_cast<std::int64_t>(input.size());
  static BuildOnceCache<std::pair<std::int64_t, bool>, BluesteinTables> cache;
  const BluesteinTables& tables =
      cache.Get({n, inverse}, [&] { return MakeBluesteinTables(n, inverse); });
  const std::vector<Complex>& chirp = tables.chirp;
  const std::vector<Complex>& b = tables.b_spectrum;

  const std::int64_t m = static_cast<std::int64_t>(b.size());
  std::vector<Complex> a(static_cast<std::size_t>(m), Complex(0, 0));
  for (std::int64_t t = 0; t < n; ++t) {
    a[static_cast<std::size_t>(t)] = BluesteinProduct(
        input[static_cast<std::size_t>(t)], chirp[static_cast<std::size_t>(t)]);
  }

  FftPow2(&a, /*inverse=*/false);
  for (std::int64_t i = 0; i < m; ++i) {
    a[static_cast<std::size_t>(i)] = BluesteinProduct(
        a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)]);
  }
  FftPow2(&a, /*inverse=*/true);

  std::vector<Complex> output(static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) {
    output[static_cast<std::size_t>(k)] = BluesteinProduct(
        a[static_cast<std::size_t>(k)], chirp[static_cast<std::size_t>(k)]);
  }
  return output;
}

}  // namespace

// The rounding follows what GCC has always emitted for a std::complex
// product here: with FMA in the target ISA its SLP vectorizer turns the
// product into vfmaddsub even under -ffp-contract=off, which fuses the
// product holding y.real() into its sum and rounds the other first; without
// FMA both round before the sum. Which operand the vectorizer treats as y
// depends on how the surrounding loop compiles, so Bluestein's products are
// spelled out and keep their bits when that code changes.
Complex BluesteinProduct(const Complex& x, const Complex& y) {
#ifdef __FMA__
  return Complex(std::fma(y.real(), x.real(), -(x.imag() * y.imag())),
                 std::fma(y.real(), x.imag(), x.real() * y.imag()));
#else
  return Complex(x.real() * y.real() - x.imag() * y.imag(),
                 x.real() * y.imag() + x.imag() * y.real());
#endif
}

bool IsPowerOfTwo(std::int64_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::int64_t NextPowerOfTwo(std::int64_t n) {
  std::int64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void FftPow2(std::vector<Complex>* data, bool inverse) {
  const std::size_t n = data->size();
  TFMAE_CHECK_MSG(IsPowerOfTwo(static_cast<std::int64_t>(n)),
                  "FftPow2 requires a power-of-two length, got " << n);
  if (n == 1) return;
  BitReverse(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex u = (*data)[i + j];
        const Complex v = (*data)[i + j + len / 2] * w;
        (*data)[i + j] = u + v;
        (*data)[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& value : *data) value *= inv_n;
  }
}

std::vector<Complex> Fft(const std::vector<Complex>& input) {
  TFMAE_CHECK(!input.empty());
  TFMAE_TRACE("fft.fft");
  TFMAE_COUNTER_ADD("fft.fft.points", input.size());
  if (IsPowerOfTwo(static_cast<std::int64_t>(input.size()))) {
    std::vector<Complex> data = input;
    FftPow2(&data, /*inverse=*/false);
    return data;
  }
  return Bluestein(input, /*inverse=*/false);
}

std::vector<Complex> Ifft(const std::vector<Complex>& input) {
  TFMAE_CHECK(!input.empty());
  TFMAE_TRACE("fft.ifft");
  TFMAE_COUNTER_ADD("fft.ifft.points", input.size());
  const double inv_n = 1.0 / static_cast<double>(input.size());
  if (IsPowerOfTwo(static_cast<std::int64_t>(input.size()))) {
    std::vector<Complex> data = input;
    FftPow2(&data, /*inverse=*/true);
    return data;
  }
  std::vector<Complex> out = Bluestein(input, /*inverse=*/true);
  for (auto& value : out) value *= inv_n;
  return out;
}

std::vector<Complex> RealFft(const std::vector<double>& input) {
  std::vector<Complex> data(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) data[i] = Complex(input[i], 0);
  return Fft(data);
}

std::vector<double> RealIfft(const std::vector<Complex>& spectrum) {
  std::vector<Complex> inv = Ifft(spectrum);
  std::vector<double> out(inv.size());
  for (std::size_t i = 0; i < inv.size(); ++i) out[i] = inv[i].real();
  return out;
}

std::vector<Complex> NaiveDft(const std::vector<Complex>& input,
                              bool inverse) {
  const std::int64_t n = static_cast<std::int64_t>(input.size());
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> output(static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) {
    Complex acc(0, 0);
    for (std::int64_t t = 0; t < n; ++t) {
      const double angle = sign * 2.0 * M_PI * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      acc += input[static_cast<std::size_t>(t)] *
             Complex(std::cos(angle), std::sin(angle));
    }
    if (inverse) acc /= static_cast<double>(n);
    output[static_cast<std::size_t>(k)] = acc;
  }
  return output;
}

std::vector<double> Amplitude(const std::vector<Complex>& spectrum) {
  std::vector<double> amp(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) amp[i] = std::abs(spectrum[i]);
  return amp;
}

}  // namespace tfmae::fft
