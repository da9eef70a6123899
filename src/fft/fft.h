// Fast Fourier Transform library.
//
// TFMAE uses the FFT in two places:
//  1. Amplitude-based frequency masking (paper Eq. (6)-(10)): the input
//     series is transformed with the DFT, low-amplitude bins are replaced by
//     a learnable value, and the series is transformed back.
//  2. FFT-accelerated sliding-window statistics (paper Eq. (5)): the
//     coefficient-of-variation computation is a correlation with a ones
//     kernel, evaluated via the Wiener-Khinchin theorem.
//
// The implementation is an iterative radix-2 Cooley-Tukey transform for
// power-of-two lengths plus Bluestein's chirp-z algorithm for arbitrary
// lengths, so window sizes need not be powers of two (the paper uses
// |S| = 100).
#ifndef TFMAE_FFT_FFT_H_
#define TFMAE_FFT_FFT_H_

#include <complex>
#include <cstdint>
#include <vector>

namespace tfmae::fft {

using Complex = std::complex<double>;

/// True iff n is a power of two (n >= 1).
bool IsPowerOfTwo(std::int64_t n);

/// Smallest power of two >= n.
std::int64_t NextPowerOfTwo(std::int64_t n);

/// In-place forward FFT. data.size() must be a power of two.
void FftPow2(std::vector<Complex>* data, bool inverse);

/// Forward DFT of arbitrary length (radix-2 when possible, Bluestein
/// otherwise). Returns X[k] = sum_t x[t] * exp(-2*pi*i*k*t/n).
std::vector<Complex> Fft(const std::vector<Complex>& input);

/// Inverse DFT, normalized by 1/n: x[t] = (1/n) sum_k X[k] exp(+2*pi*i*k*t/n).
std::vector<Complex> Ifft(const std::vector<Complex>& input);

/// Forward DFT of a real signal; returns all n complex bins.
std::vector<Complex> RealFft(const std::vector<double>& input);

/// Inverse DFT of a spectrum assumed to come from a real signal; returns the
/// real part of the inverse transform (imaginary residue is discarded).
std::vector<double> RealIfft(const std::vector<Complex>& spectrum);

/// x * y as Bluestein's transform and FftConvolve's spectrum product round
/// it (exposed for tests): on FMA targets the y.real() products are fused
/// into their sums, elsewhere every product rounds before the sum. FftPow2's
/// products round before the sum on every target.
Complex BluesteinProduct(const Complex& x, const Complex& y);

/// Reference O(n^2) DFT, used by tests and by the "w/o FFT" efficiency
/// ablation (Fig. 10) to quantify the FFT speed-up.
std::vector<Complex> NaiveDft(const std::vector<Complex>& input,
                              bool inverse = false);

/// Per-bin amplitude |X[k]| of a spectrum (paper Eq. (7)).
std::vector<double> Amplitude(const std::vector<Complex>& spectrum);

}  // namespace tfmae::fft

#endif  // TFMAE_FFT_FFT_H_
