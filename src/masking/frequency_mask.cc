#include "masking/frequency_mask.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "fft/fft.h"
#include "obs/trace.h"
#include "util/build_once_cache.h"
#include "util/logging.h"

namespace tfmae::masking {
namespace {

// The float terms cos(angle)/length and sin(angle)/length of one bin's
// inverse-DFT basis function, angle = 2*pi*bin*t/length.
void FillTerms(std::int64_t bin, std::int64_t length, float* cos_out,
               float* sin_out) {
  const double inv_len = 1.0 / static_cast<double>(length);
  for (std::int64_t t = 0; t < length; ++t) {
    const double angle = 2.0 * M_PI * static_cast<double>(bin) *
                         static_cast<double>(t) * inv_len;
    cos_out[t] = static_cast<float>(std::cos(angle) * inv_len);
    sin_out[t] = static_cast<float>(std::sin(angle) * inv_len);
  }
}

// Every bin's terms for one window length, row-major [bin, t]: 8 * length^2
// bytes (80 KB at length 100), built once per length and shared read-only.
struct SpectralTerms {
  std::vector<float> cos;
  std::vector<float> sin;
};

SpectralTerms AllTerms(std::int64_t length) {
  SpectralTerms terms;
  terms.cos.resize(static_cast<std::size_t>(length * length));
  terms.sin.resize(static_cast<std::size_t>(length * length));
  for (std::int64_t bin = 0; bin < length; ++bin) {
    FillTerms(bin, length, terms.cos.data() + bin * length,
              terms.sin.data() + bin * length);
  }
  return terms;
}

// Longer columns (2 MB of table at this length) evaluate the masked bins'
// terms on every call instead of caching all of them.
constexpr std::int64_t kMaxCachedTermsLength = 512;

}  // namespace

FrequencyMaskedColumn MaskFrequencyColumn(const std::vector<float>& column,
                                          double ratio,
                                          FrequencyMaskVariant variant,
                                          Rng* rng) {
  TFMAE_TRACE("masking.frequency");
  TFMAE_CHECK_MSG(ratio >= 0.0 && ratio < 1.0,
                  "frequency mask ratio must be in [0, 1), got " << ratio);
  const std::int64_t length = static_cast<std::int64_t>(column.size());
  TFMAE_CHECK(length >= 1);

  std::vector<double> column_d(column.begin(), column.end());
  std::vector<fft::Complex> spectrum = fft::RealFft(column_d);

  const std::int64_t masked_count =
      variant == FrequencyMaskVariant::kNone
          ? 0
          : static_cast<std::int64_t>(ratio * static_cast<double>(length));

  std::vector<std::int64_t> masked;
  switch (variant) {
    case FrequencyMaskVariant::kNone:
      break;
    case FrequencyMaskVariant::kAmplitude: {
      // Eq. (8): TopIndex(-amplitude) == lowest-amplitude bins.
      const std::vector<double> amplitude = fft::Amplitude(spectrum);
      std::vector<std::int64_t> idx(static_cast<std::size_t>(length));
      std::iota(idx.begin(), idx.end(), 0);
      std::partial_sort(idx.begin(), idx.begin() + masked_count, idx.end(),
                        [&amplitude](std::int64_t a, std::int64_t b) {
                          const double va =
                              amplitude[static_cast<std::size_t>(a)];
                          const double vb =
                              amplitude[static_cast<std::size_t>(b)];
                          if (va != vb) return va < vb;
                          return a < b;
                        });
      idx.resize(static_cast<std::size_t>(masked_count));
      masked = std::move(idx);
      break;
    }
    case FrequencyMaskVariant::kHighFrequency: {
      // "High frequency" of full-spectrum bin i is min(i, length - i):
      // bins near the Nyquist rate are masked first.
      std::vector<std::int64_t> idx(static_cast<std::size_t>(length));
      std::iota(idx.begin(), idx.end(), 0);
      auto freq_of = [length](std::int64_t i) {
        return std::min<std::int64_t>(i, length - i);
      };
      std::partial_sort(idx.begin(), idx.begin() + masked_count, idx.end(),
                        [&freq_of](std::int64_t a, std::int64_t b) {
                          const std::int64_t fa = freq_of(a);
                          const std::int64_t fb = freq_of(b);
                          if (fa != fb) return fa > fb;
                          return a < b;
                        });
      idx.resize(static_cast<std::size_t>(masked_count));
      masked = std::move(idx);
      break;
    }
    case FrequencyMaskVariant::kRandom: {
      TFMAE_CHECK_MSG(rng != nullptr, "random frequency masking needs an Rng");
      masked = rng->SampleWithoutReplacement(length, masked_count);
      break;
    }
  }
  std::sort(masked.begin(), masked.end());

  // Zero the masked bins and return to the time domain for the base signal.
  for (std::int64_t bin : masked) {
    spectrum[static_cast<std::size_t>(bin)] = fft::Complex(0, 0);
  }
  const std::vector<double> base_d = fft::RealIfft(spectrum);

  FrequencyMaskedColumn result;
  result.base.assign(base_d.begin(), base_d.end());
  result.masked_bins = std::move(masked);
  result.cos_coef.assign(static_cast<std::size_t>(length), 0.0f);
  result.sin_coef.assign(static_cast<std::size_t>(length), 0.0f);
  if (result.masked_bins.empty()) return result;
  // Adding table rows in ascending bin order performs the same float
  // additions as evaluating each term inline, so the coefficients are
  // bitwise those of the direct formula.
  static BuildOnceCache<std::int64_t, SpectralTerms> cache;
  const bool cached = length <= kMaxCachedTermsLength;
  const SpectralTerms* terms =
      cached ? &cache.Get(length, [length] { return AllTerms(length); })
             : nullptr;
  std::vector<float> row_cos;
  std::vector<float> row_sin;
  for (std::int64_t bin : result.masked_bins) {
    const float* cos_row;
    const float* sin_row;
    if (cached) {
      cos_row = terms->cos.data() + bin * length;
      sin_row = terms->sin.data() + bin * length;
    } else {
      row_cos.resize(static_cast<std::size_t>(length));
      row_sin.resize(static_cast<std::size_t>(length));
      FillTerms(bin, length, row_cos.data(), row_sin.data());
      cos_row = row_cos.data();
      sin_row = row_sin.data();
    }
    for (std::int64_t t = 0; t < length; ++t) {
      // Re[(re + j*im) * e^{j angle}] / length = (re*cos - im*sin) / length.
      result.cos_coef[static_cast<std::size_t>(t)] += cos_row[t];
      result.sin_coef[static_cast<std::size_t>(t)] -= sin_row[t];
    }
  }
  return result;
}

std::vector<float> AssembleMaskedColumn(const FrequencyMaskedColumn& masked,
                                        float token_re, float token_im) {
  std::vector<float> out(masked.base.size());
  for (std::size_t t = 0; t < out.size(); ++t) {
    out[t] = masked.base[t] + token_re * masked.cos_coef[t] +
             token_im * masked.sin_coef[t];
  }
  return out;
}

}  // namespace tfmae::masking
