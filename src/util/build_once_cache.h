// Thread-safe memo of immutable values built once per key.
//
// The spectral caches (fft/fft.cc, fft/convolution.cc,
// masking/frequency_mask.cc) hold the fixed per-length parts of a
// transform: tables that are pure functions of a length, recomputed
// bit-for-bit the same on every call. Caching one therefore never changes an
// output, only skips the recomputation. Entries are never evicted, so a
// returned reference stays valid for the life of the process. The FFT tables
// are O(n), the size of one transform's own buffers, and are cached at every
// length; only the frequency mask's O(L^2) table bounds the lengths it
// caches.
#ifndef TFMAE_UTIL_BUILD_ONCE_CACHE_H_
#define TFMAE_UTIL_BUILD_ONCE_CACHE_H_

#include <map>
#include <memory>
#include <mutex>

namespace tfmae {

template <typename Key, typename Value>
class BuildOnceCache {
 public:
  /// The value for `key`, calling `build()` (returning a Value) the first
  /// time the key is seen. Concurrent callers of a missing key wait for the
  /// one build; the lookup itself is one uncontended-mutex critical section.
  template <typename Build>
  const Value& Get(const Key& key, const Build& build) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      it = entries_.emplace(key, std::make_unique<const Value>(build())).first;
    }
    return *it->second;
  }

 private:
  std::mutex mu_;
  std::map<Key, std::unique_ptr<const Value>> entries_;
};

}  // namespace tfmae

#endif  // TFMAE_UTIL_BUILD_ONCE_CACHE_H_
