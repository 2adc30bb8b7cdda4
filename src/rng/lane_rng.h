// rng/lane_rng.h — multi-lane uniform deviate generator for the edge kernel:
// SplitMix64 rewritten in counter form so 4 lanes of AVX2 integer arithmetic
// (or a scalar-unrolled portable loop) produce the *same* stream as the
// sequential reference, bit for bit. The hot generation path draws all of its
// per-edge randomness through this type; because every output is a pure
// function of (seed, counter), the stream is identical at any lane width,
// any batch size, and whichever fill the CPU selects at run time — the
// determinism contract documented in docs/PERFORMANCE.md.
#ifndef TRILLIONG_RNG_LANE_RNG_H_
#define TRILLIONG_RNG_LANE_RNG_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "rng/random.h"

// The AVX2 fills are compiled into every x86-64 build with a per-function
// target attribute and chosen at run time, so one binary runs the vector
// fill on an AVX2 CPU and the portable one elsewhere.
#if defined(__x86_64__)
#include <immintrin.h>
#define TG_LANE_RNG_AVX2 1
#define TG_TARGET_AVX2 __attribute__((target("avx2")))
#endif

namespace tg::rng {

/// Maps 64 random bits to a uniform double in [0, 1) with 52 random mantissa
/// bits via the exponent-splice trick: build a double in [1, 2) and subtract
/// 1.0. Exactly one integer OR + one IEEE subtract, so the scalar and SIMD
/// conversions are bit-identical by construction (no int->fp rounding mode
/// involved).
inline double UnitDoubleFromBits(std::uint64_t bits) {
  const std::uint64_t mant = (bits >> 12) | 0x3FF0000000000000ULL;
  double d;
  std::memcpy(&d, &mant, sizeof(d));
  return d - 1.0;
}

namespace internal {

/// SplitMix64's finalizer applied to an explicit counter value. The
/// sequential SplitMix64 with initial state s emits Mix64(s + (i+1)*gamma)
/// at step i, so a counter-form generator that tracks s + i*gamma
/// reproduces the exact reference stream while exposing the embarrassing
/// parallelism across i.
inline std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

}  // namespace internal

/// Test hook forcing the portable (scalar-unrolled) fill loops on an AVX2
/// CPU, so one test binary can prove the two fills bit-identical. Reads are
/// relaxed: the flag is a test switch, not a synchronization point.
inline std::atomic<bool>& LaneForcePortableFlag() {
  static std::atomic<bool> flag(false);
  return flag;
}

inline void SetLaneForcePortable(bool force) {
  LaneForcePortableFlag().store(force, std::memory_order_relaxed);
}

/// The lane generator. One instance per AVS scope (seeded from the scope's
/// deterministic stream key); header draws (scope-size Gaussian) and bulk
/// deviate blocks consume one shared counter, so interleaving scalar Next()
/// calls with vector Fill* calls cannot change any value.
class LaneRng {
 public:
  /// Lanes the vector fill advances per step (informational).
  static constexpr int kLanes = 4;

  explicit LaneRng(std::uint64_t seed) : state_(seed) {}

  /// True when Fill* will actually take the vector path right now: the CPU
  /// has AVX2 (asked once per process) and the test hook does not force the
  /// portable loops.
  static bool SimdActive() {
#ifdef TG_LANE_RNG_AVX2
    static const bool has_avx2 = __builtin_cpu_supports("avx2");
#else
    constexpr bool has_avx2 = false;
#endif
    return has_avx2 &&
           !LaneForcePortableFlag().load(std::memory_order_relaxed);
  }

  /// Next raw 64-bit value — identical to SplitMix64::Next() from the same
  /// seed.
  std::uint64_t Next() { return internal::Mix64(state_ += internal::kGamma); }

  /// Next uniform double in [0, 1).
  double NextUnit() { return UnitDoubleFromBits(Next()); }

  /// Standard normal deviate (Box–Muller, first value r*cos(theta); the
  /// scope-size draw needs exactly one Gaussian so no spare is cached).
  double NextGaussian() {
    double u1;
    do {
      u1 = NextUnit();
    } while (u1 <= 0.0);
    const double u2 = NextUnit();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return r * std::cos(2.0 * M_PI * u2);
  }

  /// Fills out[0..n) with the next n raw 64-bit values of the stream.
  void FillRaw(std::uint64_t* out, std::size_t n) {
#ifdef TG_LANE_RNG_AVX2
    if (SimdActive()) {
      FillRawAvx2(out, n);
      return;
    }
#endif
    FillRawPortable(out, n);
  }

  /// Fills out[0..n) with the next n uniform doubles in [0, 1).
  void FillUnit(double* out, std::size_t n) {
#ifdef TG_LANE_RNG_AVX2
    if (SimdActive()) {
      FillUnitAvx2(out, n);
      return;
    }
#endif
    FillUnitPortable(out, n);
  }

  /// Portable reference loops: used on CPUs without AVX2, by tests to pin
  /// the vector kernels, and under the forced-portable test hook. Unrolled
  /// by four so the compiler can keep four independent mix chains in flight
  /// even without vector ISA. The unrolled part ends at n - n % 4, not at
  /// i + 4 <= n: gcc 12 cannot bound the latter (and warns) once the loop
  /// is inlined next to the AVX2 dispatch.
  void FillRawPortable(std::uint64_t* out, std::size_t n) {
    const std::size_t blocks = n - n % 4;
    std::size_t i = 0;
    for (; i < blocks; i += 4) {
      const std::uint64_t s = state_;
      out[i + 0] = internal::Mix64(s + 1 * internal::kGamma);
      out[i + 1] = internal::Mix64(s + 2 * internal::kGamma);
      out[i + 2] = internal::Mix64(s + 3 * internal::kGamma);
      out[i + 3] = internal::Mix64(s + 4 * internal::kGamma);
      state_ = s + 4 * internal::kGamma;
    }
    for (; i < n; ++i) out[i] = Next();
  }

  void FillUnitPortable(double* out, std::size_t n) {
    const std::size_t blocks = n - n % 4;
    std::size_t i = 0;
    for (; i < blocks; i += 4) {
      const std::uint64_t s = state_;
      out[i + 0] = UnitDoubleFromBits(internal::Mix64(s + 1 * internal::kGamma));
      out[i + 1] = UnitDoubleFromBits(internal::Mix64(s + 2 * internal::kGamma));
      out[i + 2] = UnitDoubleFromBits(internal::Mix64(s + 3 * internal::kGamma));
      out[i + 3] = UnitDoubleFromBits(internal::Mix64(s + 4 * internal::kGamma));
      state_ = s + 4 * internal::kGamma;
    }
    for (; i < n; ++i) out[i] = NextUnit();
  }

#ifdef TG_LANE_RNG_AVX2
  TG_TARGET_AVX2 void FillRawAvx2(std::uint64_t* out, std::size_t n) {
    std::size_t i = 0;
    __m256i ctr = CounterVector();
    const __m256i step = _mm256_set1_epi64x(
        static_cast<long long>(4 * internal::kGamma));
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), Mix4(ctr));
      ctr = _mm256_add_epi64(ctr, step);
      state_ += 4 * internal::kGamma;
    }
    for (; i < n; ++i) out[i] = Next();
  }

  TG_TARGET_AVX2 void FillUnitAvx2(double* out, std::size_t n) {
    std::size_t i = 0;
    __m256i ctr = CounterVector();
    const __m256i step = _mm256_set1_epi64x(
        static_cast<long long>(4 * internal::kGamma));
    const __m256i exp = _mm256_set1_epi64x(0x3FF0000000000000LL);
    const __m256d one = _mm256_set1_pd(1.0);
    for (; i + 4 <= n; i += 4) {
      const __m256i z = Mix4(ctr);
      // Same exponent-splice conversion as UnitDoubleFromBits, lane-wise.
      const __m256i mant = _mm256_or_si256(_mm256_srli_epi64(z, 12), exp);
      _mm256_storeu_pd(out + i,
                       _mm256_sub_pd(_mm256_castsi256_pd(mant), one));
      ctr = _mm256_add_epi64(ctr, step);
      state_ += 4 * internal::kGamma;
    }
    for (; i < n; ++i) out[i] = NextUnit();
  }
#endif  // TG_LANE_RNG_AVX2

 private:
#ifdef TG_LANE_RNG_AVX2
  /// [state+g, state+2g, state+3g, state+4g] — the next four counters.
  TG_TARGET_AVX2 __m256i CounterVector() const {
    const __m256i base = _mm256_set1_epi64x(static_cast<long long>(state_));
    const __m256i offs = _mm256_setr_epi64x(
        static_cast<long long>(1 * internal::kGamma),
        static_cast<long long>(2 * internal::kGamma),
        static_cast<long long>(3 * internal::kGamma),
        static_cast<long long>(4 * internal::kGamma));
    return _mm256_add_epi64(base, offs);
  }

  /// 64x64->64 low multiply by a broadcast constant (AVX2 has only 32x32
  /// widening multiplies; the three-product decomposition is exact mod 2^64).
  TG_TARGET_AVX2 static __m256i Mul64(__m256i a, __m256i b) {
    const __m256i b_hi = _mm256_srli_epi64(b, 32);
    const __m256i a_hi = _mm256_srli_epi64(a, 32);
    const __m256i lo = _mm256_mul_epu32(a, b);
    const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                           _mm256_mul_epu32(a_hi, b));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
  }

  /// Four lanes of internal::Mix64.
  TG_TARGET_AVX2 static __m256i Mix4(__m256i z) {
    const __m256i m1 = _mm256_set1_epi64x(
        static_cast<long long>(0xbf58476d1ce4e5b9ULL));
    const __m256i m2 = _mm256_set1_epi64x(
        static_cast<long long>(0x94d049bb133111ebULL));
    z = Mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), m1);
    z = Mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), m2);
    return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
  }
#endif  // TG_LANE_RNG_AVX2

  std::uint64_t state_;
};

}  // namespace tg::rng

#undef TG_TARGET_AVX2

#endif  // TRILLIONG_RNG_LANE_RNG_H_
