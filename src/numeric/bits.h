#ifndef TRILLIONG_NUMERIC_BITS_H_
#define TRILLIONG_NUMERIC_BITS_H_

#include <bit>
#include <cstdint>

namespace tg::numeric {

/// Bits(x) from the paper: number of set bits in x (Proposition 1).
inline int Bits(std::uint64_t x) { return std::popcount(x); }

/// Number of set bits among the low `width` bits of x.
inline int BitsLow(std::uint64_t x, int width) {
  if (width <= 0) return 0;
  if (width >= 64) return std::popcount(x);
  return std::popcount(x & ((std::uint64_t{1} << width) - 1));
}

}  // namespace tg::numeric

#endif  // TRILLIONG_NUMERIC_BITS_H_
