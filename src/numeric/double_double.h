#ifndef TRILLIONG_NUMERIC_DOUBLE_DOUBLE_H_
#define TRILLIONG_NUMERIC_DOUBLE_DOUBLE_H_

#include <cmath>
#include <compare>

namespace tg::numeric {

/// Double-double ("compensated") arithmetic: an unevaluated sum of two IEEE
/// doubles giving ~106 bits of mantissa. TrillionG's RecVec needs more than
/// double precision at trillion scale — the paper uses Scala's BigDecimal;
/// this type is the C++ substitute. Section 5 ("TrillionG uses the
/// BigDecimal type for RecVec").
///
/// Implements the classical Dekker/Knuth error-free transformations. Only
/// the operations RecVec construction and edge determination need are
/// provided: +, -, *, / and comparisons.
class DoubleDouble {
 public:
  constexpr DoubleDouble() = default;
  constexpr DoubleDouble(double hi) : hi_(hi) {}  // NOLINT: implicit by design
  constexpr DoubleDouble(double hi, double lo) : hi_(hi), lo_(lo) {}

  double hi() const { return hi_; }
  double lo() const { return lo_; }

  /// Best double approximation of the value.
  double ToDouble() const { return hi_ + lo_; }

  friend DoubleDouble operator+(const DoubleDouble& a, const DoubleDouble& b) {
    DoubleDouble s = TwoSum(a.hi_, b.hi_);
    s.lo_ += a.lo_ + b.lo_;
    return Renormalize(s.hi_, s.lo_);
  }

  friend DoubleDouble operator-(const DoubleDouble& a, const DoubleDouble& b) {
    return a + DoubleDouble(-b.hi_, -b.lo_);
  }

  friend DoubleDouble operator*(const DoubleDouble& a, const DoubleDouble& b) {
    DoubleDouble p = TwoProd(a.hi_, b.hi_);
    p.lo_ += a.hi_ * b.lo_ + a.lo_ * b.hi_;
    return Renormalize(p.hi_, p.lo_);
  }

  friend DoubleDouble operator/(const DoubleDouble& a, const DoubleDouble& b) {
    // One Newton refinement of the double quotient is enough for ~2 ulp of
    // double-double accuracy: q1 = a/b; r = a - q1*b; q2 = r/b.
    double q1 = a.hi_ / b.hi_;
    DoubleDouble r = a - b * DoubleDouble(q1);
    double q2 = (r.hi_ + r.lo_) / b.hi_;
    DoubleDouble q = TwoSum(q1, q2);
    r = a - b * q;
    double q3 = (r.hi_ + r.lo_) / b.hi_;
    return Renormalize(q.hi_, q.lo_ + q3);
  }

  DoubleDouble& operator+=(const DoubleDouble& o) { return *this = *this + o; }
  DoubleDouble& operator-=(const DoubleDouble& o) { return *this = *this - o; }
  DoubleDouble& operator*=(const DoubleDouble& o) { return *this = *this * o; }
  DoubleDouble& operator/=(const DoubleDouble& o) { return *this = *this / o; }

  friend DoubleDouble operator-(const DoubleDouble& a) {
    return DoubleDouble(-a.hi_, -a.lo_);
  }

  friend bool operator==(const DoubleDouble& a, const DoubleDouble& b) {
    return a.hi_ == b.hi_ && a.lo_ == b.lo_;
  }

  friend std::strong_ordering operator<=>(const DoubleDouble& a,
                                          const DoubleDouble& b) {
    if (a.hi_ < b.hi_) return std::strong_ordering::less;
    if (a.hi_ > b.hi_) return std::strong_ordering::greater;
    if (a.lo_ < b.lo_) return std::strong_ordering::less;
    if (a.lo_ > b.lo_) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }

 private:
  /// Error-free sum: hi+lo == a+b exactly, |lo| <= ulp(hi)/2.
  static DoubleDouble TwoSum(double a, double b) {
    double s = a + b;
    double bb = s - a;
    double err = (a - (s - bb)) + (b - bb);
    return DoubleDouble(s, err);
  }

  /// Error-free product via FMA: hi+lo == a*b exactly.
  static DoubleDouble TwoProd(double a, double b) {
    double p = a * b;
    double err = std::fma(a, b, -p);
    return DoubleDouble(p, err);
  }

  /// Re-establishes |lo| <= ulp(hi)/2.
  static DoubleDouble Renormalize(double hi, double lo) {
    return TwoSum(hi, lo);
  }

  double hi_ = 0.0;
  double lo_ = 0.0;
};

}  // namespace tg::numeric

#endif  // TRILLIONG_NUMERIC_DOUBLE_DOUBLE_H_
