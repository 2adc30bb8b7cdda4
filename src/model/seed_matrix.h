#ifndef TRILLIONG_MODEL_SEED_MATRIX_H_
#define TRILLIONG_MODEL_SEED_MATRIX_H_

#include <array>
#include <cmath>

#include "util/common.h"

namespace tg::model {

/// The 2x2 seed probability matrix K = [a b; c d] of RMAT / SKG
/// (Figure 1(a)). Entries are the quadrant-selection probabilities
/// alpha, beta, gamma, delta; they must be non-negative and sum to 1.
class SeedMatrix {
 public:
  SeedMatrix(double a, double b, double c, double d) : k_{a, b, c, d} {
    TG_CHECK_MSG(a >= 0 && b >= 0 && c >= 0 && d >= 0,
                 "seed parameters must be non-negative");
    TG_CHECK_MSG(std::abs(a + b + c + d - 1.0) < 1e-9,
                 "seed parameters must sum to 1, got " << a + b + c + d);
  }

  /// The Graph500 standard parameters used throughout the paper's evaluation:
  /// K = [0.57, 0.19; 0.19, 0.05].
  static SeedMatrix Graph500() { return SeedMatrix(0.57, 0.19, 0.19, 0.05); }

  /// Erdős–Rényi: uniform quadrants (Section 8 notes ER == RMAT with 0.25s).
  static SeedMatrix ErdosRenyi() { return SeedMatrix(0.25, 0.25, 0.25, 0.25); }

  /// Builds a seed matrix whose *out*-degree distribution is Zipfian with the
  /// given log-log slope (Lemma 6: slope = log2(c+d) - log2(a+b)).
  /// `row_skew` splits each row between its two columns (fraction assigned to
  /// column 0); it controls the in-degree slope independently.
  static SeedMatrix FromZipfOutSlope(double slope, double row_skew = 0.75) {
    TG_CHECK_MSG(slope < 0, "Zipfian slope must be negative");
    TG_CHECK(row_skew > 0 && row_skew < 1);
    // (c+d)/(a+b) = 2^slope and (a+b) + (c+d) = 1.
    double top = 1.0 / (1.0 + std::exp2(slope));
    double bottom = 1.0 - top;
    return SeedMatrix(top * row_skew, top * (1.0 - row_skew),
                      bottom * row_skew, bottom * (1.0 - row_skew));
  }

  double a() const { return k_[0]; }
  double b() const { return k_[1]; }
  double c() const { return k_[2]; }
  double d() const { return k_[3]; }

  /// K_{r,c} with r,c in {0,1}: the probability parameter of the quadrant in
  /// row r, column c.
  double Entry(int row, int col) const { return k_[row * 2 + col]; }

  /// Row sum: a+b (row 0) or c+d (row 1). This is the per-bit factor of the
  /// source-marginal probability P_{u->} (Lemma 1).
  double RowSum(int row) const { return k_[row * 2] + k_[row * 2 + 1]; }

  /// Column sum: a+c (col 0) or b+d (col 1): per-bit factor of P_{->v}.
  double ColSum(int col) const { return k_[col] + k_[2 + col]; }

  /// sigma_{u[k]} of Lemma 3: K_{bit,1} / K_{bit,0}.
  double Sigma(int bit) const { return Entry(bit, 1) / Entry(bit, 0); }

  /// Theoretical Zipfian out-degree slope (Lemma 6 / Table 3):
  /// log2(c+d) - log2(a+b).
  double TheoreticalOutSlope() const {
    return std::log2(RowSum(1)) - std::log2(RowSum(0));
  }

  /// Theoretical Zipfian in-degree slope (Lemma 6 / Table 3):
  /// log2(b+d) - log2(a+c).
  double TheoreticalInSlope() const {
    return std::log2(ColSum(1)) - std::log2(ColSum(0));
  }

  /// Expected fraction of 1-bits in a generated destination ID (the quantity
  /// Lemma 5 estimates). Exact marginal: over the edge distribution each
  /// source bit is 1 with probability (c+d) and the conditional destination
  /// bit is 1 with probability b/(a+b) or d/(c+d), so
  ///   P(dest bit = 1) = (a+b) * b/(a+b) + (c+d) * d/(c+d) = b + d.
  /// For the Graph500 parameters this is 0.24 = 1/4.167 per bit. (The
  /// paper's Lemma 5 prints 1/4.917 for the same parameters; neither its
  /// closed form nor that constant matches its own fixed-point equation (10),
  /// whose solution is also 0.24 here — see EXPERIMENTS.md. The empirical
  /// tests validate b + d.)
  double ExpectedOneBitFraction() const { return b() + d(); }

  /// Transposed matrix; generating with it swaps the roles of sources and
  /// destinations (used by the AVS-I orientation of the ERV model).
  SeedMatrix Transposed() const { return SeedMatrix(a(), c(), b(), d()); }

  friend bool operator==(const SeedMatrix& x, const SeedMatrix& y) {
    return x.k_ == y.k_;
  }

 private:
  std::array<double, 4> k_;
};

}  // namespace tg::model

#endif  // TRILLIONG_MODEL_SEED_MATRIX_H_
