#ifndef TRILLIONG_MODEL_SEED_MATRIX_N_H_
#define TRILLIONG_MODEL_SEED_MATRIX_N_H_

#include <cmath>
#include <vector>

#include "model/seed_matrix.h"
#include "util/common.h"

namespace tg::model {

/// General n x n seed probability matrix for SKG / FastKronecker
/// (Section 2.2: RMAT is the special case n = 2).
class SeedMatrixN {
 public:
  SeedMatrixN(int n, std::vector<double> entries)
      : n_(n), entries_(std::move(entries)) {
    TG_CHECK(n >= 2);
    TG_CHECK_MSG(entries_.size() == static_cast<std::size_t>(n) * n,
                 "need n*n entries");
    double total = 0;
    for (double e : entries_) {
      TG_CHECK_MSG(e >= 0, "seed entries must be non-negative");
      total += e;
    }
    TG_CHECK_MSG(std::abs(total - 1.0) < 1e-9, "seed entries must sum to 1");
  }

  static SeedMatrixN FromSeedMatrix(const SeedMatrix& k) {
    return SeedMatrixN(2, {k.a(), k.b(), k.c(), k.d()});
  }

  /// A 3x3 example matrix (row-skewed), for exercising the n != 2 paths.
  static SeedMatrixN Example3x3() {
    return SeedMatrixN(3, {0.30, 0.12, 0.08,  //
                           0.12, 0.10, 0.05,  //
                           0.08, 0.05, 0.10});
  }

  int n() const { return n_; }
  double Entry(int row, int col) const { return entries_[row * n_ + col]; }

  double RowSum(int row) const {
    double s = 0;
    for (int c = 0; c < n_; ++c) s += Entry(row, c);
    return s;
  }

  /// Number of recursion levels for |V| vertices (requires |V| = n^levels).
  int LevelsFor(VertexId num_vertices) const {
    int levels = 0;
    VertexId v = 1;
    while (v < num_vertices) {
      v *= n_;
      ++levels;
    }
    TG_CHECK_MSG(v == num_vertices,
                 "|V| must be a power of the seed dimension n=" << n_);
    return levels;
  }

 private:
  int n_;
  std::vector<double> entries_;
};

}  // namespace tg::model

#endif  // TRILLIONG_MODEL_SEED_MATRIX_N_H_
