#ifndef TRILLIONG_MODEL_NOISE_H_
#define TRILLIONG_MODEL_NOISE_H_

#include <vector>

#include "model/seed_matrix.h"
#include "rng/random.h"
#include "util/common.h"

namespace tg::model {

/// Noisy SKG (NSKG) noise vector (Appendix C, Definition 3). The Kronecker
/// product uses a different perturbed seed matrix per level,
/// K = K_0 (x) K_1 (x) ... (x) K_{L-1}, with
///   K_i = [ a(1 - 2u_i/(a+d)),  b + u_i ;
///           c + u_i,            d(1 - 2u_i/(a+d)) ]
/// where u_i ~ U[-N, N] and N <= min((a+d)/2, b).
///
/// Level index convention: level 0 is the MOST significant Kronecker factor.
/// Bit position k (from the LSB, as in Lemma 3) maps to level L-1-k.
class NoiseVector {
 public:
  /// Noise-free: every level is the base matrix.
  NoiseVector(const SeedMatrix& base, int levels)
      : base_(base), mu_(levels, 0.0) {
    BuildLevels();
  }

  /// Draws u_i ~ U[-N, N] per level. N is clamped to the validity bound
  /// min((a+d)/2, b) so all noisy entries stay non-negative.
  NoiseVector(const SeedMatrix& base, int levels, double noise,
              rng::Rng* rng)
      : base_(base), mu_(levels) {
    TG_CHECK(noise >= 0.0);
    double bound = std::min((base.a() + base.d()) / 2.0, base.b());
    double n = std::min(noise, bound);
    for (double& mu : mu_) mu = rng->NextDouble(-n, n);
    BuildLevels();
  }

  int levels() const { return static_cast<int>(mu_.size()); }
  const SeedMatrix& base() const { return base_; }
  double mu(int level) const { return mu_[level]; }

  /// Entry of the level-i noisy matrix, row r, column c.
  double Entry(int level, int r, int c) const {
    return entries_[level][r * 2 + c];
  }

  /// Row sum of the level-i noisy matrix (the per-level factor of P'_{u->},
  /// Lemma 7).
  double RowSum(int level, int r) const { return row_sums_[level][r]; }

  /// Convenience: the same accessors indexed by bit position from the LSB.
  double EntryAtBit(int bit, int r, int c) const {
    return Entry(levels() - 1 - bit, r, c);
  }
  double RowSumAtBit(int bit, int r) const {
    return RowSum(levels() - 1 - bit, r);
  }

  /// True if every level equals the base matrix (no noise drawn).
  bool IsNoiseFree() const {
    for (double mu : mu_) {
      if (mu != 0.0) return false;
    }
    return true;
  }

 private:
  void BuildLevels() {
    int n = levels();
    entries_.resize(n);
    row_sums_.resize(n);
    double a = base_.a(), b = base_.b(), c = base_.c(), d = base_.d();
    for (int i = 0; i < n; ++i) {
      double shrink = 1.0 - 2.0 * mu_[i] / (a + d);
      entries_[i] = {a * shrink, b + mu_[i], c + mu_[i], d * shrink};
      row_sums_[i] = {entries_[i][0] + entries_[i][1],
                      entries_[i][2] + entries_[i][3]};
      for (double e : entries_[i]) {
        TG_CHECK_MSG(e >= 0.0, "noisy seed entry negative; noise too large");
      }
    }
  }

  SeedMatrix base_;
  std::vector<double> mu_;
  std::vector<std::array<double, 4>> entries_;
  std::vector<std::array<double, 2>> row_sums_;
};

/// The NSKG noise vector of a generation run with NSKG noise `noise` and
/// run seed `rng_seed`: noise-free when noise <= 0, otherwise u_i drawn from
/// the seed's dedicated noise stream. TrillionG (core::MakeRunNoise) and the
/// R-MAT-family baselines all build their levels here, so one (seed, noise,
/// rng_seed) gives every generator the same per-level matrices.
inline NoiseVector MakeNskgNoise(const SeedMatrix& base, int levels,
                                 double noise, std::uint64_t rng_seed) {
  if (noise <= 0.0) return NoiseVector(base, levels);
  rng::Rng noise_rng(rng_seed, /*stream=*/0xA015E1ULL);
  return NoiseVector(base, levels, noise, &noise_rng);
}

}  // namespace tg::model

#endif  // TRILLIONG_MODEL_NOISE_H_
