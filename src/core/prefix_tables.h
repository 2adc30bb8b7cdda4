// core/prefix_tables.h — table-driven, binary-search-free CDF inversion for
// the recursive vector model. The destination distribution of a scope
// factorizes per bit level (Lemma 2), so the descent of Algorithm 5 is an
// inverse-transform over independent per-level Bernoulli splits. This file
// precomputes, per group of up to 8 consecutive levels and per 8-bit source
// pattern, the cumulative boundaries of all 2^8 destination-prefix outcomes
// plus a guide index — the path-prefix-table idea of "Linear Work Generation
// of R-MAT Graphs" (arXiv 1905.03525) applied to AVS scopes. One edge then
// costs ceil(scale/8) table draws (guide lookup + short scan + one
// renormalizing multiply each) instead of `scale` recursion steps, and the
// tables are shared by every scope, so there is no per-scope build cost at
// all. All arithmetic is plain scalar IEEE double: the inversion is
// bit-identical whether the deviates feeding it came from the AVX2 or the
// portable lane generator (docs/PERFORMANCE.md, determinism contract).
#ifndef TRILLIONG_CORE_PREFIX_TABLES_H_
#define TRILLIONG_CORE_PREFIX_TABLES_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "core/rec_vec.h"
#include "model/noise.h"
#include "util/common.h"

namespace tg::core {

/// Precomputed inversion tables for one NoiseVector. Built once per
/// generator (read-only afterwards, safe to share across workers).
///
/// Group g covers bit positions [8g, min(8(g+1), scale)) counted from the
/// LSB. Within a group, the table for source pattern s (the scope's u-bits
/// at the group's positions) stores the normalized cumulative boundaries
/// bound[P] of the 2^w destination-prefix outcomes P, ordered so that the
/// inverse transform is monotone: a deviate y uniform in [0, 1) selects the
/// outcome P with bound[P] <= y < bound[P+1], and the renormalized residual
/// (y - bound[P]) * invw[P] is again uniform in [0, 1) and independent, so
/// it feeds the next (lower) group directly — one deviate per edge, exactly
/// like Theorem 2's CDF translation, but 8 levels at a time.
class AvsPrefixTables {
 public:
  static constexpr int kGroupBits = 8;
  static constexpr int kMaxGroups = (kMaxScale + kGroupBits - 1) / kGroupBits;

  /// Per-scope resolved table pointers plus the scope's total row mass
  /// P_{u->} (the product of per-level row sums, Lemma 1 — what RecVec
  /// would have reported as Total()). Resolving once per scope keeps the
  /// per-edge loop free of index arithmetic on u.
  struct ScopeView {
    const double* bound[kMaxGroups];
    const double* invw[kMaxGroups];
    const std::uint16_t* guide[kMaxGroups];
    double total;
  };

  AvsPrefixTables() = default;

  explicit AvsPrefixTables(const model::NoiseVector& noise) { Build(noise); }

  /// Builds all tables: for every group and every source pattern, the
  /// outcome widths are products of per-level conditional bit
  /// probabilities q1 = K(b,1) / rowsum(b) (per-level noisy entries, so
  /// NSKG works unchanged).
  void Build(const model::NoiseVector& noise) {
    const int scale = noise.levels();
    TG_CHECK(scale >= 1 && scale <= kMaxScale);
    scale_ = scale;
    groups_.clear();
    for (int shift = 0; shift < scale; shift += kGroupBits) {
      Group grp;
      grp.shift = shift;
      grp.width = std::min(kGroupBits, scale - shift);
      grp.entries = 1 << grp.width;
      grp.guide_size = grp.entries * 2;
      const int patterns = grp.entries;
      grp.bound.resize(static_cast<std::size_t>(patterns) *
                       (grp.entries + 1));
      grp.invw.resize(static_cast<std::size_t>(patterns) * grp.entries);
      grp.guide.resize(static_cast<std::size_t>(patterns) * grp.guide_size);
      grp.row_mass.resize(patterns);

      std::vector<double> w(grp.entries);
      for (int s = 0; s < patterns; ++s) {
        // Outcome widths by doubling, most significant group bit first, so
        // outcome index P carries destination bit (shift + b) at bit b.
        w[0] = 1.0;
        int filled = 1;
        double mass = 1.0;
        for (int b = grp.width - 1; b >= 0; --b) {
          const int bit = grp.shift + b;
          const int ub = (s >> b) & 1;
          const double e0 = noise.EntryAtBit(bit, ub, 0);
          const double e1 = noise.EntryAtBit(bit, ub, 1);
          const double sum = e0 + e1;
          const double q1 = sum > 0.0 ? e1 / sum : 0.0;
          const double q0 = 1.0 - q1;
          for (int j = filled - 1; j >= 0; --j) {
            w[2 * j + 1] = w[j] * q1;
            w[2 * j] = w[j] * q0;
          }
          filled *= 2;
          mass *= noise.RowSumAtBit(bit, ub);
        }
        grp.row_mass[s] = mass;

        double* bound = grp.bound.data() +
                        static_cast<std::size_t>(s) * (grp.entries + 1);
        double* invw =
            grp.invw.data() + static_cast<std::size_t>(s) * grp.entries;
        bound[0] = 0.0;
        for (int p = 0; p < grp.entries; ++p) bound[p + 1] = bound[p] + w[p];
        // Absorb accumulated rounding into the top interval so every deviate
        // in [0, 1) lands in some interval and the scan below terminates.
        bound[grp.entries] = 1.0;
        for (int p = 0; p < grp.entries; ++p) {
          const double width = bound[p + 1] - bound[p];
          invw[p] = width > 0.0 ? 1.0 / width : 0.0;
        }

        // Guide index: guide[j] is the largest P with bound[P] <= j/G, so
        // the per-draw scan starts at most a few intervals short of the
        // answer (expected O(1) steps).
        std::uint16_t* guide =
            grp.guide.data() + static_cast<std::size_t>(s) * grp.guide_size;
        unsigned p = 0;
        for (int j = 0; j < grp.guide_size; ++j) {
          const double lo = static_cast<double>(j) / grp.guide_size;
          while (p + 1 < static_cast<unsigned>(grp.entries) &&
                 bound[p + 1] <= lo) {
            ++p;
          }
          guide[j] = static_cast<std::uint16_t>(p);
        }
      }
      groups_.push_back(std::move(grp));
    }
  }

  bool built() const { return !groups_.empty(); }
  int scale() const { return scale_; }
  int num_groups() const { return static_cast<int>(groups_.size()); }

  /// Resolves the per-group table slices for source vertex u and the
  /// scope's total row mass. O(num_groups) — a handful of shifts and
  /// multiplies per scope.
  ScopeView ViewFor(VertexId u) const {
    ScopeView view;
    view.total = 1.0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const Group& grp = groups_[g];
      const unsigned s =
          static_cast<unsigned>(u >> grp.shift) & (grp.entries - 1);
      view.bound[g] =
          grp.bound.data() + static_cast<std::size_t>(s) * (grp.entries + 1);
      view.invw[g] =
          grp.invw.data() + static_cast<std::size_t>(s) * grp.entries;
      view.guide[g] =
          grp.guide.data() + static_cast<std::size_t>(s) * grp.guide_size;
      view.total *= grp.row_mass[s];
    }
    return view;
  }

  /// Inverts one deviate y in [0, 1) into a destination vertex: the
  /// table-draw replacement for DetermineEdge's recursive descent. Highest
  /// group first, exactly mirroring the MSB-first descent order.
  VertexId Invert(const ScopeView& view, double y) const {
    VertexId v = 0;
    for (int g = static_cast<int>(groups_.size()) - 1; g > 0; --g) {
      v |= static_cast<VertexId>(DrawGroup<true>(view, g, &y))
           << groups_[g].shift;
    }
    return v | DrawGroup<false>(view, 0, &y);
  }

  /// Inverts `n` deviates at once; out[i] == Invert(view, ys[i]) bit for
  /// bit. Group-major: each group's draw runs over a whole block of
  /// deviates before the next group starts, so the per-deviate chains
  /// (guide load -> scan -> renormalize) of different deviates overlap
  /// instead of serializing group after group.
  void InvertBlock(const ScopeView& view, const double* ys, VertexId* out,
                   std::size_t n) const {
    constexpr std::size_t kBlock = 64;
    double y[kBlock];
    for (std::size_t base = 0; base < n; base += kBlock) {
      const std::size_t m = std::min(kBlock, n - base);
      for (std::size_t i = 0; i < m; ++i) {
        y[i] = ys[base + i];
        out[base + i] = 0;
      }
      for (int g = static_cast<int>(groups_.size()) - 1; g > 0; --g) {
        const int shift = groups_[g].shift;
        for (std::size_t i = 0; i < m; ++i) {
          out[base + i] |=
              static_cast<VertexId>(DrawGroup<true>(view, g, &y[i])) << shift;
        }
      }
      for (std::size_t i = 0; i < m; ++i) {
        out[base + i] |= DrawGroup<false>(view, 0, &y[i]);
      }
    }
  }

  /// Bytes held by all tables (budget attribution, tag
  /// "core.prefix_tables").
  std::size_t MemoryBytes() const {
    std::size_t bytes = 0;
    for (const Group& grp : groups_) {
      bytes += grp.bound.size() * sizeof(double) +
               grp.invw.size() * sizeof(double) +
               grp.guide.size() * sizeof(std::uint16_t) +
               grp.row_mass.size() * sizeof(double);
    }
    return bytes;
  }

 private:
  /// One group's draw, shared by Invert and InvertBlock: returns the
  /// outcome P with bound[P] <= *y < bound[P+1] and, if `kRenormalize`,
  /// replaces *y by the renormalized residual that feeds the next (lower)
  /// group — the lowest group (shift 0) has no one to feed. The guide
  /// leaves the answer 0 steps away for most deviates and 1 for most of
  /// the rest, so two branchless steps come first and the loop is a
  /// rarely taken tail. Every step is the same monotone test, so the
  /// result equals a plain scan's.
  template <bool kRenormalize>
  [[gnu::always_inline]] unsigned DrawGroup(const ScopeView& view, int g,
                                            double* y) const {
    const double* bound = view.bound[g];
    double v = *y;
    unsigned p = view.guide[g][static_cast<unsigned>(
        v * static_cast<double>(groups_[g].guide_size))];
    p += static_cast<unsigned>(bound[p + 1] <= v);
    p += static_cast<unsigned>(bound[p + 1] <= v);
    while (bound[p + 1] <= v) ++p;
    if constexpr (kRenormalize) {
      v = (v - bound[p]) * view.invw[g][p];
      // Renormalization guards: y is in [0, ~1+ulp) by construction; clamp
      // the rounding spill so the next group's guide lookup stays in range.
      // GCC 12 at -O2 compiles std::max(std::min(v, C), 0.0) to two
      // comisd + branch pairs inside InvertBlock, so SSE2 builds spell out
      // the branch-free form. minsd(a, b) is `a < b ? a : b` and
      // maxsd(a, b) is `a > b ? a : b`, which are std::min(v, C) and
      // std::max(x, 0.0) with the operands swapped: the same result for
      // every input, NaN and signed zero included.
      constexpr double kBelowOne = 0x1.fffffffffffffp-1;
#ifdef __SSE2__
      *y = _mm_cvtsd_f64(_mm_max_sd(
          _mm_setzero_pd(), _mm_min_sd(_mm_set_sd(kBelowOne), _mm_set_sd(v))));
#else
      *y = std::max(std::min(v, kBelowOne), 0.0);
#endif
    }
    return p;
  }

  struct Group {
    int shift = 0;       ///< bit position of the group's least level
    int width = 0;       ///< levels in this group (1..8)
    int entries = 0;     ///< 1 << width outcomes (== source patterns)
    int guide_size = 0;  ///< guide buckets per table
    std::vector<double> bound;        ///< per pattern: entries + 1
    std::vector<double> invw;         ///< per pattern: entries
    std::vector<std::uint16_t> guide; ///< per pattern: guide_size
    std::vector<double> row_mass;     ///< per pattern: group row-sum product
  };

  std::vector<Group> groups_;
  int scale_ = 0;
};

}  // namespace tg::core

#endif  // TRILLIONG_CORE_PREFIX_TABLES_H_
