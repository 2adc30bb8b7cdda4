// core/avs_generator.h — the per-worker scope generator (Algorithm 4): for
// every source vertex u in a range, sample the scope size |S(u, V)| by
// Theorem 1, then rejection-sample that many distinct destinations. Two
// kernels share the loop: the *table kernel* (the default hot path — prefix
// tables from core/prefix_tables.h fed by the batched lane RNG from
// rng/lane_rng.h, no RecVec build and no per-edge descent) and the *descent
// kernel* (RecVec + Theorem 2 CDF translation), which serves the Figure 13
// ablations and the DoubleDouble precision. Both draw each scope from its
// own deterministic RNG stream, so output is identical for any worker count
// and chunking; see docs/PERFORMANCE.md for the kernel design and the
// determinism contract.
#ifndef TRILLIONG_CORE_AVS_GENERATOR_H_
#define TRILLIONG_CORE_AVS_GENERATOR_H_

#include <algorithm>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/edge_determiner.h"
#include "core/on_demand_cdf.h"
#include "core/prefix_tables.h"
#include "core/rec_vec.h"
#include "core/scope_dedup.h"
#include "core/scope_sink.h"
#include "core/scope_size.h"
#include "model/noise.h"
#include "obs/metrics.h"
#include "rng/lane_rng.h"
#include "rng/random.h"
#include "util/memory_budget.h"

namespace tg::core {

/// Per-worker generation statistics.
struct AvsWorkerStats {
  std::uint64_t num_edges = 0;
  std::uint64_t num_scopes = 0;       ///< scopes with at least one edge
  std::uint64_t max_degree = 0;       ///< realized d_max in this range
  std::uint64_t peak_scope_bytes = 0; ///< peak working-set (the O(d_max) term)
  std::uint64_t rec_vec_builds = 0;   ///< RecVec constructions (ablation stat)
  /// CDF inversions attempted (Theorem 2 determinations, counting
  /// rejection-loop retries) — the per-edge work unit of Table 1.
  std::uint64_t cdf_evaluations = 0;
  /// Scopes and edges produced by the table kernel (vs the descent kernel).
  std::uint64_t table_scopes = 0;
  std::uint64_t table_edges = 0;
  /// Bitmap words the dense scopes dirtied, each wiped as its scope ends,
  /// so the total is the same under any schedule (regression canary: must
  /// stay proportional to inserted entries, not to |V| per dense scope).
  std::uint64_t dedup_wiped_words = 0;

  void MergeFrom(const AvsWorkerStats& o) {
    num_edges += o.num_edges;
    num_scopes += o.num_scopes;
    max_degree = std::max(max_degree, o.max_degree);
    peak_scope_bytes = std::max(peak_scope_bytes, o.peak_scope_bytes);
    rec_vec_builds += o.rec_vec_builds;
    cdf_evaluations += o.cdf_evaluations;
    table_scopes += o.table_scopes;
    table_edges += o.table_edges;
    dedup_wiped_words += o.dedup_wiped_words;
  }
};

/// Folds a merged per-run AvsWorkerStats into the global obs registry under
/// the canonical `avs.*` metric names (docs/OBSERVABILITY.md). Called once
/// per run by core::Generate.
inline void RecordAvsStats(const AvsWorkerStats& merged) {
  obs::GetCounter("avs.edges_generated")->Add(merged.num_edges);
  obs::GetCounter("avs.scopes_generated")->Add(merged.num_scopes);
  obs::GetCounter("avs.recvec_builds")->Add(merged.rec_vec_builds);
  obs::GetCounter("avs.cdf_evaluations")->Add(merged.cdf_evaluations);
  obs::GetGauge("avs.max_degree")
      ->Max(static_cast<double>(merged.max_degree));
  obs::GetGauge("mem.peak_scope_bytes")
      ->Max(static_cast<double>(merged.peak_scope_bytes));
  // kernel.*: which edge kernel ran and at what lane width
  // (docs/PERFORMANCE.md). simd_lanes is 1 on the portable path — a CPU
  // without AVX2, or the fill forced portable by the test hook.
  obs::GetCounter("kernel.table_scopes")->Add(merged.table_scopes);
  obs::GetCounter("kernel.table_edges")->Add(merged.table_edges);
  obs::GetCounter("kernel.dedup_wiped_words")->Add(merged.dedup_wiped_words);
  obs::GetGauge("kernel.simd_lanes")
      ->Max(rng::LaneRng::SimdActive() ? rng::LaneRng::kLanes : 1);
}

/// The reusable per-worker working state of scope generation: the scope's
/// RecVec, the duplicate eliminator, the adjacency buffer, and the pending
/// per-scope observations. One instance lives for a whole worker (across
/// every scope, chunk, and range it executes), so the backing capacity is
/// allocated on high-water marks only — per-scope work is clear-and-refill,
/// never allocate.
template <typename Real>
struct ScopeScratch {
  RecVec<Real> rec_vec;
  ScopeDedup dedup;
  /// Sized to the largest degree seen; a scope's edges are its first n.
  std::vector<VertexId> adj;
  /// `avs.scope_degree` and `progress.edges` updates not yet published;
  /// flushed every kObsFlushScopes scopes and at the end of each range.
  obs::HistogramBatch pending_degrees;
  std::uint64_t pending_edges = 0;
  /// The worker's charge against the machine budget: the high-water scope
  /// working set, taken at the first scope and grown only when a scope
  /// needs more, so the shared budget is not touched per scope.
  std::optional<ScopedAllocation> scope_lease;
};

/// Generates all scopes of a contiguous vertex range following the recursive
/// vector model (Algorithm 4). One instance per worker; scope RNG streams
/// are forked per vertex, so output is identical regardless of how ranges
/// are assigned to workers.
///
/// `Real` selects RecVec arithmetic: double or numeric::DoubleDouble.
template <typename Real>
class AvsRangeGenerator {
 public:
  /// Uniform deviates drawn per rejection round on the hot path. One batch
  /// fill amortizes the RNG state loads/stores over the whole block and lets
  /// the determiner loop run without the generator in its dependency chain.
  static constexpr std::size_t kDrawBatch = 64;

  /// `noise` must outlive the generator. `num_edges` is the global |E| of
  /// Theorem 1. `budget`, if non-null, models the per-machine memory cap.
  /// `shared_tables`, if non-null, must hold prefix tables built from an
  /// identical noise vector (the serve daemon's artifact cache memoizes
  /// them by model fingerprint); the generator then skips its own build and
  /// charges nothing — the cache owns and accounts for the bytes.
  AvsRangeGenerator(const model::NoiseVector* noise, std::uint64_t num_edges,
                    const DeterminerOptions& opts,
                    MemoryBudget* budget = nullptr,
                    bool exclude_self_loops = false,
                    const AvsPrefixTables* shared_tables = nullptr)
      : noise_(noise),
        num_edges_(num_edges),
        opts_(opts),
        budget_(budget),
        // Intern the attribution tag once; GenerateScope runs once per
        // vertex and must not take the budget's tag-intern mutex.
        scope_tag_(budget != nullptr ? budget->Tag("core.scope_dedup")
                                     : nullptr),
        num_vertices_(VertexId{1} << noise->levels()),
        exclude_self_loops_(exclude_self_loops),
        // Per-scope histogram observations only happen under an active
        // report; otherwise the generator carries a null pointer and the
        // hot loop pays a single predictable branch.
        degree_hist_(obs::Enabled() ? obs::GetHistogram("avs.scope_degree")
                                    : nullptr),
        // Live mirror of edges emitted so far, published every
        // kObsFlushScopes scopes and at range end (never per edge) so the
        // obs::Sampler can compute a rate and ETA mid-run.
        // `avs.edges_generated` itself stays an end-of-run aggregate
        // (RecordAvsStats), keeping both exact.
        live_edges_(obs::Enabled() ? obs::GetCounter("progress.edges")
                                   : nullptr) {
    // The table kernel requires plain-double arithmetic and all three of
    // Section 4.3's ideas: any ablation combination (Figure 13) and the
    // DoubleDouble precision keep the descent kernel, whose cost model the
    // ablations measure.
    use_tables_ = kRealIsDouble && opts_.use_prefix_tables &&
                  opts_.reuse_rec_vec && opts_.reduce_recursions &&
                  opts_.reuse_random_value;
    if (use_tables_) {
      if (shared_tables != nullptr) {
        tables_view_ = shared_tables;
      } else {
        tables_.Build(*noise_);
        // The tables are a per-generator (not per-scope) allocation, shared
        // by all workers; charge them once for the generator's lifetime.
        tables_mem_.emplace(budget_, tables_.MemoryBytes(),
                            "core.prefix_tables");
        tables_view_ = &tables_;
      }
    }
  }

  /// Runs Algorithm 4 over scopes [lo, hi). `root` is the graph-level RNG
  /// (forked per scope). Scopes are delivered to `sink` in increasing vertex
  /// order. Returns per-range stats.
  AvsWorkerStats GenerateRange(VertexId lo, VertexId hi, const rng::Rng& root,
                               ScopeSink* sink) {
    AvsWorkerStats stats;
    ScopeScratch<Real> scratch;
    GenerateRange(lo, hi, root, &scratch, &stats, sink);
    return stats;
  }

  /// Scratch-reusing form used by the work-stealing scheduler: one scratch
  /// per worker outlives every chunk the worker executes. Publishes the
  /// range's pending per-scope observations before returning.
  void GenerateRange(VertexId lo, VertexId hi, const rng::Rng& root,
                     ScopeScratch<Real>* scratch, AvsWorkerStats* stats,
                     ScopeSink* sink) const {
    // Per-scope updates go to a local and reach `stats` once: the workers'
    // slots sit next to each other, and a write per scope would bounce the
    // shared cache lines between cores.
    AvsWorkerStats local;
    for (VertexId u = lo; u < hi; ++u) {
      GenerateScope(u, root, scratch, &local, sink);
    }
    stats->MergeFrom(local);
    FlushObs(scratch);
  }

  /// Generates a single scope (exposed for tests and the Figure 13 bench).
  /// Safe to call concurrently from multiple threads as long as each thread
  /// brings its own scratch/stats (the generator itself is read-only here;
  /// the shared MemoryBudget is thread-safe). Per-scope observations are
  /// published in batches: every kObsFlushScopes scopes and at the end of
  /// each GenerateRange.
  void GenerateScope(VertexId u, const rng::Rng& root,
                     ScopeScratch<Real>* scratch, AvsWorkerStats* stats,
                     ScopeSink* sink) const {
    if constexpr (kRealIsDouble) {
      if (use_tables_) {
        GenerateScopeTables(u, root, scratch, stats, sink);
        return;
      }
    }
    rng::Rng rng = root.Fork(u);

    RecVec<Real>& rv = scratch->rec_vec;
    rv.Build(*noise_, u);
    ++stats->rec_vec_builds;
    const double p = ToDouble(rv.Total());

    // Line 2 of Algorithm 4: numEdges <- |S(u, V)| by Theorem 1.
    const std::uint64_t degree =
        SampleScopeSize(num_edges_, p, num_vertices_, &rng);
    if (degree == 0) return;

    if (opts_.reuse_rec_vec && opts_.reuse_random_value) {
      // Batched hot path. With the cached RecVec and Theorem 2's value
      // reuse, one attempt consumes exactly one uniform deviate and the
      // determiner touches no RNG state, so drawing a block up front
      // consumes the scope's stream in the same order as the scalar loop —
      // the output is bit-identical, only cheaper.
      RunScope(u, degree, kDrawBatch, scratch, stats, sink,
               [&](VertexId* dests, std::size_t n) {
                 Real xs[kDrawBatch];
                 for (std::size_t i = 0; i < n; ++i) {
                   xs[i] = NextUniformReal<Real>(&rng, rv.Total());
                 }
                 for (std::size_t i = 0; i < n; ++i) {
                   dests[i] = opts_.reduce_recursions
                                  ? DetermineEdge(rv, xs[i])
                                  : DetermineEdgeLinear(rv, xs[i]);
                 }
               });
      return;
    }
    // Ablation paths (Figure 13): a fresh deviate may be drawn inside the
    // determiner (Idea#3 off) or the CDF is recomputed per access (Idea#1
    // off), so attempts stay strictly sequential — blocks of one.
    RunScope(u, degree, 1, scratch, stats, sink,
             [&](VertexId* dests, std::size_t) {
               if (opts_.reuse_rec_vec) {
                 Real x = NextUniformReal<Real>(&rng, rv.Total());
                 dests[0] = DetermineEdgeWithOptions(rv, x, &rng, opts_);
                 return;
               }
               // Idea#1 disabled: every CDF access recomputes from the seed
               // parameters (no precomputed vector exists conceptually).
               OnDemandCdf<Real> on_demand(noise_, u);
               Real x = NextUniformReal<Real>(&rng, on_demand.Total());
               dests[0] = DetermineEdgeWithOptions(on_demand, x, &rng, opts_);
               ++stats->rec_vec_builds;  // counts per-edge recomputation work
             });
  }

  /// True when GenerateScope routes through the table kernel (exposed for
  /// tests/benches; depends on Real, the determiner options, and nothing
  /// else — never on worker count or SIMD availability).
  bool uses_table_kernel() const { return use_tables_; }

  /// Read-only access to the prefix tables (empty unless the table kernel is
  /// active). Used by the inversion-equivalence tests.
  const AvsPrefixTables& prefix_tables() const {
    return tables_view_ != nullptr ? *tables_view_ : tables_;
  }

 private:
  static constexpr bool kRealIsDouble = std::is_same_v<Real, double>;

  /// Scopes between publications of the batched per-scope observations:
  /// rare enough that the shared atomics cost nothing per scope, frequent
  /// enough that `--progress` still ticks smoothly mid-run.
  static constexpr std::uint64_t kObsFlushScopes = 4096;

  /// Publishes the scratch's pending `avs.scope_degree` observations and
  /// `progress.edges` count.
  void FlushObs(ScopeScratch<Real>* scratch) const {
    if (degree_hist_ != nullptr) {
      scratch->pending_degrees.FlushTo(degree_hist_);
    } else {
      scratch->pending_degrees = obs::HistogramBatch();
    }
    if (live_edges_ != nullptr && scratch->pending_edges != 0) {
      live_edges_->Add(scratch->pending_edges);
    }
    scratch->pending_edges = 0;
  }

  /// The table kernel (ROADMAP item 2): one LaneRng stream per scope, scope
  /// size from the precomputed row-mass product (no RecVec build), and
  /// destinations by block inversion of batched unit deviates (no per-edge
  /// descent). The batches consume the scope's counter stream in order, so
  /// SIMD-on and SIMD-off runs are bit-identical.
  void GenerateScopeTables(VertexId u, const rng::Rng& root,
                           ScopeScratch<Real>* scratch, AvsWorkerStats* stats,
                           ScopeSink* sink) const {
    // Same fork namespace as rng::Rng::Fork: deterministic per (root, u),
    // independent of which worker or chunk runs the scope.
    rng::LaneRng lane(rng::MixSeeds(root.StreamKey(), u + 1));
    const AvsPrefixTables::ScopeView view = tables_view_->ViewFor(u);

    const std::uint64_t degree =
        SampleScopeSize(num_edges_, view.total, num_vertices_, &lane);
    if (degree == 0) return;

    const std::uint64_t n = RunScope(
        u, degree, kDrawBatch, scratch, stats, sink,
        [&](VertexId* dests, std::size_t block) {
          double xs[kDrawBatch];
          lane.FillUnit(xs, block);
          tables_view_->InvertBlock(view, xs, dests, block);
        });
    stats->table_scopes += 1;
    stats->table_edges += n;
  }

  /// The scope tail both kernels share (Algorithm 4 lines 3-8): dedup
  /// reset, budget accounting, the rejection loop, stats, observations, and
  /// the sink. `draw(dests, n)` writes the next n candidate destinations
  /// (n <= max_block <= kDrawBatch), consuming the scope's stream exactly
  /// as n sequential draws would. Returns the scope's edge count.
  template <typename Draw>
  std::uint64_t RunScope(VertexId u, std::uint64_t degree,
                         std::size_t max_block, ScopeScratch<Real>* scratch,
                         AvsWorkerStats* stats, ScopeSink* sink,
                         Draw&& draw) const {
    ScopeDedup& dedup = scratch->dedup;
    const std::uint64_t wiped_before = dedup.wiped_words();
    dedup.Reset(degree, num_vertices_);
    if (scratch->adj.size() < degree) scratch->adj.resize(degree);
    VertexId* adj = scratch->adj.data();

    // Account the per-scope working set against the machine budget: this is
    // exactly the O(d_max) space term of Table 1. Neither dedup
    // representation grows inside a scope, so one charge covers it; the
    // worker's lease holds its largest one.
    const std::uint64_t scope_bytes =
        dedup.MemoryBytes() + degree * sizeof(VertexId);
    if (!scratch->scope_lease.has_value()) {
      scratch->scope_lease.emplace(budget_, scope_bytes, scope_tag_);
    } else if (scratch->scope_lease->bytes() < scope_bytes) {
      scratch->scope_lease->ResizeTo(scope_bytes);
    }
    stats->peak_scope_bytes = std::max(stats->peak_scope_bytes, scope_bytes);

    // Rejection loop (Algorithm 4 lines 4-7): repeat until `degree` distinct
    // neighbors are collected. The attempt cap only matters for near-dense
    // scopes, which realistic sparse configurations never produce. A block
    // never asks for more than the edges still missing, so InsertBlock's
    // writes from `adj + n` stay inside the scope's `degree` slots.
    const std::uint64_t max_attempts = 100 * degree + 10000;
    const VertexId skip = exclude_self_loops_ ? u : ScopeDedup::kNoSkip;
    std::uint64_t attempts = 0;
    std::uint64_t n = 0;
    VertexId dests[kDrawBatch];
    while (n < degree && attempts < max_attempts) {
      const std::uint64_t block = std::min<std::uint64_t>(
          {degree - n, max_block, max_attempts - attempts});
      draw(dests, static_cast<std::size_t>(block));
      attempts += block;
      stats->cdf_evaluations += block;
      n += dedup.InsertBlock(dests, static_cast<std::size_t>(block), adj + n,
                             skip);
    }
    dedup.WipeDirty();
    stats->dedup_wiped_words += dedup.wiped_words() - wiped_before;

    stats->num_edges += n;
    stats->num_scopes += 1;
    stats->max_degree = std::max<std::uint64_t>(stats->max_degree, n);
    if (degree_hist_ != nullptr || live_edges_ != nullptr) {
      scratch->pending_degrees.Observe(n);
      scratch->pending_edges += n;
      if (scratch->pending_degrees.count() >= kObsFlushScopes) {
        FlushObs(scratch);
      }
    }
    sink->ConsumeScope(u, adj, n);
    return n;
  }

  static double ToDouble(double v) { return v; }
  static double ToDouble(const numeric::DoubleDouble& v) {
    return v.ToDouble();
  }

  const model::NoiseVector* noise_;
  std::uint64_t num_edges_;
  DeterminerOptions opts_;
  MemoryBudget* budget_;
  MemoryBudget::TagStats* scope_tag_;
  VertexId num_vertices_;
  bool exclude_self_loops_;
  obs::Histogram* degree_hist_;
  obs::Counter* live_edges_;
  bool use_tables_ = false;
  AvsPrefixTables tables_;
  /// The tables the hot path reads: &tables_ normally, the caller's shared
  /// instance when one was injected. Null only when use_tables_ is false.
  const AvsPrefixTables* tables_view_ = nullptr;
  std::optional<ScopedAllocation> tables_mem_;
};

}  // namespace tg::core

#endif  // TRILLIONG_CORE_AVS_GENERATOR_H_
