#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/avs_generator.h"
#include "core/cdf_vector.h"
#include "core/prefix_tables.h"
#include "core/scope_dedup.h"
#include "core/trilliong.h"
#include "format/adj6.h"
#include "format/csr6.h"
#include "format/tsv.h"
#include "model/edge_probability.h"
#include "obs/metrics.h"
#include "rng/lane_rng.h"
#include "storage/temp_dir.h"

namespace tg::core {
namespace {

using model::EdgeProbability;
using model::NoiseVector;
using model::SeedMatrix;

/// Collects scopes in memory for inspection.
class VectorSink : public ScopeSink {
 public:
  void ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) override {
    auto& dsts = scopes_[u];
    dsts.assign(adj, adj + n);
    num_edges_ += n;
  }

  const std::map<VertexId, std::vector<VertexId>>& scopes() const {
    return scopes_;
  }
  std::uint64_t num_edges() const { return num_edges_; }

 private:
  std::map<VertexId, std::vector<VertexId>> scopes_;
  std::uint64_t num_edges_ = 0;
};

TrillionGConfig SmallConfig(int scale = 10) {
  TrillionGConfig config;
  config.scale = scale;
  config.edge_factor = 8;
  config.rng_seed = 4242;
  return config;
}

/// Order-independent hash of the whole generated graph, usable with any
/// worker count (per-scope hashes commute under addition).
std::uint64_t HashedGraph(const TrillionGConfig& config) {
  class HashSink : public ScopeSink {
   public:
    explicit HashSink(std::atomic<std::uint64_t>* acc) : acc_(acc) {}
    void ConsumeScope(VertexId u, const VertexId* adj,
                      std::size_t n) override {
      std::uint64_t h = rng::MixSeeds(u, n);
      for (std::size_t i = 0; i < n; ++i) h = rng::MixSeeds(h, adj[i]);
      acc_->fetch_add(h, std::memory_order_relaxed);
    }

   private:
    std::atomic<std::uint64_t>* acc_;
  };
  std::atomic<std::uint64_t> acc{0};
  Generate(config,
           [&](int, VertexId, VertexId) -> std::unique_ptr<ScopeSink> {
             return std::make_unique<HashSink>(&acc);
           });
  return acc.load();
}

TEST(AvsGeneratorTest, TotalEdgesCloseToTarget) {
  TrillionGConfig config = SmallConfig(12);
  VectorSink sink;
  GenerateStats stats = GenerateToSink(config, &sink);
  double expected = static_cast<double>(config.NumEdges());
  // Theorem 1: total is stochastic, stddev is O(sqrt(|E|)).
  EXPECT_NEAR(static_cast<double>(stats.num_edges), expected,
              5 * std::sqrt(expected));
  EXPECT_EQ(stats.num_edges, sink.num_edges());
}

TEST(AvsGeneratorTest, NoDuplicateEdgesWithinScope) {
  TrillionGConfig config = SmallConfig(10);
  VectorSink sink;
  GenerateToSink(config, &sink);
  for (const auto& [u, dsts] : sink.scopes()) {
    std::set<VertexId> unique(dsts.begin(), dsts.end());
    EXPECT_EQ(unique.size(), dsts.size()) << "scope " << u;
  }
}

TEST(AvsGeneratorTest, AllDestinationsInRange) {
  TrillionGConfig config = SmallConfig(10);
  VectorSink sink;
  GenerateToSink(config, &sink);
  const VertexId n = config.NumVertices();
  for (const auto& [u, dsts] : sink.scopes()) {
    EXPECT_LT(u, n);
    for (VertexId v : dsts) EXPECT_LT(v, n);
  }
}

TEST(AvsGeneratorTest, DeterministicGivenSeed) {
  TrillionGConfig config = SmallConfig(10);
  VectorSink sink1, sink2;
  GenerateToSink(config, &sink1);
  GenerateToSink(config, &sink2);
  EXPECT_EQ(sink1.scopes(), sink2.scopes());
}

TEST(AvsGeneratorTest, DifferentSeedsProduceDifferentGraphs) {
  TrillionGConfig config = SmallConfig(10);
  VectorSink sink1, sink2;
  GenerateToSink(config, &sink1);
  config.rng_seed = 777;
  GenerateToSink(config, &sink2);
  EXPECT_NE(sink1.scopes(), sink2.scopes());
}

TEST(AvsGeneratorTest, WorkerCountDoesNotChangeOutput) {
  // Per-scope RNG forking must make the graph identical for any worker
  // count: compare a 1-worker run against a 4-worker run, merging shards.
  TrillionGConfig config = SmallConfig(11);

  config.num_workers = 1;
  VectorSink single;
  GenerateToSink(config, &single);
  const std::map<VertexId, std::vector<VertexId>>& reference = single.scopes();
  const std::uint64_t reference_edges = single.num_edges();

  config.num_workers = 4;
  std::vector<std::shared_ptr<VectorSink>> shard_sinks(4);
  class Shard : public ScopeSink {
   public:
    explicit Shard(VectorSink* inner) : inner_(inner) {}
    void ConsumeScope(VertexId u, const VertexId* adj,
                      std::size_t n) override {
      inner_->ConsumeScope(u, adj, n);
    }

   private:
    VectorSink* inner_;
  };
  Generate(config, [&](int w, VertexId, VertexId) -> std::unique_ptr<ScopeSink> {
    shard_sinks[w] = std::make_shared<VectorSink>();
    return std::make_unique<Shard>(shard_sinks[w].get());
  });

  std::map<VertexId, std::vector<VertexId>> merged;
  std::uint64_t merged_edges = 0;
  for (const auto& sink : shard_sinks) {
    for (const auto& [u, dsts] : sink->scopes()) {
      EXPECT_EQ(merged.count(u), 0u) << "scope split across workers";
      merged[u] = dsts;
    }
    merged_edges += sink->num_edges();
  }
  EXPECT_EQ(merged, reference);
  EXPECT_EQ(merged_edges, reference_edges);
}

TEST(AvsGeneratorTest, ScopesArriveInIncreasingOrder) {
  TrillionGConfig config = SmallConfig(10);
  class OrderSink : public ScopeSink {
   public:
    void ConsumeScope(VertexId u, const VertexId*, std::size_t) override {
      EXPECT_TRUE(last_ == ~VertexId{0} || u > last_);
      last_ = u;
    }
    VertexId last_ = ~VertexId{0};
  };
  OrderSink sink;
  GenerateToSink(config, &sink);
}

TEST(AvsGeneratorTest, OutDegreeMeanMatchesTheorem1) {
  // Empirical mean degree of a specific vertex over many runs ~ |E| * P_u->.
  // Scale/edge count chosen so the expected degree (~66) is well below |V|,
  // keeping dedup clipping negligible.
  const int scale = 10;
  SeedMatrix seed = SeedMatrix::Graph500();
  EdgeProbability prob(seed, scale);
  NoiseVector noise(seed, scale);
  const std::uint64_t num_edges = 1024;
  DeterminerOptions opts;
  AvsRangeGenerator<double> gen(&noise, num_edges, opts);

  VertexId u = 0;  // densest row
  double expected = num_edges * prob.RowProbability(u);
  double total = 0;
  const int runs = 300;
  ScopeScratch<double> scratch;  // reused across runs, like a real worker
  for (int r = 0; r < runs; ++r) {
    rng::Rng root(9000 + r);
    CountingSink sink;
    AvsWorkerStats stats;
    gen.GenerateScope(u, root, &scratch, &stats, &sink);
    total += static_cast<double>(stats.num_edges);
  }
  double mean = total / runs;
  // Dedup clips a little mass; allow 5% + sampling noise.
  EXPECT_NEAR(mean, expected, 0.05 * expected + 3.0);
}

TEST(AvsGeneratorTest, InDegreeDistributionMatchesColumnMarginals) {
  // Aggregate in-degree mass of mid-tail destination bands must match the
  // column marginals E[indeg(v)] = |E| * P_->v. Head vertices are excluded:
  // per-scope dedup legitimately clips columns whose per-cell expected
  // multiplicity exceeds 1 (the paper's epsilon ~ 0.01 duplicate rate is an
  // aggregate, not a head-cell statement).
  TrillionGConfig config = SmallConfig(12);
  config.edge_factor = 1;
  VectorSink sink;
  GenerateToSink(config, &sink);

  std::vector<double> indeg(config.NumVertices(), 0.0);
  for (const auto& [u, dsts] : sink.scopes()) {
    (void)u;
    for (VertexId v : dsts) indeg[v] += 1;
  }
  EdgeProbability prob(config.seed, config.scale);
  // Band = all destinations with popcount 3 (mid-tail: per-cell multiplicity
  // far below 1, so dedup is negligible).
  double observed = 0.0, expected = 0.0;
  for (VertexId v = 0; v < config.NumVertices(); ++v) {
    if (std::popcount(v) == 3) {
      observed += indeg[v];
      expected += config.NumEdges() * prob.ColProbability(v);
    }
  }
  EXPECT_NEAR(observed, expected, 0.05 * expected + 5 * std::sqrt(expected));
}

TEST(AvsGeneratorTest, PeakScopeBytesIsSmall) {
  TrillionGConfig config = SmallConfig(14);
  config.edge_factor = 8;
  CountingSink sink;
  GenerateStats stats = GenerateToSink(config, &sink);
  // O(d_max): the working set is bounded by the dedup set (<= 32 bytes per
  // entry at worst-case load) plus the adjacency buffer (8 bytes per entry).
  EXPECT_GT(stats.max_degree, 0u);
  EXPECT_LT(stats.peak_scope_bytes, 40 * stats.max_degree + 4096);
  // And it is far below the O(|E|) footprint a WES generator would need.
  EXPECT_LT(stats.peak_scope_bytes,
            config.NumEdges() * sizeof(VertexId) / 8);
}

TEST(AvsGeneratorTest, MemoryBudgetOomPropagates) {
  TrillionGConfig config = SmallConfig(12);
  MemoryBudget tiny_budget(64);  // far below any scope working set
  config.budget = &tiny_budget;
  CountingSink sink;
  EXPECT_THROW(GenerateToSink(config, &sink), OomError);
}

TEST(AvsGeneratorTest, MemoryBudgetGenerousSucceeds) {
  TrillionGConfig config = SmallConfig(12);
  MemoryBudget budget(64 << 20);
  config.budget = &budget;
  CountingSink sink;
  GenerateStats stats = GenerateToSink(config, &sink);
  EXPECT_GT(stats.num_edges, 0u);
  EXPECT_GT(budget.peak_bytes(), 0u);
  EXPECT_EQ(budget.used_bytes(), 0u);  // all scope allocations released
}

TEST(AvsGeneratorTest, NoiseChangesGraphButKeepsSize) {
  TrillionGConfig config = SmallConfig(12);
  VectorSink plain;
  GenerateToSink(config, &plain);
  config.noise = 0.1;
  VectorSink noisy;
  GenerateToSink(config, &noisy);
  EXPECT_NE(plain.scopes(), noisy.scopes());
  double expected = static_cast<double>(config.NumEdges());
  EXPECT_NEAR(static_cast<double>(noisy.num_edges()), expected,
              0.02 * expected + 5 * std::sqrt(expected));
}

TEST(AvsGeneratorTest, DirectionInSwapsDegreesStatistically) {
  // AVS-I with an asymmetric seed: scopes are destinations, so the "scope
  // degree" distribution should match the seed's *column* marginals.
  TrillionGConfig config = SmallConfig(10);
  config.seed = SeedMatrix(0.6, 0.25, 0.1, 0.05);  // strongly asymmetric
  config.direction = Direction::kIn;
  VectorSink sink;
  GenerateToSink(config, &sink);
  EdgeProbability prob(config.seed, config.scale);
  // Scope 0 should have ~|E| * P_->0 neighbors (column marginal).
  auto it = sink.scopes().find(0);
  ASSERT_NE(it, sink.scopes().end());
  double expected = config.NumEdges() * prob.ColProbability(0);
  EXPECT_NEAR(static_cast<double>(it->second.size()), expected,
              0.3 * expected);
}

TEST(AvsGeneratorTest, DoubleDoublePrecisionProducesValidGraph) {
  TrillionGConfig config = SmallConfig(10);
  config.precision = Precision::kDoubleDouble;
  VectorSink sink;
  GenerateStats stats = GenerateToSink(config, &sink);
  double expected = static_cast<double>(config.NumEdges());
  EXPECT_NEAR(static_cast<double>(stats.num_edges), expected,
              5 * std::sqrt(expected));
  for (const auto& [u, dsts] : sink.scopes()) {
    (void)u;
    for (VertexId v : dsts) EXPECT_LT(v, config.NumVertices());
  }
}

TEST(AvsGeneratorTest, AblationVariantsProduceSameEdgeCountScale) {
  // All 8 idea combinations must produce statistically identical graphs.
  TrillionGConfig config = SmallConfig(10);
  double expected = static_cast<double>(config.NumEdges());
  for (bool idea1 : {false, true}) {
    for (bool idea2 : {false, true}) {
      for (bool idea3 : {false, true}) {
        config.determiner = {idea1, idea2, idea3};
        CountingSink sink;
        GenerateStats stats = GenerateToSink(config, &sink);
        EXPECT_NEAR(static_cast<double>(stats.num_edges), expected,
                    5 * std::sqrt(expected))
            << idea1 << idea2 << idea3;
      }
    }
  }
}

TEST(AvsGeneratorTest, RecVecBuildCountReflectsIdea1) {
  TrillionGConfig config = SmallConfig(10);
  CountingSink sink1;
  config.determiner.reuse_rec_vec = true;
  GenerateStats cached = GenerateToSink(config, &sink1);
  // With reuse: one build per scope (plus none per edge).
  EXPECT_LE(cached.rec_vec_builds, config.NumVertices());

  config.determiner.reuse_rec_vec = false;
  CountingSink sink2;
  GenerateStats uncached = GenerateToSink(config, &sink2);
  // Without reuse: at least one build per edge attempt.
  EXPECT_GT(uncached.rec_vec_builds, uncached.num_edges);
  EXPECT_GT(uncached.rec_vec_builds, cached.rec_vec_builds * 4);
}

TEST(AvsGeneratorTest, SelfLoopExclusion) {
  TrillionGConfig config = SmallConfig(10);
  config.edge_factor = 16;

  VectorSink with_loops;
  GenerateToSink(config, &with_loops);
  std::uint64_t loops = 0;
  for (const auto& [u, dsts] : with_loops.scopes()) {
    for (VertexId v : dsts) {
      if (v == u) ++loops;
    }
  }
  // Graph500-parameter graphs produce plenty of self loops by default (the
  // diagonal is heavy under [a; d] skew).
  EXPECT_GT(loops, 0u);

  config.exclude_self_loops = true;
  VectorSink without;
  GenerateStats stats = GenerateToSink(config, &without);
  for (const auto& [u, dsts] : without.scopes()) {
    for (VertexId v : dsts) EXPECT_NE(v, u);
  }
  // Mass is preserved: excluded loops are re-drawn, not dropped.
  double expected = static_cast<double>(config.NumEdges());
  EXPECT_NEAR(static_cast<double>(stats.num_edges), expected,
              0.03 * expected + 6 * std::sqrt(expected));
}

TEST(AvsGeneratorTest, ZeroDegreeScopesAreSkipped) {
  TrillionGConfig config = SmallConfig(12);
  config.edge_factor = 1;  // sparse: most scopes empty at tail
  VectorSink sink;
  GenerateStats stats = GenerateToSink(config, &sink);
  EXPECT_LT(stats.num_scopes, config.NumVertices());
  for (const auto& [u, dsts] : sink.scopes()) {
    (void)u;
    EXPECT_FALSE(dsts.empty());
  }
}

// --- The table kernel (core/prefix_tables.h + rng/lane_rng.h). ---

TEST(PrefixTablesTest, InversionMatchesCdfVectorExhaustively) {
  // Ground truth: for every source u and destination v at small scales, the
  // midpoint of v's normalized CDF interval must invert to exactly v. This
  // checks every boundary, every group width (scale 9 -> widths 8 + 1), and
  // the per-scope row-mass product against the materialized CDF.
  for (int scale : {1, 3, 8, 9}) {
    NoiseVector noise(SeedMatrix::Graph500(), scale);
    AvsPrefixTables tables(noise);
    const VertexId n = VertexId{1} << scale;
    for (VertexId u = 0; u < n; ++u) {
      CdfVector cdf(noise, u);
      const AvsPrefixTables::ScopeView view = tables.ViewFor(u);
      EXPECT_NEAR(view.total, cdf.Total(), 1e-12 * cdf.Total());
      for (VertexId v = 0; v < n; ++v) {
        const double mid = (cdf[v] + cdf[v + 1]) / (2.0 * cdf.Total());
        EXPECT_EQ(tables.Invert(view, mid), v)
            << "scale=" << scale << " u=" << u << " v=" << v;
      }
      // Extremes of the deviate range stay in range.
      EXPECT_EQ(tables.Invert(view, 0.0), 0u);
      EXPECT_LT(tables.Invert(view, 0x1.fffffffffffffp-1), n);
    }
  }
}

TEST(PrefixTablesTest, InversionMatchesCdfVectorUnderNoise) {
  // NSKG noise gives every level a different matrix, exercising the
  // per-level table entries (not just a repeated base matrix).
  rng::Rng noise_rng(7, 99);
  NoiseVector noise(SeedMatrix::Graph500(), 7, 0.05, &noise_rng);
  AvsPrefixTables tables(noise);
  const VertexId n = VertexId{1} << 7;
  for (VertexId u = 0; u < n; u += 13) {
    CdfVector cdf(noise, u);
    const AvsPrefixTables::ScopeView view = tables.ViewFor(u);
    for (VertexId v = 0; v < n; ++v) {
      const double mid = (cdf[v] + cdf[v + 1]) / (2.0 * cdf.Total());
      EXPECT_EQ(tables.Invert(view, mid), v) << "u=" << u << " v=" << v;
    }
  }
}

/// Invert with a plain scan from outcome 0 in every group — no guide, no
/// branchless steps. The guide only ever starts the scan at or below the
/// answer, so this must match AvsPrefixTables::Invert bit for bit.
VertexId PlainScanInvert(const AvsPrefixTables& tables,
                         const AvsPrefixTables::ScopeView& view, double y) {
  VertexId v = 0;
  for (int g = tables.num_groups() - 1; g >= 0; --g) {
    const double* bound = view.bound[g];
    unsigned p = 0;
    while (bound[p + 1] <= y) ++p;
    v |= static_cast<VertexId>(p) << (AvsPrefixTables::kGroupBits * g);
    y = std::max(std::min((y - bound[p]) * view.invw[g][p],
                          0x1.fffffffffffffp-1),
                 0.0);
  }
  return v;
}

TEST(PrefixTablesTest, InvertBlockMatchesInvertForEverySourcePattern) {
  // Deviates: every group's exact boundaries and their neighbors, the two
  // ends of [0, 1), and a spread of plain draws. Boundaries in the skewed
  // tail of a Graph500 table sit many intervals past their guide bucket's
  // start, so the rarely taken scan tail (3+ steps) is exercised too.
  std::uint64_t tail_draws = 0;
  for (int scale = 1; scale <= 12; ++scale) {
    NoiseVector noise(SeedMatrix::Graph500(), scale);
    AvsPrefixTables tables(noise);
    const VertexId n = VertexId{1} << scale;
    rng::LaneRng lane(static_cast<std::uint64_t>(scale));
    for (VertexId u = 0; u < n; ++u) {
      const AvsPrefixTables::ScopeView view = tables.ViewFor(u);
      std::vector<double> ys = {0.0, std::nextafter(1.0, 0.0)};
      for (int g = 0; g < tables.num_groups(); ++g) {
        const int entries =
            1 << std::min(AvsPrefixTables::kGroupBits,
                          scale - AvsPrefixTables::kGroupBits * g);
        for (int p = 0; p < entries; ++p) {
          const double b = view.bound[g][p];
          ys.push_back(b);
          ys.push_back(std::nextafter(b, 1.0));
          if (b > 0.0) ys.push_back(std::nextafter(b, 0.0));
        }
      }
      std::vector<double> spread(64);
      lane.FillUnit(spread.data(), spread.size());
      ys.insert(ys.end(), spread.begin(), spread.end());

      // How far the top group's scan runs past its guide bucket.
      const int top = tables.num_groups() - 1;
      const unsigned guide_size =
          2u << std::min(AvsPrefixTables::kGroupBits,
                         scale - AvsPrefixTables::kGroupBits * top);
      std::vector<VertexId> expected(ys.size());
      for (std::size_t i = 0; i < ys.size(); ++i) {
        expected[i] = tables.Invert(view, ys[i]);
        ASSERT_EQ(expected[i], PlainScanInvert(tables, view, ys[i]))
            << "scale=" << scale << " u=" << u << " y=" << ys[i];
        unsigned p = view.guide[top][static_cast<unsigned>(ys[i] * guide_size)];
        const unsigned start = p;
        while (view.bound[top][p + 1] <= ys[i]) ++p;
        if (p - start >= 3) ++tail_draws;
      }
      for (const std::size_t block : {std::size_t{1}, std::size_t{3},
                                      std::size_t{64}}) {
        std::vector<VertexId> got(ys.size());
        for (std::size_t i = 0; i < ys.size(); i += block) {
          tables.InvertBlock(view, ys.data() + i, got.data() + i,
                             std::min(block, ys.size() - i));
        }
        ASSERT_EQ(got, expected) << "scale=" << scale << " u=" << u
                                 << " block=" << block;
      }
    }
  }
  EXPECT_GT(tail_draws, 0u);
}

TEST(AvsGeneratorTest, TableKernelIsEngagedByDefault) {
  TrillionGConfig config = SmallConfig(10);
  CountingSink sink;
  GenerateStats stats = GenerateToSink(config, &sink);
  EXPECT_EQ(stats.table_scopes, stats.num_scopes);
  EXPECT_EQ(stats.table_edges, stats.num_edges);
  EXPECT_EQ(stats.rec_vec_builds, 0u);

  // Any ablation toggle (or the explicit kill switch) reverts to the
  // descent kernel.
  config.determiner.use_prefix_tables = false;
  CountingSink sink2;
  GenerateStats descent = GenerateToSink(config, &sink2);
  EXPECT_EQ(descent.table_scopes, 0u);
  EXPECT_GT(descent.rec_vec_builds, 0u);
}

TEST(AvsGeneratorTest, TableKernelMatchesTargetEdgeCount) {
  TrillionGConfig config = SmallConfig(12);
  CountingSink sink;
  GenerateStats stats = GenerateToSink(config, &sink);
  double expected = static_cast<double>(config.NumEdges());
  EXPECT_NEAR(static_cast<double>(stats.num_edges), expected,
              5 * std::sqrt(expected));
}

TEST(AvsGeneratorTest, SimdOnAndOffProduceIdenticalGraphs) {
  // The hard determinism guarantee of the SIMD kernel: forcing the portable
  // fills must reproduce the exact same graph, including under the
  // multi-worker work-stealing scheduler.
  for (int workers : {1, 4}) {
    TrillionGConfig config = SmallConfig(11);
    config.num_workers = workers;
    config.chunks_per_worker = 8;

    rng::SetLaneForcePortable(false);
    std::uint64_t hash_simd = HashedGraph(config);
    rng::SetLaneForcePortable(true);
    std::uint64_t hash_portable = HashedGraph(config);
    rng::SetLaneForcePortable(false);

    EXPECT_EQ(hash_simd, hash_portable) << "workers=" << workers;
  }
}

TEST(ScopeDedupTest, DenseWipesAreLazy) {
  // Regression for the eager bits_.assign(words, 0): a dense Reset must
  // wipe only the words the previous dense scope dirtied, and sparse
  // Resets must not touch the bitmap at all.
  ScopeDedup dedup;
  const VertexId universe = 1 << 16;  // 1024 bitmap words; dense above 256
  const std::uint64_t dense_degree = universe / 16;

  dedup.Reset(dense_degree, universe);
  ASSERT_TRUE(dedup.dense());
  EXPECT_EQ(dedup.wiped_words(), 0u);  // first Reset: fresh words are zero
  EXPECT_TRUE(dedup.Insert(0));
  EXPECT_TRUE(dedup.Insert(1));    // same word as 0
  EXPECT_TRUE(dedup.Insert(640));  // second word
  EXPECT_FALSE(dedup.Insert(640));

  // Sparse scopes in between leave the bitmap (and the wipe count) alone.
  dedup.Reset(4, universe);
  ASSERT_FALSE(dedup.dense());
  EXPECT_TRUE(dedup.Insert(123));
  EXPECT_EQ(dedup.wiped_words(), 0u);

  // The next dense Reset wipes exactly the two dirtied words — not all
  // 1024 — and the bitmap is clean again.
  dedup.Reset(dense_degree, universe);
  ASSERT_TRUE(dedup.dense());
  EXPECT_EQ(dedup.wiped_words(), 2u);
  EXPECT_TRUE(dedup.Insert(0));
  EXPECT_TRUE(dedup.Insert(640));

  dedup.Reset(dense_degree, universe);
  EXPECT_EQ(dedup.wiped_words(), 4u);
}

/// Runs one scope through `dedup` and a std::set side by side: every
/// Insert must report what the set reports, and the sizes must agree.
void ExpectDedupMatchesSet(ScopeDedup* dedup, std::uint64_t degree,
                           VertexId universe,
                           const std::vector<VertexId>& values) {
  dedup->Reset(degree, universe);
  std::set<VertexId> reference;
  for (VertexId v : values) {
    ASSERT_EQ(dedup->Insert(v), reference.insert(v).second)
        << "v=" << v << " degree=" << degree;
  }
  EXPECT_EQ(dedup->size(), reference.size());
}

/// `count` draws from `distinct` values spread over [0, universe).
std::vector<VertexId> DedupDraws(std::size_t count, std::size_t distinct,
                                 VertexId universe, std::uint64_t seed) {
  rng::Rng rng(seed, 3);
  std::vector<VertexId> pool(distinct);
  for (VertexId& v : pool) v = rng.NextUint64() % universe;
  std::vector<VertexId> draws(count);
  for (VertexId& v : draws) v = pool[rng.NextUint64() % distinct];
  return draws;
}

TEST(ScopeDedupTest, StampWrapAroundKeepsScopesApart) {
  // A large scope every 65535 resets lands on the same stamp as the
  // previous one once the stamp has wrapped, with most of its slots never
  // touched by the small scopes in between: only the wrap's wipe keeps
  // those stale slots from reading as duplicates.
  ScopeDedup dedup;
  const VertexId universe = VertexId{1} << 40;
  std::vector<VertexId> large(1000);
  for (std::size_t i = 0; i < large.size(); ++i) large[i] = i * 7919 + 3;
  for (std::uint64_t scope = 0; scope <= 2 * 65535; ++scope) {
    if (scope % 65535 == 0) {
      ExpectDedupMatchesSet(&dedup, large.size(), universe, large);
      continue;
    }
    dedup.Reset(4, universe);
    ASSERT_TRUE(dedup.Insert(7)) << "scope=" << scope;
    ASSERT_FALSE(dedup.Insert(7));
    ASSERT_TRUE(dedup.Insert(scope + 1000));
    ASSERT_EQ(dedup.size(), 2u);
  }
}

TEST(ScopeDedupTest, SmallScopeAfterLargeScope) {
  // The small scope probes only its own slice of the grown table; ids the
  // large scope left behind must not read as duplicates.
  ScopeDedup dedup;
  const VertexId universe = VertexId{1} << 30;
  std::vector<VertexId> large(20000);
  for (std::size_t i = 0; i < large.size(); ++i) large[i] = i * 7919 + 1;
  ExpectDedupMatchesSet(&dedup, large.size(), universe, large);
  const std::size_t large_bytes = dedup.MemoryBytes();
  ExpectDedupMatchesSet(&dedup, 3, universe, {large[0], large[1], large[0]});
  EXPECT_LT(dedup.MemoryBytes(), large_bytes);  // charged by its own size
  ExpectDedupMatchesSet(&dedup, large.size(), universe, large);
}

TEST(ScopeDedupTest, SparseDenseAlternationMatchesSet) {
  ScopeDedup dedup;
  const VertexId universe = 1 << 12;  // dense above degree 16
  for (int round = 0; round < 40; ++round) {
    const bool dense = round % 2 == 0;
    const std::size_t degree = dense ? 100 + round : 10 + round % 7;
    ExpectDedupMatchesSet(&dedup, degree, universe,
                          DedupDraws(4 * degree, degree, universe, round));
    EXPECT_EQ(dedup.dense(), dense) << "round=" << round;
  }
}

TEST(ScopeDedupTest, DuplicateHeavyScopesMatchSet) {
  // Far more draws than distinct values: most inserts hit an occupied slot
  // of this scope, some probe past slots stale from earlier scopes.
  ScopeDedup dedup;
  const VertexId universe = VertexId{1} << 22;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const std::size_t degree = 1 + seed % 40;
    ExpectDedupMatchesSet(&dedup, degree, universe,
                          DedupDraws(50 * degree, degree, 64, seed));
  }
}

/// Runs one scope through `ref`, one Insert per candidate, and through
/// `blk`, one InsertBlock per block of 1 to 64 candidates, both dropping
/// `skip`: every block's count, the appended sequence, the sizes and the
/// wiped words must agree.
void ExpectInsertBlockMatchesInsert(ScopeDedup* ref, ScopeDedup* blk,
                                    std::uint64_t degree, VertexId universe,
                                    const std::vector<VertexId>& values,
                                    VertexId skip) {
  ref->Reset(degree, universe);
  blk->Reset(degree, universe);
  ASSERT_EQ(blk->dense(), ref->dense());
  std::vector<VertexId> want;
  std::vector<VertexId> got(values.size());
  std::size_t n = 0;
  for (std::size_t at = 0, b = 0; at < values.size(); ++b) {
    const std::size_t m =
        std::min<std::size_t>(values.size() - at, 1 + (b * 37) % 64);
    std::size_t appended = 0;
    for (std::size_t i = at; i < at + m; ++i) {
      if (values[i] == skip || !ref->Insert(values[i])) continue;
      want.push_back(values[i]);
      ++appended;
    }
    ASSERT_EQ(blk->InsertBlock(values.data() + at, m, got.data() + n, skip),
              appended)
        << "degree=" << degree << " block at " << at;
    n += appended;
    at += m;
  }
  got.resize(n);
  EXPECT_EQ(got, want) << "degree=" << degree;
  EXPECT_EQ(blk->size(), ref->size());
  ref->WipeDirty();
  blk->WipeDirty();
  EXPECT_EQ(blk->wiped_words(), ref->wiped_words());
}

TEST(ScopeDedupTest, InsertBlockMatchesInsert) {
  ScopeDedup ref;
  ScopeDedup blk;
  const VertexId universe = VertexId{1} << 16;  // dense above degree 256
  std::uint64_t seed = 0;
  for (VertexId skip : {ScopeDedup::kNoSkip, VertexId{0}}) {
    // Sparse, dense, both sides of the threshold, and duplicate-heavy
    // scopes (far more draws than distinct values). When skip is set, every
    // fifth draw is `skip`, which neither form may insert.
    for (std::uint64_t degree :
         {1, 2, 7, 40, 63, 64, 200, 255, 256, 257, 1000, 5000}) {
      for (std::size_t draws : {degree, 4 * degree, 50 * degree}) {
        std::vector<VertexId> values =
            DedupDraws(draws, degree, universe, ++seed);
        if (skip != ScopeDedup::kNoSkip) {
          for (std::size_t i = 0; i < values.size(); i += 5) values[i] = skip;
        }
        ExpectInsertBlockMatchesInsert(&ref, &blk, degree, universe, values,
                                       skip);
      }
    }
  }
  // Stamp wrap: small scopes through two wraps, a large one on each.
  const VertexId wide = VertexId{1} << 40;
  std::vector<VertexId> large(1000);
  for (std::size_t i = 0; i < large.size(); ++i) large[i] = i * 7919 + 3;
  for (std::uint64_t scope = 0; scope <= 2 * 65535; ++scope) {
    if (scope % 65535 == 0) {
      ExpectInsertBlockMatchesInsert(&ref, &blk, large.size(), wide, large,
                                     ScopeDedup::kNoSkip);
      continue;
    }
    ExpectInsertBlockMatchesInsert(&ref, &blk, 4, wide,
                                   {7, scope + 1000, 7, scope}, 7);
    if (HasFatalFailure()) return;
  }
}

TEST(ScopeDedupTest, MemoryIsNeverAboveTheBitmapOrMinimumTable) {
  // Scopes are dense above |V|/256, where the table (4 slots per entry)
  // would outgrow the bitmap, so no degree costs more than the bitmap's
  // |V|/8 bytes or the 16-slot minimum table.
  ScopeDedup dedup;
  for (int levels : {4, 8, 12, 16, 20}) {
    const VertexId universe = VertexId{1} << levels;
    const std::size_t bound = std::max<std::size_t>(universe / 8, 128);
    std::vector<std::uint64_t> degrees = {universe / 256 - 1, universe / 256,
                                          universe / 256 + 1, universe};
    for (std::uint64_t d = 1; d <= universe; d += 1 + d / 8) {
      degrees.push_back(d);
    }
    for (std::uint64_t degree : degrees) {
      if (degree == 0 || degree > universe) continue;
      dedup.Reset(degree, universe);
      EXPECT_LE(dedup.MemoryBytes(), bound)
          << "levels=" << levels << " degree=" << degree;
      EXPECT_EQ(dedup.dense(), degree > universe / 256)
          << "levels=" << levels << " degree=" << degree;
    }
  }
}

TEST(AvsGeneratorTest, DedupWipeWorkIsProportionalToEdges) {
  // End-to-end regression: total wiped bitmap words across a run must be
  // bounded by the edges inserted into dense scopes, never by
  // scopes * |V|/64 (the eager-clearing cost).
  TrillionGConfig config = SmallConfig(10);
  config.edge_factor = 32;  // push some scopes over the dense threshold
  const std::uint64_t before =
      obs::GetCounter("kernel.dedup_wiped_words")->value();
  CountingSink sink;
  GenerateStats stats = GenerateToSink(config, &sink);
  const std::uint64_t wiped =
      obs::GetCounter("kernel.dedup_wiped_words")->value() - before;
  EXPECT_LE(wiped, stats.num_edges);
}

TEST(AvsGeneratorTest, DedupWipeCountIsScheduleIndependent) {
  // Each dense scope wipes its own dirtied words before it returns, so the
  // gated counter is a function of the scopes alone: it must not move with
  // the worker count or with which worker's dedup buffer ran which scope.
  TrillionGConfig config = SmallConfig(10);
  config.edge_factor = 32;  // most scopes are dense
  auto wiped_words = [&](int workers, bool reversed) {
    TrillionGConfig run = config;
    run.num_workers = workers;
    if (reversed) {
      run.worker_runner = [](std::vector<std::function<void()>>& bodies) {
        for (auto body = bodies.rbegin(); body != bodies.rend(); ++body) {
          (*body)();
        }
      };
    }
    obs::Counter* counter = obs::GetCounter("kernel.dedup_wiped_words");
    const std::uint64_t before = counter->value();
    Generate(run, [](int, VertexId, VertexId) -> std::unique_ptr<ScopeSink> {
      return std::make_unique<CountingSink>();
    });
    return counter->value() - before;
  };
  const std::uint64_t one_worker = wiped_words(1, false);
  EXPECT_GT(one_worker, 0u);
  EXPECT_EQ(wiped_words(4, false), one_worker);
  EXPECT_EQ(wiped_words(4, true), one_worker);
}

/// FNV-1a over the concatenated shards a scale-16, seed-42 run writes in
/// format `ext` with `workers` workers (shards in worker order).
std::uint64_t GoldenDigest(const std::string& ext, int workers) {
  storage::TempDir dir("golden");
  TrillionGConfig config;
  config.scale = 16;
  config.edge_factor = 16;
  config.rng_seed = 42;
  config.num_workers = workers;
  std::vector<std::string> paths(workers);
  Generate(config,
           [&](int w, VertexId lo, VertexId hi) -> std::unique_ptr<ScopeSink> {
             paths[w] = dir.File("g.w" + std::to_string(w) + "." + ext);
             if (ext == "tsv") {
               return std::make_unique<format::TsvWriter>(paths[w]);
             }
             if (ext == "adj6") {
               return std::make_unique<format::Adj6Writer>(paths[w]);
             }
             return std::make_unique<format::Csr6Writer>(paths[w], lo, hi);
           });
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
      h ^= static_cast<unsigned char>(*it);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(GoldenBytesTest, Scale16ShardDigestsArePinned) {
  // Recorded before the batched table kernel (block inversion, stamped
  // dedup, per-scope encoder reservations) replaced the per-deviate loop.
  // A kernel, dedup or encoder change that moves a single output byte in
  // any format or at any worker count fails here.
  struct Golden {
    const char* ext;
    int workers;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {"adj6", 1, 0xe07e41eef6cf166fULL}, {"adj6", 3, 0xe07e41eef6cf166fULL},
      {"tsv", 1, 0x4b4583ccd2ef06f8ULL},  {"tsv", 3, 0x4b4583ccd2ef06f8ULL},
      {"csr6", 1, 0xabfbebc75b1ec492ULL}, {"csr6", 3, 0x953824050fedad5aULL},
  };
  // Once under the fill the CPU selects (AVX2 where present) and once
  // under the portable fill, so every ctest pins both kernels.
  for (const bool force_portable : {false, true}) {
    rng::SetLaneForcePortable(force_portable);
    for (const Golden& g : goldens) {
      const std::uint64_t digest = GoldenDigest(g.ext, g.workers);
      EXPECT_EQ(digest, g.digest)
          << std::hex << "ext=" << g.ext << " workers=" << g.workers
          << " force_portable=" << force_portable << " digest=0x" << digest;
    }
  }
  rng::SetLaneForcePortable(false);
}

}  // namespace
}  // namespace tg::core
