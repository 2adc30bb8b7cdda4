// serve/artifact_cache.h — cross-request memoization for the serve daemon.
//
// TrillionG generation is a pure function of its validated parameters
// (shuffle-free AVS partitioning, per-scope RNG forking), which makes two
// kinds of reuse correct by construction:
//
//  * Model artifacts. The prefix tables (core/prefix_tables.h) and the CDF
//    partition plan (core/partitioner.h) depend only on the noise vector —
//    seed matrix, scale, noise, direction, and the rng seed only when
//    noise > 0 (it draws the NSKG noise) — and, for the plan, the worker
//    count. Requests sharing a model reuse one read-only
//    instance instead of rebuilding per request; TrillionGConfig's
//    shared_prefix_tables / precomputed_boundaries inject them into the
//    run, whose output bytes are identical either way.
//
//  * Whole graphs. Small popular configurations are kept content-addressed
//    by fault::ConfigFingerprint (the hash the resume journal already uses
//    to mean "byte-identical output") and served straight from memory: a
//    repeated request skips generation entirely. LRU with a total byte cap
//    and a per-entry cap so one big graph cannot evict the popular set.
//
// All methods are thread-safe; returned artifacts are shared_ptr-pinned and
// immutable, so in-flight requests keep them alive across evictions.
#ifndef TRILLIONG_SERVE_ARTIFACT_CACHE_H_
#define TRILLIONG_SERVE_ARTIFACT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/prefix_tables.h"
#include "serve/request.h"
#include "util/common.h"

namespace tg::serve {

class ArtifactCache {
 public:
  struct Options {
    /// Total whole-graph cache budget; 0 disables graph caching (model
    /// artifacts are always memoized — they are small and always correct).
    std::uint64_t graph_cache_bytes = 0;
    /// Largest single graph admitted; 0 means graph_cache_bytes / 4.
    std::uint64_t graph_entry_max_bytes = 0;
    /// Distinct models memoized before the oldest is dropped.
    std::size_t max_models = 64;
  };

  explicit ArtifactCache(const Options& options);

  /// Takes this cache's tables and graphs back out of the serve.cache.*
  /// gauges, which sum over live caches, so they never describe freed
  /// memory.
  ~ArtifactCache();

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// The memoized partition plan for (request's model, request's workers) —
  /// exactly PartitionByCdf(MakeRunNoise(config), workers), computed on
  /// first use. `*computed` reports whether this call built it (a miss).
  std::shared_ptr<const std::vector<VertexId>> PartitionPlan(
      const GenRequest& request, bool* computed);

  /// The memoized prefix tables for the request's model, or nullptr when
  /// the table kernel is ineligible for this request (dd precision or
  /// use_prefix_tables=false — the run then builds nothing to share).
  std::shared_ptr<const core::AvsPrefixTables> PrefixTables(
      const GenRequest& request, bool* built);

  /// Whole-graph lookup by ConfigFingerprint; nullptr on miss. A hit
  /// refreshes LRU recency.
  std::shared_ptr<const std::string> LookupGraph(std::uint64_t fingerprint);

  /// Admits a complete payload when it fits (per-entry cap, then total cap
  /// after LRU eviction). Returns whether the payload was kept.
  bool InsertGraph(std::uint64_t fingerprint, std::string payload);

  std::uint64_t graph_bytes_used() const;
  std::size_t graph_entries() const;

  /// Largest payload InsertGraph would admit — callers can skip staging
  /// bigger graphs in memory at all.
  std::uint64_t entry_cap() const {
    return options_.graph_cache_bytes == 0 ? 0 : options_.graph_entry_max_bytes;
  }

 private:
  struct ModelEntry {
    std::shared_ptr<const core::AvsPrefixTables> tables;  ///< null until built
    std::map<int, std::shared_ptr<const std::vector<VertexId>>> plans;
  };
  struct GraphEntry {
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const std::string> payload;
  };

  ModelEntry* ModelFor(std::uint64_t key);  ///< mu_ held

  Options options_;
  mutable std::mutex mu_;
  /// Model key -> artifacts, with FIFO age order for eviction.
  std::map<std::uint64_t, ModelEntry> models_;
  std::list<std::uint64_t> model_age_;
  /// Whole-graph LRU: front of lru_ is most recently used.
  std::list<GraphEntry> lru_;
  std::map<std::uint64_t, std::list<GraphEntry>::iterator> graphs_;
  std::uint64_t graph_bytes_ = 0;
};

}  // namespace tg::serve

#endif  // TRILLIONG_SERVE_ARTIFACT_CACHE_H_
