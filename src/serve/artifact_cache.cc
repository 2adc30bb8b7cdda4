#include "serve/artifact_cache.h"

#include <utility>

#include "core/partitioner.h"
#include "core/trilliong.h"
#include "model/noise.h"
#include "obs/metrics.h"

namespace tg::serve {

namespace {

/// Moves the whole-graph gauges by one cache's change in bytes and entries.
void AddGraphGauges(double bytes, double entries) {
  obs::GetGauge("serve.cache.graph_bytes")->Add(bytes);
  obs::GetGauge("serve.cache.graph_entries")->Add(entries);
}

}  // namespace

ArtifactCache::ArtifactCache(const Options& options) : options_(options) {
  if (options_.graph_entry_max_bytes == 0) {
    options_.graph_entry_max_bytes = options_.graph_cache_bytes / 4;
  }
}

ArtifactCache::~ArtifactCache() {
  double table_bytes = 0;
  for (const auto& [key, entry] : models_) {
    if (entry.tables != nullptr) table_bytes += entry.tables->MemoryBytes();
  }
  obs::GetGauge("serve.cache.table_bytes")->Add(-table_bytes);
  AddGraphGauges(-static_cast<double>(graph_bytes_),
                 -static_cast<double>(graphs_.size()));
}

ArtifactCache::ModelEntry* ArtifactCache::ModelFor(std::uint64_t key) {
  auto it = models_.find(key);
  if (it != models_.end()) return &it->second;
  if (models_.size() >= options_.max_models && !model_age_.empty()) {
    // Age out the oldest model. In-flight runs keep their artifacts alive
    // through their shared_ptr pins; only the memoization is lost.
    auto oldest = models_.find(model_age_.front());
    if (oldest->second.tables != nullptr) {
      obs::GetGauge("serve.cache.table_bytes")
          ->Add(-static_cast<double>(oldest->second.tables->MemoryBytes()));
    }
    models_.erase(oldest);
    model_age_.pop_front();
  }
  model_age_.push_back(key);
  return &models_[key];
}

std::shared_ptr<const std::vector<VertexId>> ArtifactCache::PartitionPlan(
    const GenRequest& request, bool* computed) {
  std::lock_guard<std::mutex> lock(mu_);
  ModelEntry* entry = ModelFor(ModelKey(request));
  auto it = entry->plans.find(request.workers);
  if (it != entry->plans.end()) {
    if (computed != nullptr) *computed = false;
    return it->second;
  }
  // Building under mu_ is deliberate: the closed-form CDF inversion is
  // milliseconds even at max scale, and holding the lock makes concurrent
  // identical requests share one build instead of racing duplicates.
  const model::NoiseVector noise = core::MakeRunNoise(ToConfig(request));
  auto plan = std::make_shared<const std::vector<VertexId>>(
      core::PartitionByCdf(noise, request.workers));
  entry->plans[request.workers] = plan;
  obs::GetCounter("serve.cache.plan_builds")->Add(1);
  if (computed != nullptr) *computed = true;
  return plan;
}

std::shared_ptr<const core::AvsPrefixTables> ArtifactCache::PrefixTables(
    const GenRequest& request, bool* built) {
  if (built != nullptr) *built = false;
  // Mirror AvsRangeGenerator's eligibility: the table kernel only runs for
  // plain doubles with every Section 4.3 idea enabled (serve requests keep
  // the default determiner, so use_prefix_tables is the only lever).
  if (request.precision != "double" || !request.use_prefix_tables) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ModelEntry* entry = ModelFor(ModelKey(request));
  if (entry->tables == nullptr) {
    const model::NoiseVector noise = core::MakeRunNoise(ToConfig(request));
    auto tables = std::make_shared<core::AvsPrefixTables>();
    tables->Build(noise);
    entry->tables = tables;
    obs::GetCounter("serve.cache.table_builds")->Add(1);
    obs::GetGauge("serve.cache.table_bytes")
        ->Add(static_cast<double>(tables->MemoryBytes()));
    if (built != nullptr) *built = true;
  }
  return entry->tables;
}

std::shared_ptr<const std::string> ArtifactCache::LookupGraph(
    std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(fingerprint);
  if (it == graphs_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->payload;
}

bool ArtifactCache::InsertGraph(std::uint64_t fingerprint,
                                std::string payload) {
  const std::uint64_t bytes = payload.size();
  if (options_.graph_cache_bytes == 0 || bytes == 0 ||
      bytes > options_.graph_entry_max_bytes ||
      bytes > options_.graph_cache_bytes) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (graphs_.count(fingerprint) != 0) return true;  // raced: already cached
  const double bytes_before = static_cast<double>(graph_bytes_);
  const double entries_before = static_cast<double>(graphs_.size());
  while (graph_bytes_ + bytes > options_.graph_cache_bytes && !lru_.empty()) {
    const GraphEntry& victim = lru_.back();
    graph_bytes_ -= victim.payload->size();
    graphs_.erase(victim.fingerprint);
    lru_.pop_back();
  }
  lru_.push_front(GraphEntry{
      fingerprint, std::make_shared<const std::string>(std::move(payload))});
  graphs_[fingerprint] = lru_.begin();
  graph_bytes_ += bytes;
  AddGraphGauges(static_cast<double>(graph_bytes_) - bytes_before,
                 static_cast<double>(graphs_.size()) - entries_before);
  return true;
}

std::uint64_t ArtifactCache::graph_bytes_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_bytes_;
}

std::size_t ArtifactCache::graph_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_.size();
}

}  // namespace tg::serve
