#ifndef TRILLIONG_UTIL_MEMORY_BUDGET_H_
#define TRILLIONG_UTIL_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/common.h"
#include "util/oom_report.h"

namespace tg {

class MemoryBudget;

namespace internal {

/// Process-wide registry of live budgets (meyers singletons so the header
/// stays self-contained). Budgets self-register on construction; the obs
/// layer walks them to publish per-machine pressure gauges.
inline std::mutex& BudgetRegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

inline std::set<MemoryBudget*>& BudgetRegistry() {
  static std::set<MemoryBudget*> registry;
  return registry;
}

}  // namespace internal

/// Tracks logical memory consumption of the dominant data structures of a
/// generator (edge sets, shuffle buffers, CSR arrays) and enforces an optional
/// cap. This is the substitute for the paper's physical 32 GB machines: with
/// a proportionally scaled-down budget, the "O.O.M" failures of RMAT-mem /
/// FastKronecker / RMAT/p-mem at particular scales are reproduced
/// deterministically instead of by crashing a real host.
///
/// Every registration can carry a component tag (e.g. "core.scope_dedup",
/// "baseline.rmat.edge_set", "cluster.shuffle_buf") so a trip is attributable:
/// the budget keeps per-tag used/peak counters and, on OOM, throws an
/// OomError whose report() names the machine, the failing tag, and the full
/// per-tag breakdown at time of death.
///
/// Thread-safe; one instance models one machine (`machine` is the simulated
/// machine id carried into OomReport and the per-machine mem gauges).
class MemoryBudget {
 public:
  /// Per-tag accounting cell. Stable address for the budget's lifetime, so
  /// hot paths intern once via Tag() and pass the pointer to Allocate.
  struct TagStats {
    explicit TagStats(std::string name_in) : name(std::move(name_in)) {}
    const std::string name;
    std::atomic<std::uint64_t> used{0};
    std::atomic<std::uint64_t> peak{0};
  };

  /// `limit_bytes` == 0 means unlimited (tracking only).
  explicit MemoryBudget(std::uint64_t limit_bytes = 0, int machine = 0)
      : limit_bytes_(limit_bytes), machine_(machine) {
    std::lock_guard<std::mutex> lock(internal::BudgetRegistryMutex());
    internal::BudgetRegistry().insert(this);
  }

  ~MemoryBudget() {
    if (BudgetRetireHook hook = GetBudgetRetireHook()) hook(*this);
    std::lock_guard<std::mutex> lock(internal::BudgetRegistryMutex());
    internal::BudgetRegistry().erase(this);
  }

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Interns a per-tag accounting cell; the returned pointer stays valid for
  /// the budget's lifetime. Takes a mutex — intern outside hot loops.
  TagStats* Tag(std::string_view name) {
    std::lock_guard<std::mutex> lock(tags_mu_);
    auto it = tags_.find(name);
    if (it == tags_.end()) {
      it = tags_.emplace(std::string(name),
                         std::make_unique<TagStats>(std::string(name)))
               .first;
    }
    return it->second.get();
  }

  /// Registers an allocation; throws OomError (carrying a full OomReport)
  /// if the cap would be exceeded. `tag` may be null for untagged sites.
  void Allocate(std::uint64_t bytes, TagStats* tag = nullptr) {
    std::uint64_t now = used_bytes_.fetch_add(bytes) + bytes;
    if (limit_bytes_ != 0 && now > limit_bytes_) {
      used_bytes_.fetch_sub(bytes);
      ThrowOom(bytes, now - bytes, tag);
    }
    UpdatePeak(&peak_bytes_, now);
    if (tag != nullptr) {
      std::uint64_t tag_now = tag->used.fetch_add(bytes) + bytes;
      UpdatePeak(&tag->peak, tag_now);
    }
  }

  /// Drops a previous registration. A release larger than the outstanding
  /// registration is a caller bug: it aborts in debug builds and clamps the
  /// counter to zero in release builds (instead of wrapping to ~2^64).
  void Release(std::uint64_t bytes, TagStats* tag = nullptr) {
    SubClamped(&used_bytes_, bytes);
    if (tag != nullptr) SubClamped(&tag->used, bytes);
  }

  /// Replaces a previous registration of `old_bytes` with `new_bytes`
  /// (e.g. when a hash set grows).
  void Resize(std::uint64_t old_bytes, std::uint64_t new_bytes,
              TagStats* tag = nullptr) {
    if (new_bytes >= old_bytes) {
      Allocate(new_bytes - old_bytes, tag);
    } else {
      Release(old_bytes - new_bytes, tag);
    }
  }

  /// Drops every outstanding registration, total and per tag (peaks are
  /// kept). Used at phase barriers where a machine's buffers are handed off
  /// wholesale (e.g. after a shuffle the outboxes become the inboxes).
  void ReleaseAll() {
    used_bytes_.store(0);
    std::lock_guard<std::mutex> lock(tags_mu_);
    for (auto& [name, tag] : tags_) tag->used.store(0);
  }

  std::uint64_t used_bytes() const { return used_bytes_.load(); }
  std::uint64_t peak_bytes() const { return peak_bytes_.load(); }
  std::uint64_t limit_bytes() const { return limit_bytes_; }
  int machine() const { return machine_; }

  /// Snapshot of the per-tag used/peak counters, sorted by tag name.
  std::vector<OomReport::TagUsage> TagBreakdown() const {
    std::vector<OomReport::TagUsage> out;
    std::lock_guard<std::mutex> lock(tags_mu_);
    out.reserve(tags_.size());
    for (const auto& [name, tag] : tags_) {
      out.push_back({name, tag->used.load(), tag->peak.load()});
    }
    return out;
  }

  /// Visits every live budget in the process under the registry lock. The
  /// obs layer uses this to publish per-machine used/headroom gauges without
  /// budgets having to know about the metric registry.
  static void ForEachBudget(
      const std::function<void(const MemoryBudget&)>& fn) {
    std::lock_guard<std::mutex> lock(internal::BudgetRegistryMutex());
    for (const MemoryBudget* budget : internal::BudgetRegistry()) {
      fn(*budget);
    }
  }

 private:
  static void UpdatePeak(std::atomic<std::uint64_t>* peak_cell,
                         std::uint64_t now) {
    std::uint64_t peak = peak_cell->load();
    while (now > peak && !peak_cell->compare_exchange_weak(peak, now)) {
    }
  }

  static void SubClamped(std::atomic<std::uint64_t>* cell,
                         std::uint64_t bytes) {
    std::uint64_t cur = cell->load();
    TG_DCHECK_MSG(cur >= bytes, "memory budget release underflow: releasing "
                                    << bytes << " bytes with only " << cur
                                    << " registered");
    while (true) {
      std::uint64_t next = cur >= bytes ? cur - bytes : 0;
      if (cell->compare_exchange_weak(cur, next)) return;
    }
  }

  [[noreturn]] void ThrowOom(std::uint64_t requested, std::uint64_t used,
                             const TagStats* tag) {
    OomReport report;
    report.machine = machine_;
    report.tag = tag != nullptr ? tag->name : "untagged";
    report.requested_bytes = requested;
    report.used_bytes = used;
    report.limit_bytes = limit_bytes_;
    report.breakdown = TagBreakdown();
    if (OomContextHook hook = GetOomContextHook()) hook(&report);
    throw OomError(std::move(report));
  }

  const std::uint64_t limit_bytes_;
  const int machine_;
  std::atomic<std::uint64_t> used_bytes_{0};
  std::atomic<std::uint64_t> peak_bytes_{0};
  mutable std::mutex tags_mu_;
  std::map<std::string, std::unique_ptr<TagStats>, std::less<>> tags_;
};

/// RAII registration of a fixed-size allocation against a budget. The tag
/// names the component for attribution; pass a pre-interned TagStats* on hot
/// paths (one ScopedAllocation per generated scope) to skip the intern.
class ScopedAllocation {
 public:
  ScopedAllocation(MemoryBudget* budget, std::uint64_t bytes,
                   const char* tag = nullptr)
      : ScopedAllocation(budget, bytes,
                         budget != nullptr && tag != nullptr
                             ? budget->Tag(tag)
                             : nullptr) {}

  ScopedAllocation(MemoryBudget* budget, std::uint64_t bytes,
                   MemoryBudget::TagStats* tag)
      : budget_(budget), bytes_(bytes), tag_(tag) {
    if (budget_ != nullptr) budget_->Allocate(bytes_, tag_);
  }

  ~ScopedAllocation() {
    if (budget_ != nullptr) budget_->Release(bytes_, tag_);
  }

  ScopedAllocation(const ScopedAllocation&) = delete;
  ScopedAllocation& operator=(const ScopedAllocation&) = delete;

  /// Adjusts the registered size to `new_bytes`. If growing trips the cap,
  /// the OomError propagates and the registration keeps its old size (the
  /// destructor releases exactly what is still registered).
  void ResizeTo(std::uint64_t new_bytes) {
    if (budget_ != nullptr) budget_->Resize(bytes_, new_bytes, tag_);
    bytes_ = new_bytes;
  }

  std::uint64_t bytes() const { return bytes_; }

 private:
  MemoryBudget* budget_;
  std::uint64_t bytes_;
  MemoryBudget::TagStats* tag_;
};

}  // namespace tg

#endif  // TRILLIONG_UTIL_MEMORY_BUDGET_H_
