// storage/external_sorter.h — disk-backed K-way merge sort of POD records
// with optional duplicate elimination: the external-memory substrate behind
// the RMAT-disk and WES/p-disk baselines. Spills sorted runs to temp files
// and streams the merged (optionally deduplicated) sequence through a
// callback; reports runs written / bytes spilled / merge passes to tg::obs.
#ifndef TRILLIONG_STORAGE_EXTERNAL_SORTER_H_
#define TRILLIONG_STORAGE_EXTERNAL_SORTER_H_

#include <algorithm>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/file_io.h"
#include "util/common.h"
#include "util/memory_budget.h"

namespace tg::storage {

/// Disk-backed merge sort of POD records with optional duplicate
/// elimination — the substrate behind RMAT-disk and WES/p-disk (Sections 3.2
/// and 7.3: "eliminates edge duplicates using the external sort").
///
/// Usage: Add() records (spills sorted runs of `buffer_items` records to
/// temp files), then Merge() streams the globally sorted sequence through a
/// callback. In-memory footprint is O(buffer_items); everything else lives
/// in the run files.
template <typename T, typename Less = std::less<T>>
class ExternalSorter {
  static_assert(std::is_trivially_copyable_v<T>,
                "ExternalSorter requires trivially copyable records");

 public:
  struct Options {
    /// Directory for run files.
    std::string temp_dir = ".";
    /// Records buffered in memory before a run is spilled.
    std::size_t buffer_items = 1 << 20;
    /// Distinguishes concurrent sorters sharing a temp dir.
    std::string name = "extsort";
    /// Optional machine budget the in-memory run buffer is charged against
    /// (tag "storage.extsort.run"). Construction throws OomError when the
    /// buffer alone does not fit — the paper's disk baselines O.O.M exactly
    /// this way once the sort buffer outgrows a machine.
    MemoryBudget* budget = nullptr;
  };

  explicit ExternalSorter(Options options)
      : options_(std::move(options)),
        buffer_mem_(options_.budget, options_.buffer_items * sizeof(T),
                    "storage.extsort.run") {
    TG_CHECK(options_.buffer_items > 0);
    buffer_.reserve(options_.buffer_items);
  }

  ~ExternalSorter() {
    spill_writer_.Close();  // best effort
    for (const std::string& path : run_paths_) RemoveFile(path);
  }

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  void Add(const T& item) {
    buffer_.push_back(item);
    ++num_added_;
    if (buffer_.size() >= options_.buffer_items) SpillRun();
  }

  std::uint64_t num_added() const { return num_added_; }
  std::uint64_t bytes_spilled() const { return bytes_spilled_; }
  std::size_t num_runs() const { return run_paths_.size(); }
  /// Bytes the in-memory run buffer occupies at capacity (what the budget
  /// was charged).
  std::uint64_t buffer_bytes() const { return buffer_mem_.bytes(); }

  /// Merges all runs (plus the in-memory tail) in sorted order. When `dedup`
  /// is true, equal consecutive records are delivered once. Returns the
  /// number of records delivered. The sorter is consumed: Add() must not be
  /// called afterwards.
  std::uint64_t Merge(bool dedup, const std::function<void(const T&)>& fn) {
    TG_SPAN("sort.merge");
    FinishPendingSpill();  // the last run may still be draining to disk
    obs::GetCounter("sort.merge_passes")->Increment();
    obs::GetCounter("sort.records_added")->Add(num_added_);
    std::sort(buffer_.begin(), buffer_.end(), Less());

    // Open one cursor per run file.
    struct Cursor {
      FileReader reader;
      T current;
      bool valid = false;

      bool Advance() {
        valid = reader.Read(&current, sizeof(T));
        return valid;
      }
    };
    std::vector<Cursor> cursors(run_paths_.size());
    for (std::size_t i = 0; i < run_paths_.size(); ++i) {
      TG_CHECK(cursors[i].reader.Open(run_paths_[i]).ok());
      cursors[i].Advance();
    }

    // K-way merge over run cursors and the in-memory buffer.
    Less less;
    auto cmp = [&less, &cursors, this](std::size_t a, std::size_t b) {
      const T& va = a < cursors.size() ? cursors[a].current : buffer_[mem_pos_];
      const T& vb = b < cursors.size() ? cursors[b].current : buffer_[mem_pos_];
      // std::priority_queue is a max-heap; invert.
      return less(vb, va);
    };
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        decltype(cmp)>
        heap(cmp);
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      if (cursors[i].valid) heap.push(i);
    }
    const std::size_t kMemSource = cursors.size();
    if (!buffer_.empty()) heap.push(kMemSource);

    std::uint64_t delivered = 0;
    T last{};
    bool has_last = false;
    while (!heap.empty()) {
      std::size_t src = heap.top();
      heap.pop();
      const T& value =
          src == kMemSource ? buffer_[mem_pos_] : cursors[src].current;
      if (!dedup || !has_last || less(last, value) || less(value, last)) {
        fn(value);
        ++delivered;
        last = value;
        has_last = true;
      }
      if (src == kMemSource) {
        if (++mem_pos_ < buffer_.size()) heap.push(kMemSource);
      } else if (cursors[src].Advance()) {
        heap.push(src);
      }
    }
    obs::GetCounter("sort.records_delivered")->Add(delivered);
    return delivered;
  }

 private:
  void SpillRun() {
    std::sort(buffer_.begin(), buffer_.end(), Less());
    std::string path = options_.temp_dir + "/" + options_.name + ".run" +
                       std::to_string(run_paths_.size());
    // The previous run's writer is closed only now: under IoMode::kAsync
    // its blocks drained while this run was being built and sorted, so run
    // building overlaps spill I/O (arXiv 1210.0187's overlap discipline).
    FinishPendingSpill();
    TG_CHECK_MSG(spill_writer_.Open(path).ok(),
                 "cannot create run file " << path);
    spill_writer_.Append(buffer_.data(), buffer_.size() * sizeof(T));
    bytes_spilled_ += buffer_.size() * sizeof(T);
    obs::GetCounter("sort.runs_spilled")->Increment();
    obs::GetCounter("sort.bytes_spilled")->Add(buffer_.size() * sizeof(T));
    run_paths_.push_back(std::move(path));
    buffer_.clear();
  }

  void FinishPendingSpill() {
    if (!spill_writer_.is_open()) return;
    TG_CHECK_MSG(spill_writer_.Close().ok(),
                 "spill failed for " << spill_writer_.path());
  }

  Options options_;
  ScopedAllocation buffer_mem_;
  std::vector<T> buffer_;
  std::size_t mem_pos_ = 0;
  std::vector<std::string> run_paths_;
  FileWriter spill_writer_;
  std::uint64_t num_added_ = 0;
  std::uint64_t bytes_spilled_ = 0;
};

}  // namespace tg::storage

#endif  // TRILLIONG_STORAGE_EXTERNAL_SORTER_H_
