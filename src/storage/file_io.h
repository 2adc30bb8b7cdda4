// storage/file_io.h — the file transport beneath every format writer
// (TSV/ADJ6/CSR6) and the external sorter's run files. Returns tg::Status
// instead of throwing. Obs files (reports, traces, profiles) do not use it:
// they go through storage::WriteFile (storage/fs.h), so `io.*` counts graph
// bytes only.
//
// One writer, FileWriter: the producer formats into a raw staging block;
// a full block is handed off and written with pwrite(2) at its offset by
// one function, WriteAt. The I/O mode only decides who calls WriteAt:
//
//   IoMode::kSync   the producer, inline, at every handoff
//   IoMode::kAsync  one writer thread per open file; the full block is
//                   swapped for a recycled spare (no copy) and up to
//                   kQueueDepth blocks ride in flight, so encoding overlaps
//                   the kernel copy (arXiv 1210.0187's overlap discipline)
//
// Three contracts hold in both modes (fault_test.cc, io_test.cc pin them):
//   1. Errors are sticky: the first failure freezes status()/bytes_written();
//      later appends are dropped.
//   2. IoFailureHookRef() is consulted before every raw write, on whichever
//      thread calls WriteAt but tagged with the writer's own machine; the
//      injected error surfaces on the next producer-side
//      status()/Append/FlushToOs call.
//   3. FlushToOs() is the durability barrier of the chunk-commit journal:
//      after an Ok return every appended byte survives a process kill.
// Output bytes and the io.* counters do not depend on the mode.
#ifndef TRILLIONG_STORAGE_FILE_IO_H_
#define TRILLIONG_STORAGE_FILE_IO_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.h"
#include "util/common.h"
#include "util/status.h"

namespace tg::storage {

/// Process-wide write-failure hook, consulted on every raw write. Returns
/// true to make the write fail with a sticky IoError — this is how
/// fault::FaultInjector simulates a dying disk without touching the real
/// filesystem. Installed before worker threads start and cleared after they
/// join; the empty default costs one branch per handed-off block. It runs on
/// whichever thread writes (the writer thread under IoMode::kAsync), with
/// obs::CurrentMachine() set to the machine that owns the file.
using IoFailureHook = std::function<bool(const std::string& path)>;
inline IoFailureHook& IoFailureHookRef() {
  static IoFailureHook hook;
  return hook;
}

/// Who calls WriteAt for a handed-off block. Each caller fixes its own:
/// gen_cli's shards and the external sorter's runs take the default kAsync;
/// the serve daemon writes its spool kSync, because it flushes every shard
/// at every chunk commit.
enum class IoMode {
  kSync,   // the producer, inline
  kAsync,  // a writer thread per open file
};

/// Buffered sequential file writer on an fd. Errors are sticky: the first
/// failure is recorded and reported from Close()/status(); subsequent writes
/// are dropped. Not thread-safe on the producer side. The file belongs to
/// the simulated machine the constructing thread is tagged with
/// (obs::ScopedMachine); the I/O failure hook is asked about that machine.
class FileWriter {
 public:
  /// Blocks in flight (queued or being written) before an async producer
  /// stalls; each is `buffer_bytes`.
  static constexpr std::size_t kQueueDepth = 4;
  static constexpr std::size_t kDefaultBufferBytes = 1 << 20;

  /// The mode is fixed for the writer's lifetime.
  explicit FileWriter(std::size_t buffer_bytes = kDefaultBufferBytes,
                      IoMode mode = IoMode::kAsync)
      : mode_(mode),
        buffer_bytes_(buffer_bytes == 0 ? 1 : buffer_bytes),
        machine_(obs::CurrentMachine()) {}

  ~FileWriter() { Close(); }

  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  Status Open(const std::string& path) { return OpenInternal(path, false, 0); }

  /// Reopens an existing file for resumed writing: truncates it to `offset`
  /// (discarding any bytes past the last durable commit) and continues
  /// appending from there. bytes_written() resumes at `offset`.
  Status OpenForResume(const std::string& path, std::uint64_t offset) {
    return OpenInternal(path, true, offset);
  }

  bool is_open() const { return open_; }
  const Status& status() const {
    AbsorbBackendError();
    return status_;
  }
  const std::string& path() const { return path_; }
  std::uint64_t bytes_written() const { return handed_off_ + used_; }

  void Append(const void* data, std::size_t n) {
    if (!open_ || !status().ok()) return;
    const char* p = static_cast<const char*>(data);
    if (used_ + n > buffer_bytes_) {
      Handoff();
      if (n >= buffer_bytes_) {
        WriteDirect(p, n);
        return;
      }
    }
    std::memcpy(block_.get() + used_, p, n);
    used_ += n;
  }

  /// Staging bytes that fit before the next handoff: a Reserve() of at most
  /// this many never hands off.
  std::size_t Room() const { return buffer_bytes_ - used_; }

  /// Hot-path variant of Append for callers that format records in place:
  /// returns a pointer to `n` writable staging bytes (handing the block off
  /// first if it is short on room), or nullptr when the writer is closed or
  /// in its sticky error state. The bytes are not initialized. The caller
  /// fills at most `n` bytes and then calls CommitReserved(n, used) — until
  /// then bytes_written() already counts the full reservation, so no other
  /// writer call may intervene.
  char* Reserve(std::size_t n) {
    if (!open_ || !status().ok()) return nullptr;
    TG_DCHECK(n <= buffer_bytes_);
    if (used_ + n > buffer_bytes_) {
      Handoff();
      if (!status().ok()) return nullptr;
    }
    char* p = block_.get() + used_;
    used_ += n;
    return p;
  }

  /// Trims a Reserve(n) down to the `used` bytes actually written.
  void CommitReserved(std::size_t reserved, std::size_t used) {
    TG_DCHECK(used <= reserved);
    TG_DCHECK(used_ >= reserved);
    used_ -= reserved - used;
  }

  /// Appends a 48-bit little-endian integer (the "6-byte representation"
  /// required by ADJ6 / CSR6; Section 5). Range validation is the format
  /// writer's job, once per scope — this inner-loop check compiles out of
  /// release builds.
  void Append48(std::uint64_t value) {
    TG_DCHECK(value < (std::uint64_t{1} << 48));
    unsigned char bytes[6];
    for (int i = 0; i < 6; ++i) bytes[i] = (value >> (8 * i)) & 0xFF;
    Append(bytes, 6);
  }

  void Append64(std::uint64_t value) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = (value >> (8 * i)) & 0xFF;
    Append(bytes, 8);
  }

  /// Pushes all appended bytes into the kernel. After an Ok return, the bytes
  /// survive a process kill (not an OS crash — that would need fsync, which
  /// the simulated cluster does not model). This is the durability point of
  /// the chunk-commit journal (fault/journal.h): an async writer drains its
  /// in-flight queue before returning.
  Status FlushToOs() {
    if (!open_) return status();
    if (status().ok()) Handoff();
    Barrier();
    return status();
  }

  /// Rewrites `n` bytes in place at absolute `offset` (must lie within bytes
  /// already appended). Used by Csr6Writer to finalize its header without a
  /// second pass over the file. Implies a FlushToOs() barrier, after which
  /// the producer calls WriteAt itself in either mode; does not advance
  /// bytes_written().
  Status RewriteAt(std::uint64_t offset, const void* data, std::size_t n);

  Status Close();

 private:
  /// One queued async block: the bytes, their count and file offset.
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
    std::uint64_t offset = 0;
  };

  Status OpenInternal(const std::string& path, bool resume,
                      std::uint64_t offset);

  /// Hands the staging block's bytes to WriteAt (kSync) or to the writer
  /// thread (kAsync) and leaves an empty staging block behind.
  void Handoff();

  /// A run of at least buffer_bytes_ that skips the (empty) staging block.
  void WriteDirect(const char* data, std::size_t n);

  /// Queues `block_` (its first `n` bytes, bound for `offset`) for the
  /// writer thread, stalling while kQueueDepth blocks are in flight, and
  /// replaces it with a spare.
  void Enqueue(std::size_t n, std::uint64_t offset);

  /// The one raw write: checks the hook, then pwrite(2)s the whole range.
  /// Failures become the sticky backend error.
  void WriteAt(const char* data, std::size_t n, std::uint64_t offset);

  /// Blocks until every handed-off byte reached the kernel.
  void Barrier();

  void WriterLoop();

  /// Records a write failure from any thread; first error wins. The
  /// producer observes it on its next status() call.
  void RecordBackendError(const Status& error);

  bool backend_failed() const {
    return backend_failed_.load(std::memory_order_acquire);
  }

  // Pulls a writer-thread failure into the producer-visible status. The
  // fast path is one atomic load; `status_` is mutable so that status()
  // keeps returning a stable reference.
  void AbsorbBackendError() const {
    if (!status_.ok()) return;
    if (!backend_failed_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (status_.ok()) status_ = backend_error_;
  }

  const IoMode mode_;
  const std::size_t buffer_bytes_;
  const int machine_;  // owning machine, -1 when untagged
  std::string path_;
  mutable Status status_;
  bool open_ = false;
  int fd_ = -1;
  std::unique_ptr<char[]> block_;  // staging block of buffer_bytes_
  std::size_t used_ = 0;           // staged bytes in block_
  std::uint64_t handed_off_ = 0;   // file offset of block_[0]

  mutable std::mutex error_mutex_;
  Status backend_error_;
  std::atomic<bool> backend_failed_{false};

  // kAsync only: the writer thread and its queue.
  std::mutex mutex_;
  std::condition_variable producer_cv_;  // block retired / queue drained
  std::condition_variable writer_cv_;    // work arrived / stop requested
  std::deque<Block> queue_;
  std::vector<std::unique_ptr<char[]>> spare_blocks_;
  std::size_t pending_blocks_ = 0;  // queued + in flight
  bool stop_ = false;
  std::uint64_t stall_carry_us_ = 0;  // sub-ms stall remainder
  std::thread writer_thread_;
};

/// Buffered sequential file reader.
class FileReader {
 public:
  FileReader() = default;
  ~FileReader() { Close(); }

  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  Status Open(const std::string& path) {
    Close();
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) {
      return Status::IoError("cannot open for read: " + path);
    }
    path_ = path;
    return Status::Ok();
  }

  bool is_open() const { return file_ != nullptr; }

  /// Reads exactly n bytes; returns false on clean EOF at offset 0 of the
  /// read, aborts (corruption) on a short read mid-record.
  bool Read(void* out, std::size_t n) {
    std::size_t got = std::fread(out, 1, n, file_);
    if (got == 0) return false;
    TG_CHECK_MSG(got == n, "short read in " << path_);
    return true;
  }

  bool Read48(std::uint64_t* out) {
    unsigned char bytes[6];
    if (!Read(bytes, 6)) return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 6; ++i) v |= std::uint64_t{bytes[i]} << (8 * i);
    *out = v;
    return true;
  }

  bool Read64(std::uint64_t* out) {
    unsigned char bytes[8];
    if (!Read(bytes, 8)) return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes[i]} << (8 * i);
    *out = v;
    return true;
  }

  void Close() {
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
  }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Removes a file if it exists (best effort; used for temp cleanup).
inline void RemoveFile(const std::string& path) {
  std::remove(path.c_str());
}

}  // namespace tg::storage

#endif  // TRILLIONG_STORAGE_FILE_IO_H_
