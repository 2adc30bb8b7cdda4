// storage/file_io.h — buffered sequential file transport beneath every format
// writer (TSV/ADJ6/CSR6), the external sorter's run files, and the
// obs::RunReport JSON output. Returns tg::Status instead of throwing.
//
// FileWriterBase owns the producer-side buffering and the error/durability
// contracts; concrete backends plug in at flush granularity:
//
//   FileWriter       synchronous stdio backend (this header)
//   AsyncFileWriter  double-buffered pwrite writer thread
//                    (storage/async_writer.h)
//
// Three contracts every backend must preserve (fault_test.cc pins them):
//   1. Errors are sticky: the first failure freezes status()/bytes_written();
//      later appends are dropped.
//   2. IoFailureHookRef() is consulted before every raw write, on whatever
//      thread performs it; the injected error surfaces on the next
//      producer-side status()/Append/FlushToOs call.
//   3. FlushToOs() is the durability barrier of the chunk-commit journal:
//      after an Ok return every appended byte survives a process kill.
#ifndef TRILLIONG_STORAGE_FILE_IO_H_
#define TRILLIONG_STORAGE_FILE_IO_H_

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/common.h"
#include "util/status.h"

namespace tg::storage {

namespace internal {
/// One buffer handoff from producer to backend (mode-independent, so the
/// io.* counters compare exactly between --io=sync and --io=async runs).
/// Registry pointers are stable for the process lifetime; cache them once.
inline void NoteIoHandoff(std::size_t bytes) {
  static obs::Counter* const bytes_written =
      obs::GetCounter("io.bytes_written");
  static obs::Counter* const flushes = obs::GetCounter("io.flushes");
  bytes_written->Add(bytes);
  flushes->Increment();
}
}  // namespace internal

/// Process-wide write-failure hook, consulted on every raw write. Returns
/// true to make the write fail with a sticky IoError — this is how
/// fault::FaultInjector simulates a dying disk without touching the real
/// filesystem. Installed before worker threads start and cleared after they
/// join; the empty default costs one branch per flushed buffer. With the
/// async backend the hook fires on the writer thread.
using IoFailureHook = std::function<bool(const std::string& path)>;
inline IoFailureHook& IoFailureHookRef() {
  static IoFailureHook hook;
  return hook;
}

/// Buffered sequential file writer interface. Errors are sticky: the first
/// failure is recorded and reported from Close()/status(); subsequent writes
/// are dropped. Not thread-safe on the producer side; backends may move the
/// actual write to another thread, reporting failures through
/// RecordBackendError().
class FileWriterBase {
 public:
  explicit FileWriterBase(std::size_t buffer_bytes = 1 << 20)
      : buffer_bytes_(buffer_bytes == 0 ? 1 : buffer_bytes) {}

  // Concrete classes call Close() from their own destructor — the backend
  // virtuals are gone by the time this base destructor runs.
  virtual ~FileWriterBase() = default;

  FileWriterBase(const FileWriterBase&) = delete;
  FileWriterBase& operator=(const FileWriterBase&) = delete;

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
  std::uint64_t bytes_written() const { return bytes_written_ + buffer_.size(); }

  void Append(const void* data, std::size_t n) {
    if (!open_ || !status().ok()) return;
    const char* p = static_cast<const char*>(data);
    if (buffer_.size() + n > buffer_bytes_) {
      FlushProducerBuffer();
      if (n >= buffer_bytes_) {
        bytes_written_ += n;
        internal::NoteIoHandoff(n);
        BackendWriteDirect(p, n);
        return;
      }
    }
    buffer_.insert(buffer_.end(), p, p + n);
  }

  /// Staging bytes that fit before the next flush: a Reserve() of at most
  /// this many never flushes.
  std::size_t Room() const {
    return buffer_.size() < buffer_bytes_ ? buffer_bytes_ - buffer_.size()
                                          : 0;
  }

  /// Hot-path variant of Append for callers that format records in place:
  /// returns a pointer to `n` writable staging bytes (flushing first if the
  /// buffer is short on room), or nullptr when the writer is closed or in
  /// its sticky error state. The caller fills at most `n` bytes and then
  /// calls CommitReserved(n, used) — until then bytes_written() already
  /// counts the full reservation, so no other writer call may intervene.
  char* Reserve(std::size_t n) {
    if (!open_ || !status().ok()) return nullptr;
    TG_DCHECK(n <= buffer_bytes_);
    if (buffer_.size() + n > buffer_bytes_) {
      FlushProducerBuffer();
      if (!status().ok()) return nullptr;
    }
    const std::size_t old_size = buffer_.size();
    buffer_.resize(old_size + n);
    return buffer_.data() + old_size;
  }

  /// Trims a Reserve(n) down to the `used` bytes actually written.
  void CommitReserved(std::size_t reserved, std::size_t used) {
    TG_DCHECK(used <= reserved);
    TG_DCHECK(buffer_.size() >= reserved);
    buffer_.resize(buffer_.size() - (reserved - used));
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
  /// the chunk-commit journal (fault/journal.h): the async backend drains its
  /// in-flight queue before returning.
  Status FlushToOs() {
    if (!open_) return status();
    if (status().ok()) FlushProducerBuffer();
    BackendBarrier();
    return status();
  }

  /// Rewrites `n` bytes in place at absolute `offset` (must lie within bytes
  /// already appended). Used by Csr6Writer to finalize its header without a
  /// second pass over the file. Implies a FlushToOs() barrier; does not
  /// advance bytes_written().
  Status RewriteAt(std::uint64_t offset, const void* data, std::size_t n) {
    if (!open_) return status();
    if (status().ok()) FlushProducerBuffer();
    BackendBarrier();
    if (status().ok()) {
      TG_CHECK_MSG(offset + n <= bytes_written_,
                   "RewriteAt past end of " << path_);
      BackendRewriteAt(offset, static_cast<const char*>(data), n);
    }
    return status();
  }

  Status Close() {
    if (open_) {
      if (status().ok()) {
        FlushProducerBuffer();
      } else {
        buffer_.clear();
      }
      BackendClose();
      open_ = false;
    }
    return status();
  }

 protected:
  /// Opens the backing file. `resume` selects append-at-offset semantics
  /// (open existing + truncate to `offset`).
  virtual Status BackendOpen(const std::string& path, bool resume,
                             std::uint64_t offset) = 0;

  /// Consumes the full producer buffer. Must leave `buffer` empty (capacity
  /// preserved or replaced with a recycled one); may hand the storage off to
  /// another thread. Dropped silently after a backend error.
  virtual void BackendWrite(std::vector<char>& buffer) = 0;

  /// Writes a large run that bypasses the producer buffer (which is empty at
  /// this point).
  virtual void BackendWriteDirect(const char* data, std::size_t n) = 0;

  /// Blocks until every byte handed to the backend reached the kernel.
  virtual void BackendBarrier() = 0;

  /// Positional overwrite; only called between BackendBarrier() and the next
  /// append, so the backend has no in-flight sequential writes.
  virtual void BackendRewriteAt(std::uint64_t offset, const char* data,
                                std::size_t n) = 0;

  /// Releases the backing file (joins threads, closes descriptors). Buffers
  /// were flushed or discarded by Close().
  virtual void BackendClose() = 0;

  /// Records a backend failure from any thread; first error wins. The
  /// producer observes it on its next status() call.
  void RecordBackendError(const Status& error) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!backend_failed_.load(std::memory_order_relaxed)) {
      backend_error_ = error;
      backend_failed_.store(true, std::memory_order_release);
    }
  }

  /// Cheap cross-thread check, usable by backends to drop work early after a
  /// failure.
  bool backend_failed() const {
    return backend_failed_.load(std::memory_order_acquire);
  }

  std::size_t buffer_capacity() const { return buffer_bytes_; }

 private:
  Status OpenInternal(const std::string& path, bool resume,
                      std::uint64_t offset) {
    Close();
    // A writer whose previous Open() failed can still hold buffered bytes —
    // Close() has no backing file to flush them into. Never leak them into
    // the next file.
    buffer_.clear();
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      backend_error_ = Status::Ok();
      backend_failed_.store(false, std::memory_order_release);
    }
    path_ = path;
    status_ = BackendOpen(path, resume, offset);
    open_ = status_.ok();
    if (!open_) return status_;
    buffer_.reserve(buffer_bytes_);
    bytes_written_ = offset;
    return status_;
  }

  void FlushProducerBuffer() {
    if (buffer_.empty()) return;
    bytes_written_ += buffer_.size();
    internal::NoteIoHandoff(buffer_.size());
    BackendWrite(buffer_);
    TG_DCHECK(buffer_.empty());
  }

  // Pulls a backend-thread failure into the producer-visible status. The
  // fast path is one relaxed atomic load; `status_` is mutable so that
  // status() keeps returning a stable reference.
  void AbsorbBackendError() const {
    if (!status_.ok()) return;
    if (!backend_failed_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (status_.ok()) status_ = backend_error_;
  }

  std::string path_;
  mutable Status status_;
  bool open_ = false;
  std::size_t buffer_bytes_;
  std::vector<char> buffer_;
  std::uint64_t bytes_written_ = 0;

  mutable std::mutex error_mutex_;
  Status backend_error_;
  std::atomic<bool> backend_failed_{false};
};

/// Synchronous stdio backend — the original FileWriter. Still the right
/// choice for small metadata files (RunReport JSON, trace export) and the
/// default when TG_IO=sync.
class FileWriter final : public FileWriterBase {
 public:
  explicit FileWriter(std::size_t buffer_bytes = 1 << 20)
      : FileWriterBase(buffer_bytes) {}

  ~FileWriter() override { Close(); }

 protected:
  Status BackendOpen(const std::string& path, bool resume,
                     std::uint64_t offset) override {
    if (!resume) {
      file_ = std::fopen(path.c_str(), "wb");
      if (file_ == nullptr) {
        return Status::IoError("cannot open for write: " + path);
      }
      return Status::Ok();
    }
    file_ = std::fopen(path.c_str(), "r+b");
    if (file_ == nullptr) {
      return Status::IoError("cannot open for resume: " + path);
    }
    if (::ftruncate(fileno(file_), static_cast<off_t>(offset)) != 0 ||
        std::fseek(file_, 0, SEEK_END) != 0) {
      std::fclose(file_);
      file_ = nullptr;
      return Status::IoError("cannot truncate for resume: " + path);
    }
    return Status::Ok();
  }

  void BackendWrite(std::vector<char>& buffer) override {
    WriteRaw(buffer.data(), buffer.size());
    buffer.clear();
  }

  void BackendWriteDirect(const char* data, std::size_t n) override {
    WriteRaw(data, n);
  }

  void BackendBarrier() override {
    if (backend_failed() || file_ == nullptr) return;
    if (std::fflush(file_) != 0) {
      RecordBackendError(Status::IoError("flush failed: " + path()));
    }
  }

  void BackendRewriteAt(std::uint64_t offset, const char* data,
                        std::size_t n) override {
    if (backend_failed() || file_ == nullptr) return;
    const IoFailureHook& hook = IoFailureHookRef();
    if (hook && hook(path())) {
      RecordBackendError(Status::IoError("injected I/O failure: " + path()));
      return;
    }
    if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0 ||
        std::fwrite(data, 1, n, file_) != n ||
        std::fflush(file_) != 0 ||
        std::fseek(file_, 0, SEEK_END) != 0) {
      RecordBackendError(Status::IoError("write failed: " + path()));
    }
  }

  void BackendClose() override {
    if (file_ == nullptr) return;
    if (std::fclose(file_) != 0 && !backend_failed()) {
      RecordBackendError(Status::IoError("close failed: " + path()));
    }
    file_ = nullptr;
  }

 private:
  void WriteRaw(const char* p, std::size_t n) {
    if (backend_failed() || file_ == nullptr) return;
    const IoFailureHook& hook = IoFailureHookRef();
    if (hook && hook(path())) {
      RecordBackendError(Status::IoError("injected I/O failure: " + path()));
      return;
    }
    if (std::fwrite(p, 1, n, file_) != n) {
      RecordBackendError(Status::IoError("write failed: " + path()));
    }
  }

  std::FILE* file_ = nullptr;
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
