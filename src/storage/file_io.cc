#include "storage/file_io.h"

#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "prof/profiler.h"

namespace tg::storage {

namespace {

/// One handoff from the producer. It is counted there, not where WriteAt
/// runs, so the io.* counters compare exactly between --io=sync and
/// --io=async runs. Registry pointers are stable for the process lifetime;
/// cache them once.
void NoteIoHandoff(std::size_t bytes) {
  static obs::Counter* const bytes_written =
      obs::GetCounter("io.bytes_written");
  static obs::Counter* const flushes = obs::GetCounter("io.flushes");
  bytes_written->Add(bytes);
  flushes->Increment();
}

obs::Counter* StallCounter() {
  static obs::Counter* const counter = obs::GetCounter("io.writer_stall_ms");
  return counter;
}

obs::Gauge* InflightGauge() {
  static obs::Gauge* const gauge = obs::GetGauge("io.inflight_bytes");
  return gauge;
}

/// pwrite(2) of the whole range, retrying short writes and EINTR.
bool PwriteAll(int fd, const char* data, std::size_t n, std::uint64_t offset) {
  while (n > 0) {
    const ssize_t wrote = ::pwrite(fd, data, n, static_cast<off_t>(offset));
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    data += wrote;
    offset += static_cast<std::uint64_t>(wrote);
    n -= static_cast<std::size_t>(wrote);
  }
  return true;
}

/// An uninitialized block: staging bytes are always written before they
/// are read, so zero-filling them would be wasted work.
std::unique_ptr<char[]> NewBlock(std::size_t bytes) {
  return std::make_unique_for_overwrite<char[]>(bytes);
}

}  // namespace

Status FileWriter::OpenInternal(const std::string& path, bool resume,
                                std::uint64_t offset) {
  Close();
  // A writer whose previous Open() failed can still hold staged bytes:
  // Close() had no file to write them into. Never leak them into this one.
  used_ = 0;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    backend_error_ = Status::Ok();
    backend_failed_.store(false, std::memory_order_release);
  }
  path_ = path;
  const int flags = resume ? O_WRONLY : (O_WRONLY | O_CREAT | O_TRUNC);
  fd_ = ::open(path.c_str(), flags, 0666);
  if (fd_ < 0) {
    status_ = Status::IoError(
        (resume ? "cannot open for resume: " : "cannot open for write: ") +
        path);
    return status_;
  }
  if (resume && ::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
    ::close(fd_);
    fd_ = -1;
    status_ = Status::IoError("cannot truncate for resume: " + path);
    return status_;
  }
  status_ = Status::Ok();
  open_ = true;
  handed_off_ = offset;
  if (block_ == nullptr) block_ = NewBlock(buffer_bytes_);
  if (mode_ == IoMode::kAsync) {
    stop_ = false;
    stall_carry_us_ = 0;
    writer_thread_ = std::thread(&FileWriter::WriterLoop, this);
  }
  return status_;
}

void FileWriter::Handoff() {
  if (used_ == 0) return;
  const std::size_t n = used_;
  const std::uint64_t offset = handed_off_;
  used_ = 0;
  handed_off_ += n;
  NoteIoHandoff(n);
  if (mode_ == IoMode::kSync) {
    WriteAt(block_.get(), n, offset);
  } else {
    Enqueue(n, offset);
  }
}

void FileWriter::WriteDirect(const char* data, std::size_t n) {
  std::uint64_t offset = handed_off_;
  handed_off_ += n;
  NoteIoHandoff(n);
  if (mode_ == IoMode::kSync) {
    WriteAt(data, n, offset);
    return;
  }
  // The writer thread owns what it writes: copy the run through the staging
  // block, one block-sized piece at a time.
  while (n > 0 && !backend_failed()) {
    const std::size_t m = std::min(n, buffer_bytes_);
    std::memcpy(block_.get(), data, m);
    Enqueue(m, offset);
    data += m;
    offset += m;
    n -= m;
  }
}

void FileWriter::Enqueue(std::size_t n, std::uint64_t offset) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (pending_blocks_ >= kQueueDepth) {
    const auto start = std::chrono::steady_clock::now();
    producer_cv_.wait(lock, [this] {
      return pending_blocks_ < kQueueDepth || backend_failed();
    });
    const std::uint64_t waited_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    stall_carry_us_ += waited_us;
    // Off-CPU attribution: the producer sat blocked on a full write queue.
    prof::RecordStall("writer", static_cast<double>(waited_us) * 1e-6);
    if (stall_carry_us_ >= 1000) {
      StallCounter()->Add(stall_carry_us_ / 1000);
      stall_carry_us_ %= 1000;
    }
  }
  if (backend_failed()) return;  // sticky error: drop the bytes, keep block_
  queue_.push_back(Block{std::move(block_), n, offset});
  ++pending_blocks_;
  InflightGauge()->Add(static_cast<double>(n));
  if (spare_blocks_.empty()) {
    block_ = NewBlock(buffer_bytes_);
  } else {
    block_ = std::move(spare_blocks_.back());
    spare_blocks_.pop_back();
  }
  writer_cv_.notify_one();
}

void FileWriter::WriteAt(const char* data, std::size_t n,
                         std::uint64_t offset) {
  if (backend_failed()) return;
  if (const IoFailureHook& hook = IoFailureHookRef()) {
    // Ask about the file's machine, not the calling thread's: the async
    // writer thread is untagged, and any worker may write a shard.
    obs::ScopedMachine owner(machine_);
    if (hook(path_)) {
      RecordBackendError(Status::IoError("injected I/O failure: " + path_));
      return;
    }
  }
  if (!PwriteAll(fd_, data, n, offset)) {
    RecordBackendError(Status::IoError("write failed: " + path_));
  }
}

void FileWriter::Barrier() {
  if (mode_ == IoMode::kSync) return;  // every WriteAt already returned
  std::unique_lock<std::mutex> lock(mutex_);
  producer_cv_.wait(lock, [this] { return pending_blocks_ == 0; });
}

Status FileWriter::RewriteAt(std::uint64_t offset, const void* data,
                             std::size_t n) {
  if (!open_) return status();
  if (status().ok()) Handoff();
  // After the barrier the writer thread is idle, so this producer-side
  // WriteAt cannot interleave with a queued block.
  Barrier();
  if (status().ok()) {
    TG_CHECK_MSG(offset + n <= handed_off_, "RewriteAt past end of " << path_);
    WriteAt(static_cast<const char*>(data), n, offset);
  }
  return status();
}

Status FileWriter::Close() {
  if (!open_) return status();
  if (status().ok()) {
    Handoff();
  } else {
    used_ = 0;
  }
  if (mode_ == IoMode::kAsync) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    writer_cv_.notify_all();
    writer_thread_.join();  // drains the queue first
    spare_blocks_.clear();
  }
  if (::close(fd_) != 0) {
    RecordBackendError(Status::IoError("close failed: " + path_));
  }
  fd_ = -1;
  open_ = false;
  return status();
}

void FileWriter::RecordBackendError(const Status& error) {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!backend_failed_.load(std::memory_order_relaxed)) {
    backend_error_ = error;
    backend_failed_.store(true, std::memory_order_release);
  }
}

void FileWriter::WriterLoop() {
  prof::EnsureThreadRegistered();
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    writer_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ with nothing left to write
    Block block = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    WriteAt(block.data.get(), block.size, block.offset);
    lock.lock();
    InflightGauge()->Add(-static_cast<double>(block.size));
    if (spare_blocks_.size() < kQueueDepth) {
      spare_blocks_.push_back(std::move(block.data));
    }
    --pending_blocks_;
    producer_cv_.notify_all();
  }
}

}  // namespace tg::storage
