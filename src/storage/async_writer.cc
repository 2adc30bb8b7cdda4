#include "storage/async_writer.h"

#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/metrics.h"
#include "prof/profiler.h"

namespace tg::storage {

namespace {

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

}  // namespace

Status ParseIoSpec(const std::string& spec, IoConfig* config) {
  IoConfig parsed;
  if (spec == "sync") {
    parsed.mode = IoMode::kSync;
  } else if (spec == "async") {
    parsed.mode = IoMode::kAsync;
  } else {
    return Status::InvalidArgument("unknown I/O spec \"" + spec +
                                   "\" (expected sync | async)");
  }
  *config = parsed;
  return Status::Ok();
}

std::string IoSpecString(const IoConfig& config) {
  return config.mode == IoMode::kSync ? "sync" : "async";
}

IoConfig& GlobalIoConfig() {
  static IoConfig config = [] {
    IoConfig c;
    const char* env = std::getenv("TG_IO");
    if (env != nullptr && env[0] != '\0') {
      IoConfig parsed;
      const Status status = ParseIoSpec(env, &parsed);
      if (status.ok()) {
        c = parsed;
      } else {
        std::fprintf(stderr, "warning: TG_IO: %s\n",
                     status.ToString().c_str());
      }
    }
    return c;
  }();
  return config;
}

std::unique_ptr<FileWriterBase> MakeFileWriter(std::size_t buffer_bytes,
                                               const IoConfig& config) {
  if (config.mode == IoMode::kSync) {
    return std::make_unique<FileWriter>(buffer_bytes);
  }
  return std::make_unique<AsyncFileWriter>(buffer_bytes);
}

std::unique_ptr<FileWriterBase> MakeFileWriter(std::size_t buffer_bytes) {
  return MakeFileWriter(buffer_bytes, GlobalIoConfig());
}

AsyncFileWriter::~AsyncFileWriter() { Close(); }

Status AsyncFileWriter::BackendOpen(const std::string& path, bool resume,
                                    std::uint64_t offset) {
  const int flags = resume ? O_WRONLY : (O_WRONLY | O_CREAT | O_TRUNC);
  fd_ = ::open(path.c_str(), flags, 0666);
  if (fd_ < 0) {
    return Status::IoError((resume ? "cannot open for resume: "
                                   : "cannot open for write: ") +
                           path);
  }
  if (resume && ::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Status::IoError("cannot truncate for resume: " + path);
  }
  next_offset_ = offset;
  stall_carry_us_ = 0;
  stop_ = false;
  writer_thread_ = std::thread(&AsyncFileWriter::WriterLoop, this);
  return Status::Ok();
}

std::vector<char> AsyncFileWriter::TakeSpareBuffer() {
  if (spare_buffers_.empty()) return {};
  std::vector<char> buffer = std::move(spare_buffers_.back());
  spare_buffers_.pop_back();
  buffer.clear();
  return buffer;
}

void AsyncFileWriter::EnqueueBlock(std::vector<char>&& data) {
  const std::size_t n = data.size();
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
  if (backend_failed()) return;  // sticky error: drop the block
  Block block;
  block.data = std::move(data);
  block.offset = next_offset_;
  next_offset_ += n;
  queue_.push_back(std::move(block));
  ++pending_blocks_;
  InflightGauge()->Add(static_cast<double>(n));
  writer_cv_.notify_one();
}

void AsyncFileWriter::BackendWrite(std::vector<char>& buffer) {
  std::vector<char> data;
  data.swap(buffer);
  EnqueueBlock(std::move(data));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffer = TakeSpareBuffer();
  }
  if (buffer.capacity() < buffer_capacity()) buffer.reserve(buffer_capacity());
}

void AsyncFileWriter::BackendWriteDirect(const char* data, std::size_t n) {
  const std::size_t chunk = buffer_capacity();
  while (n > 0 && !backend_failed()) {
    const std::size_t m = std::min(n, chunk);
    std::vector<char> block;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      block = TakeSpareBuffer();
    }
    block.assign(data, data + m);
    EnqueueBlock(std::move(block));
    data += m;
    n -= m;
  }
}

void AsyncFileWriter::BackendBarrier() {
  std::unique_lock<std::mutex> lock(mutex_);
  producer_cv_.wait(lock, [this] { return pending_blocks_ == 0; });
}

void AsyncFileWriter::BackendRewriteAt(std::uint64_t offset, const char* data,
                                       std::size_t n) {
  // Only reached between BackendBarrier() and the next append: the writer
  // thread is idle, so a producer-side pwrite cannot interleave with it.
  if (fd_ >= 0) WriteAt(data, n, offset);
}

void AsyncFileWriter::BackendClose() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  writer_cv_.notify_all();
  if (writer_thread_.joinable()) writer_thread_.join();
  queue_.clear();
  spare_buffers_.clear();
  pending_blocks_ = 0;
  if (fd_ >= 0) {
    if (::close(fd_) != 0 && !backend_failed()) {
      RecordBackendError(Status::IoError("close failed: " + path()));
    }
    fd_ = -1;
  }
}

void AsyncFileWriter::WriteAt(const char* data, std::size_t n,
                              std::uint64_t offset) {
  if (backend_failed()) return;
  const IoFailureHook& hook = IoFailureHookRef();
  if (hook && hook(path())) {
    RecordBackendError(Status::IoError("injected I/O failure: " + path()));
    return;
  }
  if (!PwriteAll(fd_, data, n, offset)) {
    RecordBackendError(Status::IoError("write failed: " + path()));
  }
}

void AsyncFileWriter::RetireBlock(Block& block) {
  InflightGauge()->Add(-static_cast<double>(block.data.size()));
  block.data.clear();
  if (spare_buffers_.size() < kQueueDepth) {
    spare_buffers_.push_back(std::move(block.data));
  }
  block.data = {};
  --pending_blocks_;
  producer_cv_.notify_all();
}

void AsyncFileWriter::WriterLoop() {
  prof::EnsureThreadRegistered();
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    writer_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ with nothing left to write
    Block block = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    WriteAt(block.data.data(), block.data.size(), block.offset);
    lock.lock();
    RetireBlock(block);
  }
}

}  // namespace tg::storage
