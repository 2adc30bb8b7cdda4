// storage/async_writer.h — double-buffered asynchronous FileWriter backend
// plus the process-wide I/O mode selection (TG_IO env, gen_cli --io flag).
//
// AsyncFileWriter moves the kernel copy off the producer thread: Append()
// fills a buffer as before, but a full buffer is handed (one pointer swap,
// no copy) to a dedicated writer thread that issues positional pwrite(2)
// calls. Up to kQueueDepth blocks ride in flight; the producer only
// stalls when all are taken (counted in io.writer_stall_ms). Buffers are
// recycled through a free list, so steady state allocates nothing.
//
// The FileWriterBase contracts survive the thread hop (fault_test.cc,
// io_test.cc): errors detected on the writer thread — including the
// IoFailureHook firing there — are sticky and surface on the next
// producer-side status() call; FlushToOs() drains the in-flight queue before
// returning, keeping it the journal's durability barrier; and output is
// byte-identical to the sync writer because blocks are written in hand-off
// order at explicit offsets.
#ifndef TRILLIONG_STORAGE_ASYNC_WRITER_H_
#define TRILLIONG_STORAGE_ASYNC_WRITER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/file_io.h"
#include "util/status.h"

namespace tg::storage {

/// Which FileWriterBase backend MakeFileWriter() hands out.
enum class IoMode {
  kSync,   // stdio FileWriter: every flush is a blocking fwrite
  kAsync,  // AsyncFileWriter: flushes hop to a writer thread
};

/// Process-wide I/O configuration. Defaults to the async path; overridden by
/// the TG_IO environment variable at first use and by the gen_cli --io flag.
struct IoConfig {
  IoMode mode = IoMode::kAsync;
};

/// Parses an I/O spec — "sync" or "async" — into `config`. InvalidArgument
/// on anything else.
Status ParseIoSpec(const std::string& spec, IoConfig* config);

/// Canonical spec string for a config ("sync" or "async"), as recorded in
/// RunReport meta.
std::string IoSpecString(const IoConfig& config);

/// The mutable process-wide config. Initialized from TG_IO on first call;
/// not thread-safe to mutate once worker threads are constructing writers.
IoConfig& GlobalIoConfig();

/// Constructs a writer for the given (or global) config.
std::unique_ptr<FileWriterBase> MakeFileWriter(std::size_t buffer_bytes,
                                               const IoConfig& config);
std::unique_ptr<FileWriterBase> MakeFileWriter(
    std::size_t buffer_bytes = 1 << 20);

/// RAII override of GlobalIoConfig() for tests.
class ScopedIoConfig {
 public:
  explicit ScopedIoConfig(const IoConfig& config)
      : saved_(GlobalIoConfig()) {
    GlobalIoConfig() = config;
  }
  ~ScopedIoConfig() { GlobalIoConfig() = saved_; }

  ScopedIoConfig(const ScopedIoConfig&) = delete;
  ScopedIoConfig& operator=(const ScopedIoConfig&) = delete;

 private:
  IoConfig saved_;
};

/// Double-buffered asynchronous writer. Producer-side API is exactly
/// FileWriterBase; one writer thread per open file performs the writes.
class AsyncFileWriter final : public FileWriterBase {
 public:
  explicit AsyncFileWriter(std::size_t buffer_bytes = 1 << 20)
      : FileWriterBase(buffer_bytes) {}

  ~AsyncFileWriter() override;

  /// Blocks the producer until at most `max_inflight` blocks are queued or
  /// being written (default kQueueDepth).
  static constexpr std::size_t kQueueDepth = 4;

 protected:
  Status BackendOpen(const std::string& path, bool resume,
                     std::uint64_t offset) override;
  void BackendWrite(std::vector<char>& buffer) override;
  void BackendWriteDirect(const char* data, std::size_t n) override;
  void BackendBarrier() override;
  void BackendRewriteAt(std::uint64_t offset, const char* data,
                        std::size_t n) override;
  void BackendClose() override;

 private:
  struct Block {
    std::vector<char> data;
    std::uint64_t offset = 0;
  };

  void EnqueueBlock(std::vector<char>&& data);
  std::vector<char> TakeSpareBuffer();  // caller holds mutex_
  void WriterLoop();
  // Positional write on the open fd (hook check, short-write/EINTR retry);
  // failures are recorded as the sticky backend error.
  void WriteAt(const char* data, std::size_t n, std::uint64_t offset);
  void RetireBlock(Block& block);  // caller holds mutex_

  int fd_ = -1;
  std::uint64_t next_offset_ = 0;  // producer-side append cursor

  std::mutex mutex_;
  std::condition_variable producer_cv_;  // block retired / queue drained
  std::condition_variable writer_cv_;    // work arrived / stop requested
  std::deque<Block> queue_;
  std::vector<std::vector<char>> spare_buffers_;
  std::size_t pending_blocks_ = 0;  // queued + in flight
  bool stop_ = false;
  std::thread writer_thread_;

  std::uint64_t stall_carry_us_ = 0;  // sub-ms stall remainder
};

}  // namespace tg::storage

#endif  // TRILLIONG_STORAGE_ASYNC_WRITER_H_
