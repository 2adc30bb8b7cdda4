// storage/async_writer.h — names that exist only so that ledger/layers.cc,
// which the benchmark pins, keeps compiling unchanged. The one writer and
// its I/O modes live in storage/file_io.h; new code includes that and
// passes the mode to the FileWriter constructor.
#ifndef TRILLIONG_STORAGE_ASYNC_WRITER_H_
#define TRILLIONG_STORAGE_ASYNC_WRITER_H_

#include <memory>

#include "storage/file_io.h"

namespace tg::storage {

// The ledger picks each writer's mode through this struct.
struct IoConfig {
  IoMode mode = IoMode::kAsync;
};

// Kept for ledger/layers.cc, which names the pre-merge writer base class.
using FileWriterBase = FileWriter;

// Kept for ledger/layers.cc, which builds its writers through this factory.
inline std::unique_ptr<FileWriter> MakeFileWriter(std::size_t buffer_bytes,
                                                  const IoConfig& config) {
  return std::make_unique<FileWriter>(buffer_bytes, config.mode);
}

}  // namespace tg::storage

#endif  // TRILLIONG_STORAGE_ASYNC_WRITER_H_
