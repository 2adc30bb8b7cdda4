#ifndef TRILLIONG_FORMAT_TSV_H_
#define TRILLIONG_FORMAT_TSV_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/scope_sink.h"
#include "storage/file_io.h"
#include "util/common.h"
#include "util/status.h"

namespace tg::format {

/// Edge-list text writer: one "src\tdst\n" line per edge (the TSV format of
/// Section 5 — verbose, universally supported, slow to parse).
class TsvWriter : public core::ResumableSink {
 public:
  /// `transposed` swaps the emitted columns; used when the scopes come from
  /// an AVS-I run (scope vertex is the destination). `mode` picks who
  /// writes the staging blocks (storage::FileWriter).
  explicit TsvWriter(const std::string& path, bool transposed = false,
                     storage::IoMode mode = storage::IoMode::kAsync);

  /// Resume constructor: truncates `path` to the byte position recorded in
  /// `resume.state` (a token from CommitState) and continues appending.
  TsvWriter(const std::string& path, bool transposed,
            const core::ResumeFrom& resume,
            storage::IoMode mode = storage::IoMode::kAsync);

  void ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) override;
  Status Finish() override;

  /// Durable checkpoint; token is "bytes=<flushed byte count>".
  Status CommitState(std::string* token) override;

  /// Writes one explicit edge (for edge-at-a-time baselines).
  void WriteEdge(VertexId src, VertexId dst);

  const Status& status() const { return writer_.status(); }
  std::uint64_t bytes_written() const { return writer_.bytes_written(); }

 private:
  /// Staging bytes claimed per line: two 20-digit values plus "\t\n",
  /// with slack. Each value's encoder stores at least 8 bytes, and this
  /// covers that too.
  static constexpr std::size_t kMaxLine = 44;

  storage::FileWriter writer_;
  bool transposed_;
};

/// Reads a TSV edge list produced by TsvWriter (or any whitespace-separated
/// pair-per-line file). Block-buffered: bytes are pulled in `buffer_bytes`
/// chunks and values parsed in place — no per-edge fscanf. Values must fit
/// the 6-byte formats downstream; anything >= 2^48 is rejected with a
/// Corruption status naming the line, as is any non-numeric field.
class TsvReader {
 public:
  explicit TsvReader(const std::string& path,
                     std::size_t buffer_bytes = 1 << 16);
  ~TsvReader();
  TsvReader(const TsvReader&) = delete;
  TsvReader& operator=(const TsvReader&) = delete;

  /// Reads the next edge; returns false at EOF or on error (check status()).
  bool Next(Edge* edge);

  /// Convenience: reads the whole file.
  static std::vector<Edge> ReadAll(const std::string& path);

  const Status& status() const { return status_; }

  /// 1-based line number the parser is currently on.
  std::uint64_t line() const { return line_; }

 private:
  int PeekChar();  // -1 at EOF

  std::FILE* file_ = nullptr;
  std::string path_;
  Status status_;
  std::vector<char> buffer_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  std::uint64_t line_ = 1;
};

}  // namespace tg::format

#endif  // TRILLIONG_FORMAT_TSV_H_
