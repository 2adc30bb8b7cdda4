#ifndef TRILLIONG_FORMAT_ADJ6_H_
#define TRILLIONG_FORMAT_ADJ6_H_

#include <functional>
#include <string>
#include <vector>

#include "core/scope_sink.h"
#include "storage/file_io.h"
#include "util/common.h"
#include "util/status.h"

namespace tg::format {

/// The 6-byte adjacency-list binary format of Section 5 (ADJ6): a sequence
/// of records
///   [vertex id : 6 bytes][degree : 6 bytes][neighbor : 6 bytes]*degree
/// in little-endian byte order. Vertices with degree 0 are omitted. File
/// sizes are typically 3-4x smaller than TSV, and writing is a straight
/// memcpy of what the AVS generator already produces per scope.
class Adj6Writer : public core::ResumableSink {
 public:
  /// `mode` picks who writes the staging blocks (storage::FileWriter).
  explicit Adj6Writer(const std::string& path,
                      storage::IoMode mode = storage::IoMode::kAsync);

  /// Resume constructor: truncates `path` to the byte position recorded in
  /// `resume.state` (a token from CommitState) and continues appending.
  Adj6Writer(const std::string& path, const core::ResumeFrom& resume,
             storage::IoMode mode = storage::IoMode::kAsync);

  void ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) override;
  Status Finish() override;

  /// Durable checkpoint; token is "bytes=<flushed byte count>". ADJ6 is a
  /// pure record stream, so a byte offset at a record boundary is the whole
  /// resume state.
  Status CommitState(std::string* token) override;

  const Status& status() const { return writer_.status(); }
  std::uint64_t bytes_written() const { return writer_.bytes_written(); }

 private:
  storage::FileWriter writer_;
};

/// Streaming ADJ6 reader. Every length is checked against the bytes left
/// in the file before it is read or allocated, so a cut or corrupt file
/// latches Status::Corruption instead of aborting.
class Adj6Reader {
 public:
  explicit Adj6Reader(const std::string& path);

  /// Reads the next adjacency record; returns false at EOF or on error
  /// (see status()).
  bool Next(VertexId* u, std::vector<VertexId>* adj);

  /// Visits every record; returns the first error, if any.
  static Status ForEach(
      const std::string& path,
      const std::function<void(VertexId, const std::vector<VertexId>&)>& fn);

  const Status& status() const { return status_; }

 private:
  storage::FileReader reader_;
  Status status_;
  std::uint64_t remaining_ = 0;  ///< file bytes not yet read
};

}  // namespace tg::format

#endif  // TRILLIONG_FORMAT_ADJ6_H_
