#ifndef TRILLIONG_FORMAT_CSR6_H_
#define TRILLIONG_FORMAT_CSR6_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/scope_sink.h"
#include "storage/file_io.h"
#include "util/common.h"
#include "util/status.h"

namespace tg::format {

/// The 6-byte Compressed Sparse Row binary format of Section 5 (CSR6). One
/// file covers a contiguous vertex range [lo, hi) (a shard; the whole graph
/// when lo == 0 and hi == |V|):
///
///   [magic "TGCSR6\0\0" : 8][version : 8][lo : 8][hi : 8][num_edges : 8]
///   [offsets : (hi - lo + 1) * 8]          // offsets[i] = first edge of lo+i
///   [neighbors : num_edges * 6]            // sorted within each adjacency
///
/// Scopes must be fed in increasing vertex order (exactly what the AVS
/// generator produces); adjacency lists are sorted by the writer.
class Csr6Writer : public core::ResumableSink {
 public:
  /// `mode` picks who writes the staging blocks (storage::FileWriter).
  Csr6Writer(const std::string& path, VertexId lo, VertexId hi,
             storage::IoMode mode = storage::GlobalIoConfig().mode);

  /// Resume constructor: restores the writer from a CommitState token
  /// ("bytes=B,next=V,edges=E") plus the degree sidecar (SidecarPath) the
  /// interrupted process kept, truncates the edge stream back to byte B,
  /// and continues at vertex V. The sidecar is needed because the CSR
  /// offset table is only materialized in Finish(): per-vertex degrees are
  /// appended durably at every checkpoint so a new process can rebuild the
  /// in-memory prefix.
  Csr6Writer(const std::string& path, VertexId lo, VertexId hi,
             const core::ResumeFrom& resume,
             storage::IoMode mode = storage::GlobalIoConfig().mode);
  ~Csr6Writer() override;

  void ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) override;
  Status Finish() override;

  /// Durable checkpoint: flushes edge bytes, appends the degrees of newly
  /// consumed vertices to the sidecar, and renders the token. The sidecar
  /// outlives Finish() — the caller (gen_cli) deletes it once the whole
  /// run's journal records completion, so a crash between the last chunk
  /// commit and Finish stays recoverable.
  Status CommitState(std::string* token) override;

  /// Path of the degree sidecar kept next to a resumable CSR6 file.
  static std::string SidecarPath(const std::string& path) {
    return path + ".offsets";
  }

  /// Transport errors surface through the writer; token/sidecar problems
  /// through the local status — whichever failed first wins.
  const Status& status() const {
    return status_.ok() ? writer_.status() : status_;
  }
  std::uint64_t bytes_written() const { return writer_.bytes_written(); }

  static constexpr char kMagic[8] = {'T', 'G', 'C', 'S', 'R', '6', 0, 0};
  static constexpr std::uint64_t kVersion = 1;

 private:
  std::uint64_t HeaderBytes() const { return 8 * 5 + offsets_.size() * 8; }

  storage::FileWriter writer_;
  std::FILE* sidecar_ = nullptr;
  std::string path_;
  Status status_;
  VertexId lo_;
  VertexId hi_;
  VertexId next_vertex_;
  VertexId sidecar_next_;  ///< first vertex whose degree is not yet durable
  std::uint64_t num_edges_ = 0;
  std::vector<std::uint64_t> offsets_;
  std::vector<VertexId> sorted_;
  bool finished_ = false;
  bool resumable_ = false;  ///< CommitState was used (or resume constructor)
};

}  // namespace tg::format

#endif  // TRILLIONG_FORMAT_CSR6_H_
