// format/csr6_mapped.h — the CSR6 shard reader. The whole shard is mmap'd
// read-only: the 8-byte offset table is used in place (it starts at byte
// 40, so it is naturally 8-aligned) and the 6-byte packed neighbors are
// decoded on the fly. Loading a shard costs one mmap regardless of size;
// pages fault in as the reader traverses them. tg::query loads graphs
// through it (query/csr_graph.cc), and so do MergeCsr6Shards and the
// degree_analysis example.
#ifndef TRILLIONG_FORMAT_CSR6_MAPPED_H_
#define TRILLIONG_FORMAT_CSR6_MAPPED_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace tg::format {

class Csr6MappedReader {
 public:
  explicit Csr6MappedReader(const std::string& path);
  ~Csr6MappedReader();

  Csr6MappedReader(const Csr6MappedReader&) = delete;
  Csr6MappedReader& operator=(const Csr6MappedReader&) = delete;

  /// Structural problems (bad magic, inverted vertex range, size mismatch,
  /// offsets that disagree with the edge count) surface as a Corruption
  /// status: a tool should report a broken shard, not crash on it.
  const Status& status() const { return status_; }

  VertexId lo() const { return lo_; }
  VertexId hi() const { return hi_; }
  std::uint64_t num_edges() const { return num_edges_; }

  /// Offset of u's first edge within the shard's edge array.
  std::uint64_t EdgeOffset(VertexId u) const {
    TG_DCHECK(u >= lo_ && u <= hi_);
    return LoadU64(offsets_ + 8 * (u - lo_));
  }

  std::uint64_t Degree(VertexId u) const {
    TG_DCHECK(u >= lo_ && u < hi_);
    return EdgeOffset(u + 1) - EdgeOffset(u);
  }

  /// Neighbor at absolute edge index (EdgeOffset(u) + i for u's i-th).
  VertexId NeighborAt(std::uint64_t edge_index) const {
    TG_DCHECK(edge_index < num_edges_);
    // 6-byte memcpy, not an 8-byte load masked down: the last record ends
    // exactly at EOF, and reading 2 bytes past it can cross the final page.
    std::uint64_t v = 0;
    std::memcpy(&v, neighbors_ + 6 * edge_index, 6);
    return FromLittleEndian48(v);
  }

  /// Widens u's 6-byte neighbors into `out` (Degree(u) entries).
  void CopyNeighbors(VertexId u, VertexId* out) const;

  /// u's neighbors as a fresh vector (sorted, as the writer stored them).
  std::vector<VertexId> Neighbors(VertexId u) const {
    std::vector<VertexId> out(Degree(u));
    CopyNeighbors(u, out.data());
    return out;
  }

  /// Widens the whole shard's neighbor array into `out` (num_edges entries),
  /// in file order — the bulk-load path of query::CsrGraph.
  void CopyAllNeighbors(VertexId* out) const;

 private:
  static std::uint64_t LoadU64(const unsigned char* p) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, 8);
    return FromLittleEndian64(v);
  }

  // The formats are little-endian on disk; on LE hosts (every supported
  // target) these compile to nothing.
  static std::uint64_t FromLittleEndian64(std::uint64_t v);
  static std::uint64_t FromLittleEndian48(std::uint64_t v);

  Status status_;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  const unsigned char* offsets_ = nullptr;
  const unsigned char* neighbors_ = nullptr;
  VertexId lo_ = 0;
  VertexId hi_ = 0;
  std::uint64_t num_edges_ = 0;
};

}  // namespace tg::format

#endif  // TRILLIONG_FORMAT_CSR6_MAPPED_H_
