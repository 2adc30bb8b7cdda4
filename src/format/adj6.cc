#include "format/adj6.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "format/resume_token.h"
#include "obs/metrics.h"

namespace tg::format {

namespace {

/// Stores the low 6 bytes of `v` little-endian at `p`.
inline void Store48(char* p, std::uint64_t v) {
  for (int i = 0; i < 6; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

/// Store48 as one 8-byte store: bytes p[6], p[7] receive spill, so the
/// caller must own them and overwrite them next.
inline void Store48Wide(char* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
  }
}

}  // namespace

Adj6Writer::Adj6Writer(const std::string& path, storage::IoMode mode)
    : writer_(storage::FileWriter::kDefaultBufferBytes, mode) {
  writer_.Open(path);
}

Adj6Writer::Adj6Writer(const std::string& path, const core::ResumeFrom& resume,
                       storage::IoMode mode)
    : writer_(storage::FileWriter::kDefaultBufferBytes, mode) {
  std::uint64_t bytes = 0;
  if (!TokenField(resume.state, "bytes", &bytes)) {
    writer_.OpenForResume("", 0);  // sticky error: malformed token
    return;
  }
  writer_.OpenForResume(path, bytes);
}

Status Adj6Writer::CommitState(std::string* token) {
  Status s = writer_.FlushToOs();
  if (!s.ok()) return s;
  *token = "bytes=" + std::to_string(writer_.bytes_written());
  return s;
}

void Adj6Writer::ConsumeScope(VertexId u, const VertexId* adj,
                              std::size_t n) {
  if (n == 0 || !writer_.status().ok()) return;
  // The record [u][n][adj...] goes out in as few staging reservations as
  // the buffer allows — one per scope unless the record straddles a flush.
  // Each slice holds exactly the values that fit before the flush point, so
  // flushes land on the same bytes (and io.flushes counts the same) as
  // appending one value at a time would.
  const VertexId head[2] = {u, n};
  const std::size_t total = n + 2;
  VertexId mask = u | n;
  std::size_t done = 0;  // record values written so far
  while (done < total) {
    const std::size_t fit = std::min(total - done, writer_.Room() / 6);
    if (fit == 0) {
      // Not one value fits: Append48 flushes first (or, with a staging
      // buffer under 6 bytes, writes the value straight through).
      const VertexId v = done < 2 ? head[done] : adj[done - 2];
      mask |= v;
      writer_.Append48(v);
      ++done;
      continue;
    }
    char* q = writer_.Reserve(fit * 6);
    if (q == nullptr) return;
    const std::size_t end = done + fit;
    for (; done < 2 && done < end; ++done, q += 6) Store48(q, head[done]);
    if (done == end) continue;
    // All but the slice's last value go out as 8-byte stores whose two
    // spill bytes the next value overwrites; the last stays inside the
    // reservation.
    const VertexId* a = adj + (done - 2);
    const std::size_t k = end - done;
    for (std::size_t i = 0; i + 1 < k; ++i, q += 6) {
      mask |= a[i];
      Store48Wide(q, a[i]);
    }
    mask |= a[k - 1];
    Store48(q, a[k - 1]);
    done = end;
  }
  // One range check per scope instead of one per value — the OR above is
  // free next to the store, and an out-of-range id is fatal either way.
  TG_CHECK_MSG(mask < (std::uint64_t{1} << 48),
               "ADJ6 record for vertex " << u
                                         << " holds a value that does not fit "
                                            "in 6 bytes");
}

Status Adj6Writer::Finish() {
  Status status = writer_.Close();
  obs::GetCounter("format.adj6.bytes_written")->Add(writer_.bytes_written());
  return status;
}

Adj6Reader::Adj6Reader(const std::string& path) {
  status_ = reader_.Open(path);
  remaining_ = reader_.size();
}

bool Adj6Reader::Next(VertexId* u, std::vector<VertexId>* adj) {
  if (!status_.ok() || remaining_ == 0) return false;
  const std::uint64_t offset = reader_.size() - remaining_;
  std::uint64_t vertex = 0, degree = 0;
  if (remaining_ < 12 || !reader_.Read48(&vertex) ||
      !reader_.Read48(&degree)) {
    status_ = Status::Corruption("truncated ADJ6 record header at byte " +
                                 std::to_string(offset) + ": " +
                                 reader_.path());
    return false;
  }
  remaining_ -= 12;
  if (degree > remaining_ / 6) {
    status_ = Status::Corruption(
        "truncated ADJ6 adjacency: vertex " + std::to_string(vertex) +
        " at byte " + std::to_string(offset) + " claims degree " +
        std::to_string(degree) + " but " + std::to_string(remaining_) +
        " bytes remain: " + reader_.path());
    return false;
  }
  adj->resize(degree);
  for (std::uint64_t i = 0; i < degree; ++i) reader_.Read48(&(*adj)[i]);
  remaining_ -= 6 * degree;
  *u = vertex;
  return true;
}

Status Adj6Reader::ForEach(
    const std::string& path,
    const std::function<void(VertexId, const std::vector<VertexId>&)>& fn) {
  Adj6Reader reader(path);
  if (!reader.status().ok()) return reader.status();
  VertexId u;
  std::vector<VertexId> adj;
  while (reader.Next(&u, &adj)) fn(u, adj);
  return reader.status();
}

}  // namespace tg::format
