#include "format/csr6.h"

#include <algorithm>
#include <cstring>

#include "format/resume_token.h"
#include "obs/metrics.h"
#include "storage/file_io.h"

namespace tg::format {

namespace {

void EncodeU64(std::uint64_t value, unsigned char* out) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>((value >> (8 * i)) & 0xFF);
  }
}

std::uint64_t DecodeU64(const unsigned char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{in[i]} << (8 * i);
  return v;
}

void AppendU64(std::vector<unsigned char>* out, std::uint64_t value) {
  unsigned char tmp[8];
  EncodeU64(value, tmp);
  out->insert(out->end(), tmp, tmp + 8);
}

}  // namespace

Csr6Writer::Csr6Writer(const std::string& path, VertexId lo, VertexId hi,
                       storage::IoMode mode)
    : writer_(storage::FileWriter::kDefaultBufferBytes, mode),
      path_(path),
      lo_(lo),
      hi_(hi),
      next_vertex_(lo),
      sidecar_next_(lo) {
  TG_CHECK(hi >= lo);
  offsets_.assign(hi - lo + 1, 0);
  if (!writer_.Open(path).ok()) return;
  // Reserve the header + offsets region; it is rewritten in Finish() once
  // the offsets are known, so edges can stream sequentially after it.
  std::vector<char> zeros(HeaderBytes(), 0);
  writer_.Append(zeros.data(), zeros.size());
}

Csr6Writer::Csr6Writer(const std::string& path, VertexId lo, VertexId hi,
                       const core::ResumeFrom& resume, storage::IoMode mode)
    : writer_(storage::FileWriter::kDefaultBufferBytes, mode),
      path_(path),
      lo_(lo),
      hi_(hi),
      next_vertex_(lo),
      sidecar_next_(lo) {
  TG_CHECK(hi >= lo);
  resumable_ = true;
  offsets_.assign(hi - lo + 1, 0);
  std::uint64_t bytes = 0;
  std::uint64_t next = 0;
  std::uint64_t edges = 0;
  if (!TokenField(resume.state, "bytes", &bytes) ||
      !TokenField(resume.state, "next", &next) ||
      !TokenField(resume.state, "edges", &edges)) {
    status_ =
        Status::InvalidArgument("malformed CSR6 resume token: " + resume.state);
    return;
  }
  if (next < lo || next > hi || bytes != HeaderBytes() + 6 * edges) {
    status_ = Status::Corruption(
        "CSR6 resume token inconsistent with shard: " + resume.state);
    return;
  }
  // Rebuild the committed degree prefix from the sidecar. Entries past the
  // token's vertex — appended by a checkpoint whose journal record never
  // landed — and a torn final entry are simply ignored: the token decides
  // what is committed.
  const std::string sidecar_path = SidecarPath(path);
  std::FILE* side = std::fopen(sidecar_path.c_str(), "rb");
  if (side == nullptr) {
    status_ = Status::IoError("cannot open CSR6 sidecar: " + sidecar_path);
    return;
  }
  std::uint64_t degree_sum = 0;
  for (VertexId u = lo; u < next; ++u) {
    unsigned char entry[8];
    if (std::fread(entry, 1, 8, side) != 8) {
      status_ = Status::Corruption("CSR6 sidecar shorter than resume token: " +
                                   sidecar_path);
      std::fclose(side);
      return;
    }
    offsets_[u - lo + 1] = DecodeU64(entry);
    degree_sum += offsets_[u - lo + 1];
  }
  std::fclose(side);
  if (degree_sum != edges) {
    status_ = Status::Corruption(
        "CSR6 sidecar degrees do not sum to committed edges: " + sidecar_path);
    return;
  }
  if (!writer_.OpenForResume(path, bytes).ok()) return;
  // Trim uncommitted sidecar entries too, so this process appends from a
  // clean record boundary.
  sidecar_ = std::fopen(sidecar_path.c_str(), "r+b");
  if (sidecar_ == nullptr ||
      ::ftruncate(fileno(sidecar_),
                  static_cast<off_t>((next - lo) * 8)) != 0 ||
      std::fseek(sidecar_, 0, SEEK_END) != 0) {
    status_ = Status::IoError("cannot truncate CSR6 sidecar: " + sidecar_path);
    return;
  }
  next_vertex_ = next;
  sidecar_next_ = next;
  num_edges_ = edges;
}

Csr6Writer::~Csr6Writer() {
  if (!finished_) {
    if (resumable_) {
      // Interrupted mid-run: do NOT finalize — a partial shard with a valid
      // header would masquerade as complete. Flush raw bytes (a resuming
      // process truncates back to the last committed token) and close.
      writer_.Close();
    } else {
      Finish();
    }
  }
  if (sidecar_ != nullptr) {
    std::fclose(sidecar_);
    sidecar_ = nullptr;
  }
}

Status Csr6Writer::CommitState(std::string* token) {
  resumable_ = true;
  if (!status().ok()) return status();
  Status s = writer_.FlushToOs();
  if (!s.ok()) return s;
  const std::string sidecar_path = SidecarPath(path_);
  if (sidecar_ == nullptr) {
    sidecar_ = std::fopen(sidecar_path.c_str(), "wb");
    if (sidecar_ == nullptr) {
      status_ = Status::IoError("cannot open CSR6 sidecar: " + sidecar_path);
      return status_;
    }
  }
  for (VertexId u = sidecar_next_; u < next_vertex_; ++u) {
    unsigned char entry[8];
    EncodeU64(offsets_[u - lo_ + 1], entry);
    if (std::fwrite(entry, 1, 8, sidecar_) != 8) {
      status_ = Status::IoError("sidecar write failed: " + sidecar_path);
      return status_;
    }
  }
  if (std::fflush(sidecar_) != 0) {
    status_ = Status::IoError("sidecar flush failed: " + sidecar_path);
    return status_;
  }
  sidecar_next_ = next_vertex_;
  *token = "bytes=" + std::to_string(writer_.bytes_written()) +
           ",next=" + std::to_string(next_vertex_) +
           ",edges=" + std::to_string(num_edges_);
  return status();
}

void Csr6Writer::ConsumeScope(VertexId u, const VertexId* adj,
                              std::size_t n) {
  if (!status().ok()) return;  // dead disk: stop sorting and encoding too
  TG_CHECK_MSG(u >= next_vertex_ && u < hi_,
               "CSR6 scopes must arrive in increasing order within [lo, hi)");
  next_vertex_ = u + 1;
  offsets_[u - lo_ + 1] = n;  // degree for now; prefix-summed in Finish()
  sorted_.assign(adj, adj + n);
  std::sort(sorted_.begin(), sorted_.end());
  // One range check per scope (the max neighbor, free after the sort)
  // instead of one per Append48 in the hot loop.
  TG_CHECK_MSG(sorted_.empty() || sorted_.back() < (std::uint64_t{1} << 48),
               "CSR6 adjacency of vertex "
                   << u << " holds a value that does not fit in 6 bytes: "
                   << (sorted_.empty() ? 0 : sorted_.back()));
  for (VertexId v : sorted_) writer_.Append48(v);
  num_edges_ += n;
}

Status Csr6Writer::Finish() {
  if (finished_) return status();
  finished_ = true;
  if (!writer_.is_open()) return status();  // construction failed
  // Degrees -> offsets.
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  if (status().ok()) {
    // Constructed from the magic rather than inserted into an empty
    // vector: GCC 12 misreports the latter as a stringop overflow under
    // -fsanitize=thread, and this file builds with -Werror.
    std::vector<unsigned char> header(kMagic, kMagic + 8);
    header.reserve(HeaderBytes());
    AppendU64(&header, kVersion);
    AppendU64(&header, lo_);
    AppendU64(&header, hi_);
    AppendU64(&header, num_edges_);
    for (std::uint64_t off : offsets_) AppendU64(&header, off);
    writer_.RewriteAt(0, header.data(), header.size());
  }
  writer_.Close();
  obs::GetCounter("format.csr6.bytes_written")->Add(writer_.bytes_written());
  return status();
}

}  // namespace tg::format
