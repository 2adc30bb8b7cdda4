#include "format/tsv.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "format/resume_token.h"
#include "obs/metrics.h"

namespace tg::format {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the digit encoder stores its first byte lowest");

/// The eight decimal digits of `v` (v < 1e8), zero-padded, as byte values
/// 0..9 (not yet ASCII) in one word, most significant digit in the lowest
/// byte. One divide splits v into 32-bit lanes of four digits; multiply-
/// shift divides split those into 16-bit lanes of two and bytes of one, so
/// every id costs the same few instructions whatever its length.
inline std::uint64_t Digits8(std::uint32_t v) {
  // Lanes: [v / 10^4, v % 10^4] in 32 bits each.
  const std::uint64_t tenk = v / 10000;
  const std::uint64_t lanes32 = tenk | (std::uint64_t{v - tenk * 10000} << 32);
  // x / 100 == (x * 10486) >> 20 for x < 10^4; lanes become [x / 100,
  // x % 100] in 16 bits each.
  const std::uint64_t hundreds =
      ((lanes32 * 10486) >> 20) & 0x0000007F0000007FULL;
  const std::uint64_t lanes16 = ((lanes32 - hundreds * 100) << 16) + hundreds;
  // y / 10 == (y * 103) >> 10 for y < 100; lanes become [y / 10, y % 10] in
  // 8 bits each.
  const std::uint64_t tens = ((lanes16 * 103) >> 10) & 0x000F000F000F000FULL;
  return ((lanes16 - tens * 10) << 8) + tens;
}

constexpr std::uint64_t kAsciiZeros = 0x3030303030303030ULL;

/// Writes `v` (v < 1e8) without leading zeros: one 8-byte store at `buf`,
/// returning the digit count. The sentinel bit keeps at least one digit.
inline int FormatBelow1e8(std::uint32_t v, char* buf) {
  const std::uint64_t digits = Digits8(v);
  const int zeros = std::countr_zero(digits | (std::uint64_t{1} << 56)) / 8;
  const std::uint64_t ascii = (digits + kAsciiZeros) >> (8 * zeros);
  std::memcpy(buf, &ascii, 8);
  return 8 - zeros;
}

/// Values of 10^8 and up: the leading digits, then the low eight
/// zero-padded. Vertex ids of graphs up to scale 26 never get here.
int FormatAbove1e8(std::uint64_t value, char* buf) {
  const std::uint64_t head = value / 100000000;
  const int n = head < 100000000
                    ? FormatBelow1e8(static_cast<std::uint32_t>(head), buf)
                    : FormatAbove1e8(head, buf);
  const std::uint64_t ascii =
      Digits8(static_cast<std::uint32_t>(value % 100000000)) + kAsciiZeros;
  std::memcpy(buf + n, &ascii, 8);
  return n + 8;
}

/// Unsigned decimal formatting into `buf`; returns the length. Stores
/// max(8, length) <= 20 bytes at `buf` whatever the value; every caller
/// formats into a kMaxLine (44-byte) reservation, which covers that.
inline int FormatU64(std::uint64_t value, char* buf) {
  if (value < 100000000) {
    return FormatBelow1e8(static_cast<std::uint32_t>(value), buf);
  }
  return FormatAbove1e8(value, buf);
}

}  // namespace

TsvWriter::TsvWriter(const std::string& path, bool transposed,
                     storage::IoMode mode)
    : writer_(storage::FileWriter::kDefaultBufferBytes, mode),
      transposed_(transposed) {
  writer_.Open(path);
}

TsvWriter::TsvWriter(const std::string& path, bool transposed,
                     const core::ResumeFrom& resume, storage::IoMode mode)
    : writer_(storage::FileWriter::kDefaultBufferBytes, mode),
      transposed_(transposed) {
  std::uint64_t bytes = 0;
  if (!TokenField(resume.state, "bytes", &bytes)) {
    // Force the writer into a sticky error state (nothing is open).
    writer_.OpenForResume("", 0);
    return;
  }
  writer_.OpenForResume(path, bytes);
}

Status TsvWriter::CommitState(std::string* token) {
  Status s = writer_.FlushToOs();
  if (!s.ok()) return s;
  *token = "bytes=" + std::to_string(writer_.bytes_written());
  return s;
}

void TsvWriter::WriteEdge(VertexId src, VertexId dst) {
  // Format straight into the writer's staging buffer — one copy total. A
  // nullptr reservation is the sticky-error signal (dead disk: stop
  // formatting too).
  char* p = writer_.Reserve(kMaxLine);
  if (p == nullptr) return;
  char* q = p + FormatU64(src, p);
  *q++ = '\t';
  q += FormatU64(dst, q);
  *q++ = '\n';
  writer_.CommitReserved(kMaxLine, static_cast<std::size_t>(q - p));
}

void TsvWriter::ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) {
  if (n == 0 || !writer_.status().ok()) return;
  // The scope's vertex is formatted once and copied into every line. Ids
  // below 10^16 (every id < 2^48) move as one fixed 16-byte copy whose
  // spill the rest of the line overwrites.
  char ubuf[24] = {};
  const std::size_t ulen = static_cast<std::size_t>(FormatU64(u, ubuf));
  auto put_u = [&](char* q) {
    if (ulen <= 16) {
      std::memcpy(q, ubuf, 16);
    } else {
      std::memcpy(q, ubuf, ulen);
    }
    return q + ulen;
  };
  // Lines go out in as few staging reservations as the buffer allows, each
  // line claiming kMaxLine bytes of its slice the way WriteEdge's
  // reservation does — so flushes land on the same bytes (and io.flushes
  // counts the same) as writing edge by edge.
  std::size_t i = 0;
  while (i < n) {
    const std::size_t want =
        std::min(std::max(writer_.Room(), kMaxLine), (n - i) * kMaxLine);
    char* const p = writer_.Reserve(want);
    if (p == nullptr) return;
    char* q = p;
    char* const limit = p + want - kMaxLine;
    if (transposed_) {
      for (; i < n && q <= limit; ++i) {
        q += FormatU64(adj[i], q);
        *q++ = '\t';
        q = put_u(q);
        *q++ = '\n';
      }
    } else {
      for (; i < n && q <= limit; ++i) {
        q = put_u(q);
        *q++ = '\t';
        q += FormatU64(adj[i], q);
        *q++ = '\n';
      }
    }
    writer_.CommitReserved(want, static_cast<std::size_t>(q - p));
  }
}

Status TsvWriter::Finish() {
  Status status = writer_.Close();
  obs::GetCounter("format.tsv.bytes_written")->Add(writer_.bytes_written());
  return status;
}

TsvReader::TsvReader(const std::string& path, std::size_t buffer_bytes)
    : path_(path), buffer_(buffer_bytes == 0 ? 1 : buffer_bytes) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open for read: " + path);
  }
}

TsvReader::~TsvReader() {
  if (file_ != nullptr) std::fclose(file_);
}

int TsvReader::PeekChar() {
  if (pos_ == len_) {
    len_ = std::fread(buffer_.data(), 1, buffer_.size(), file_);
    pos_ = 0;
    if (len_ == 0) return -1;
  }
  return static_cast<unsigned char>(buffer_[pos_]);
}

bool TsvReader::Next(Edge* edge) {
  if (file_ == nullptr || !status_.ok()) return false;
  std::uint64_t values[2];
  for (int field = 0; field < 2; ++field) {
    int c;
    for (;;) {  // skip whitespace (fscanf-compatible: newlines included)
      c = PeekChar();
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r' && c != '\v' &&
          c != '\f') {
        break;
      }
      ++pos_;
    }
    if (c < 0) {
      if (field == 0) return false;  // clean EOF between records
      status_ = Status::Corruption("malformed TSV line " +
                                   std::to_string(line_) + " in " + path_ +
                                   ": file ends after an unpaired value");
      return false;
    }
    if (c < '0' || c > '9') {
      status_ = Status::Corruption(
          "malformed TSV line " + std::to_string(line_) + " in " + path_ +
          ": expected a decimal vertex id, got '" +
          std::string(1, static_cast<char>(c)) + "'");
      return false;
    }
    std::uint64_t value = 0;
    while (c >= '0' && c <= '9') {
      // value < 2^48 here, so value * 10 + 9 < 2^52: no u64 wrap possible.
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
      if (value >= (std::uint64_t{1} << 48)) {
        status_ = Status::Corruption(
            "TSV line " + std::to_string(line_) + " in " + path_ +
            ": vertex id does not fit in 6 bytes (>= 2^48)");
        return false;
      }
      ++pos_;
      c = PeekChar();
    }
    values[field] = value;
  }
  edge->src = values[0];
  edge->dst = values[1];
  return true;
}

std::vector<Edge> TsvReader::ReadAll(const std::string& path) {
  TsvReader reader(path);
  std::vector<Edge> edges;
  Edge e;
  while (reader.Next(&e)) edges.push_back(e);
  return edges;
}

}  // namespace tg::format
