#include "format/tsv.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "format/resume_token.h"
#include "obs/metrics.h"
#include "storage/async_writer.h"

namespace tg::format {

namespace {

// "00".."99" packed back to back: one memcpy per two digits.
constexpr char kDigitPairs[] =
    "00010203040506070809"
    "10111213141516171819"
    "20212223242526272829"
    "30313233343536373839"
    "40414243444546474849"
    "50515253545556575859"
    "60616263646566676869"
    "70717273747576777879"
    "80818283848586878889"
    "90919293949596979899";

constexpr std::uint64_t kPow10[20] = {
    1ULL,
    10ULL,
    100ULL,
    1000ULL,
    10000ULL,
    100000ULL,
    1000000ULL,
    10000000ULL,
    100000000ULL,
    1000000000ULL,
    10000000000ULL,
    100000000000ULL,
    1000000000000ULL,
    10000000000000ULL,
    100000000000000ULL,
    1000000000000000ULL,
    10000000000000000ULL,
    100000000000000000ULL,
    1000000000000000000ULL,
    10000000000000000000ULL,
};

/// Branchless decimal width: log10 approximated from the bit width
/// ((bits * 1233) >> 12 ~ bits * log10(2)), corrected by one table compare.
/// `v | 1` folds the v == 0 case in — setting the low bit can never cross a
/// power of ten (they all end in 0, so v and v|1 share a decade).
inline int DigitCount(std::uint64_t v) {
  const std::uint64_t u = v | 1;
  const int approx = (std::bit_width(u) * 1233) >> 12;
  return approx + static_cast<int>(u >= kPow10[approx]);
}

/// Writes exactly eight digits of `v` (v < 1e8) at `buf`, zero-padded. The
/// four pair lookups hang off a shallow divide tree, so they retire mostly
/// in parallel instead of serializing like a digit-at-a-time chain.
inline void Format8(std::uint32_t v, char* buf) {
  const std::uint32_t hi = v / 10000;
  const std::uint32_t lo = v % 10000;
  std::memcpy(buf + 0, kDigitPairs + 2 * (hi / 100), 2);
  std::memcpy(buf + 2, kDigitPairs + 2 * (hi % 100), 2);
  std::memcpy(buf + 4, kDigitPairs + 2 * (lo / 100), 2);
  std::memcpy(buf + 6, kDigitPairs + 2 * (lo % 100), 2);
}

/// Fast unsigned decimal formatting into `buf`; returns length. Peels
/// zero-padded 8-digit chunks off the low end first — each chunk's divides
/// form an independent tree — leaving at most one short serial pair loop for
/// the head. A 15-digit vertex id costs one divide by 1e8 on the critical
/// path instead of seven chained divides by 100.
int FormatU64(std::uint64_t value, char* buf) {
  const int n = DigitCount(value);
  char* end = buf + n;
  while (value >= 100000000) {
    end -= 8;
    Format8(static_cast<std::uint32_t>(value % 100000000), end);
    value /= 100000000;
  }
  char* p = end;
  auto head = static_cast<std::uint32_t>(value);
  while (head >= 100) {
    const std::uint32_t rem = head % 100;
    head /= 100;
    p -= 2;
    std::memcpy(p, kDigitPairs + 2 * rem, 2);
  }
  if (head >= 10) {
    p -= 2;
    std::memcpy(p, kDigitPairs + 2 * head, 2);
  } else {
    *--p = static_cast<char>('0' + head);
  }
  return n;
}

}  // namespace

TsvWriter::TsvWriter(const std::string& path, bool transposed)
    : writer_(storage::MakeFileWriter()), transposed_(transposed) {
  writer_->Open(path);
}

TsvWriter::TsvWriter(const std::string& path, bool transposed,
                     const core::ResumeFrom& resume)
    : writer_(storage::MakeFileWriter()), transposed_(transposed) {
  std::uint64_t bytes = 0;
  if (!TokenField(resume.state, "bytes", &bytes)) {
    // Force the writer into a sticky error state (nothing is open).
    writer_->OpenForResume("", 0);
    return;
  }
  writer_->OpenForResume(path, bytes);
}

Status TsvWriter::CommitState(std::string* token) {
  Status s = writer_->FlushToOs();
  if (!s.ok()) return s;
  *token = "bytes=" + std::to_string(writer_->bytes_written());
  return s;
}

void TsvWriter::WriteEdge(VertexId src, VertexId dst) {
  // Format straight into the writer's staging buffer — one copy total. A
  // nullptr reservation is the sticky-error signal (dead disk: stop
  // formatting too).
  char* p = writer_->Reserve(kMaxLine);
  if (p == nullptr) return;
  char* q = p + FormatU64(src, p);
  *q++ = '\t';
  q += FormatU64(dst, q);
  *q++ = '\n';
  writer_->CommitReserved(kMaxLine, static_cast<std::size_t>(q - p));
}

void TsvWriter::ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) {
  if (n == 0 || !writer_->status().ok()) return;
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
        std::min(std::max(writer_->Room(), kMaxLine), (n - i) * kMaxLine);
    char* const p = writer_->Reserve(want);
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
    writer_->CommitReserved(want, static_cast<std::size_t>(q - p));
  }
}

void TsvWriter::Finish() {
  writer_->Close();
  obs::GetCounter("format.tsv.bytes_written")->Add(writer_->bytes_written());
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
