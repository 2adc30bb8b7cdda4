#include "format/csr6_mapped.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>

#include "format/csr6.h"

namespace tg::format {

namespace {
constexpr std::uint64_t kFixedHeaderBytes = 8 * 5;  // magic..num_edges
}

std::uint64_t Csr6MappedReader::FromLittleEndian64(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    return __builtin_bswap64(v);
  }
}

std::uint64_t Csr6MappedReader::FromLittleEndian48(std::uint64_t v) {
  // The 6 payload bytes were memcpy'd into the low object bytes with the
  // rest zeroed, so the 64-bit swap is also the 48-bit one.
  return FromLittleEndian64(v);
}

Csr6MappedReader::Csr6MappedReader(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    status_ = Status::IoError("cannot open for read: " + path);
    return;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    status_ = Status::IoError("cannot stat: " + path);
    ::close(fd);
    return;
  }
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < kFixedHeaderBytes) {
    status_ = Status::Corruption("CSR6 file shorter than its header: " + path);
    ::close(fd);
    return;
  }
  map_bytes_ = static_cast<std::size_t>(file_bytes);
  map_ = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    map_bytes_ = 0;
    status_ = Status::IoError("cannot mmap: " + path);
    return;
  }

  const unsigned char* base = static_cast<const unsigned char*>(map_);
  if (std::memcmp(base, Csr6Writer::kMagic, 8) != 0) {
    status_ = Status::Corruption("bad CSR6 magic: " + path);
    return;
  }
  const std::uint64_t version = LoadU64(base + 8);
  if (version != Csr6Writer::kVersion) {
    status_ = Status::Corruption("unsupported CSR6 version: " + path);
    return;
  }
  lo_ = LoadU64(base + 16);
  hi_ = LoadU64(base + 24);
  num_edges_ = LoadU64(base + 32);
  if (hi_ < lo_) {
    status_ = Status::Corruption("CSR6 vertex range inverted: " + path);
    return;
  }
  // Bound both counts by the file before multiplying: a header claiming
  // ~2^61 vertices must not wrap the size equation and pass it.
  const std::uint64_t body_bytes = file_bytes - kFixedHeaderBytes;
  if (hi_ - lo_ >= body_bytes / 8 || num_edges_ > body_bytes / 6 ||
      (hi_ - lo_ + 1) * 8 + 6 * num_edges_ != body_bytes) {
    status_ = Status::Corruption("CSR6 file size mismatch: " + path);
    return;
  }
  offsets_ = base + kFixedHeaderBytes;
  neighbors_ = offsets_ + (hi_ - lo_ + 1) * 8;
  if (EdgeOffset(hi_) != num_edges_) {
    status_ = Status::Corruption("CSR6 offsets/edge-count mismatch: " + path);
    offsets_ = nullptr;
    neighbors_ = nullptr;
    return;
  }
  // The query loads walk the arrays front to back; tell the kernel.
  ::madvise(map_, map_bytes_, MADV_SEQUENTIAL);
}

Csr6MappedReader::~Csr6MappedReader() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

void Csr6MappedReader::CopyNeighbors(VertexId u, VertexId* out) const {
  const std::uint64_t begin = EdgeOffset(u);
  const std::uint64_t end = EdgeOffset(u + 1);
  const unsigned char* p = neighbors_ + 6 * begin;
  for (std::uint64_t i = begin; i < end; ++i, p += 6) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, 6);
    *out++ = FromLittleEndian48(v);
  }
}

void Csr6MappedReader::CopyAllNeighbors(VertexId* out) const {
  const unsigned char* p = neighbors_;
  for (std::uint64_t i = 0; i < num_edges_; ++i, p += 6) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, 6);
    out[i] = FromLittleEndian48(v);
  }
}

}  // namespace tg::format
