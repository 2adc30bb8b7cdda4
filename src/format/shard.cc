#include "format/shard.h"

#include "format/adj6.h"
#include "format/csr6.h"
#include "format/tsv.h"

namespace tg::format {

std::string ShardPath(const std::string& prefix, int worker,
                      const std::string& format) {
  return prefix + ".w" + std::to_string(worker) + "." + format;
}

std::unique_ptr<core::ScopeSink> MakeShardWriter(
    const std::string& format, const std::string& path, VertexId lo,
    VertexId hi, bool transposed, storage::IoMode mode,
    const core::ResumeFrom* resume) {
  if (format == "tsv") {
    return resume != nullptr
               ? std::make_unique<TsvWriter>(path, transposed, *resume, mode)
               : std::make_unique<TsvWriter>(path, transposed, mode);
  }
  if (format == "adj6") {
    return resume != nullptr
               ? std::make_unique<Adj6Writer>(path, *resume, mode)
               : std::make_unique<Adj6Writer>(path, mode);
  }
  if (format == "csr6") {
    return resume != nullptr
               ? std::make_unique<Csr6Writer>(path, lo, hi, *resume, mode)
               : std::make_unique<Csr6Writer>(path, lo, hi, mode);
  }
  return nullptr;
}

}  // namespace tg::format
