#ifndef TRILLIONG_FORMAT_CONVERT_H_
#define TRILLIONG_FORMAT_CONVERT_H_

#include <string>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace tg::format {

/// Offline conversions between the three supported graph formats
/// (Section 5). Generators already write any format directly; these cover
/// the downstream-tooling cases (a TSV from elsewhere, shard merging).

/// TSV -> ADJ6: groups edges by source via external sort (bounded memory),
/// so arbitrarily large inputs convert on one machine.
struct ConvertOptions {
  std::string temp_dir = ".";
  std::size_t sort_buffer_items = 1 << 20;
};
Status TsvToAdj6(const std::string& tsv_path, const std::string& adj6_path,
                 const ConvertOptions& options = {});

/// ADJ6 -> TSV: streaming, constant memory.
Status Adj6ToTsv(const std::string& adj6_path, const std::string& tsv_path);

/// Merges per-worker CSR6 shards (which tile [0, |V|)) into one whole-graph
/// CSR6 file, streaming shard by shard.
Status MergeCsr6Shards(const std::vector<std::string>& shard_paths,
                       const std::string& out_path);

/// ADJ6 -> CSR6 (whole file): records may arrive in any order; sorted and
/// assembled in memory. A vertex or neighbor id >= num_vertices is
/// InvalidArgument.
Status Adj6ToCsr6(const std::string& adj6_path, const std::string& csr6_path,
                  VertexId num_vertices);

}  // namespace tg::format

#endif  // TRILLIONG_FORMAT_CONVERT_H_
