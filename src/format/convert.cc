#include "format/convert.h"

#include <algorithm>
#include <memory>
#include <map>
#include <vector>

#include "format/adj6.h"
#include "format/csr6.h"
#include "format/csr6_mapped.h"
#include "format/tsv.h"
#include "storage/external_sorter.h"

namespace tg::format {

Status TsvToAdj6(const std::string& tsv_path, const std::string& adj6_path,
                 const ConvertOptions& options) {
  TsvReader reader(tsv_path);
  if (!reader.status().ok()) return reader.status();

  storage::ExternalSorter<Edge> sorter(
      {options.temp_dir, options.sort_buffer_items, "tsv2adj6"});
  Edge e;
  while (reader.Next(&e)) sorter.Add(e);
  if (!reader.status().ok()) return reader.status();

  Adj6Writer writer(adj6_path);
  VertexId current = 0;
  bool has_current = false;
  std::vector<VertexId> adj;
  sorter.Merge(/*dedup=*/false, [&](const Edge& edge) {
    if (!has_current || edge.src != current) {
      if (has_current) writer.ConsumeScope(current, adj.data(), adj.size());
      current = edge.src;
      has_current = true;
      adj.clear();
    }
    adj.push_back(edge.dst);
  });
  if (has_current) writer.ConsumeScope(current, adj.data(), adj.size());
  writer.Finish();
  return writer.status();
}

Status Adj6ToTsv(const std::string& adj6_path, const std::string& tsv_path) {
  TsvWriter writer(tsv_path);
  Status status = Adj6Reader::ForEach(
      adj6_path, [&](VertexId u, const std::vector<VertexId>& adj) {
        writer.ConsumeScope(u, adj.data(), adj.size());
      });
  writer.Finish();
  if (!status.ok()) return status;
  return writer.status();
}

Status MergeCsr6Shards(const std::vector<std::string>& shard_paths,
                       const std::string& out_path) {
  // Open all shards, order by range, verify tiling.
  std::vector<std::unique_ptr<Csr6MappedReader>> shards;
  for (const std::string& path : shard_paths) {
    auto reader = std::make_unique<Csr6MappedReader>(path);
    if (!reader->status().ok()) return reader->status();
    shards.push_back(std::move(reader));
  }
  std::sort(shards.begin(), shards.end(), [](const auto& a, const auto& b) {
    return a->lo() < b->lo();
  });
  VertexId expected = 0;
  for (const auto& shard : shards) {
    if (shard->lo() != expected) {
      return Status::InvalidArgument("CSR6 shards do not tile the range");
    }
    expected = shard->hi();
  }

  Csr6Writer writer(out_path, 0, expected);
  std::vector<VertexId> nbrs;
  for (const auto& shard : shards) {
    for (VertexId u = shard->lo(); u < shard->hi(); ++u) {
      nbrs.resize(shard->Degree(u));
      if (!nbrs.empty()) {
        shard->CopyNeighbors(u, nbrs.data());
        writer.ConsumeScope(u, nbrs.data(), nbrs.size());
      }
    }
  }
  writer.Finish();
  return writer.status();
}

Status Adj6ToCsr6(const std::string& adj6_path, const std::string& csr6_path,
                  VertexId num_vertices) {
  std::map<VertexId, std::vector<VertexId>> records;
  Status status = Adj6Reader::ForEach(
      adj6_path, [&](VertexId u, const std::vector<VertexId>& adj) {
        auto& slot = records[u];
        slot.insert(slot.end(), adj.begin(), adj.end());
      });
  if (!status.ok()) return status;

  Csr6Writer writer(csr6_path, 0, num_vertices);
  for (const auto& [u, adj] : records) {
    if (u >= num_vertices) {
      return Status::InvalidArgument("vertex id beyond num_vertices");
    }
    writer.ConsumeScope(u, adj.data(), adj.size());
  }
  writer.Finish();
  return writer.status();
}

}  // namespace tg::format
