// degree_analysis: reads a generated graph (TSV, ADJ6 or CSR6) and prints
// its degree-distribution report — log-binned series, Zipf rank slope,
// oscillation score — the checks used throughout Section 7.2.
//
//   ./degree_analysis --in=/tmp/graph.w0.adj6 --format=adj6 --vertices=1048576
//   ./degree_analysis --in=/tmp/graph.w0.tsv --format=tsv --vertices=1048576

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/degree_dist.h"
#include "format/adj6.h"
#include "format/csr6_mapped.h"
#include "format/tsv.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  tg::FlagParser flags(argc, argv);
  if (flags.Has("help") || !flags.Has("in")) {
    std::printf(
        "usage: %s --in=FILE --format=tsv|adj6|csr6 --vertices=N\n"
        "Prints out-/in-degree distribution reports for the graph.\n",
        flags.program_name().c_str());
    return flags.Has("help") ? 0 : 1;
  }

  const std::string path = flags.GetString("in", "");
  const std::string format = flags.GetString("format", "adj6");
  const auto num_vertices =
      static_cast<std::uint64_t>(flags.GetInt("vertices", 1 << 20));

  std::vector<std::uint32_t> out_degrees(num_vertices, 0);
  std::vector<std::uint32_t> in_degrees(num_vertices, 0);
  std::uint64_t num_edges = 0;

  auto add_edge = [&](tg::VertexId u, tg::VertexId v) {
    if (u < num_vertices) ++out_degrees[u];
    if (v < num_vertices) ++in_degrees[v];
    ++num_edges;
  };

  if (format == "tsv") {
    tg::format::TsvReader reader(path);
    tg::Edge e;
    while (reader.Next(&e)) add_edge(e.src, e.dst);
    if (!reader.status().ok()) {
      std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
      return 1;
    }
  } else if (format == "adj6") {
    tg::Status status = tg::format::Adj6Reader::ForEach(
        path, [&](tg::VertexId u, const std::vector<tg::VertexId>& adj) {
          for (tg::VertexId v : adj) add_edge(u, v);
        });
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  } else if (format == "csr6") {
    tg::format::Csr6MappedReader reader(path);
    if (!reader.status().ok()) {
      std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
      return 1;
    }
    for (tg::VertexId u = reader.lo(); u < reader.hi(); ++u) {
      for (tg::VertexId v : reader.Neighbors(u)) add_edge(u, v);
    }
  } else {
    std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
    return 1;
  }

  auto report = [](const char* name,
                   const tg::analysis::DegreeHistogram& hist) {
    std::printf("\n== %s degree distribution ==\n", name);
    std::printf("vertices with degree > 0: %llu, edges: %llu, max: %llu\n",
                static_cast<unsigned long long>(hist.NumVertices()),
                static_cast<unsigned long long>(hist.NumEdges()),
                static_cast<unsigned long long>(hist.MaxDegree()));
    std::printf("Zipf rank slope: %.3f  log-log slope: %.3f  oscillation: %.3f\n",
                hist.ZipfRankSlope(), hist.LogLogSlope(),
                hist.OscillationScore());
    std::printf("log-binned series (degree\\tvertices):\n%s",
                hist.ToSeriesString(5.0).c_str());
  };

  std::printf("read %llu edges from %s\n",
              static_cast<unsigned long long>(num_edges), path.c_str());
  report("out", tg::analysis::DegreeHistogram::FromDegrees(out_degrees));
  report("in", tg::analysis::DegreeHistogram::FromDegrees(in_degrees));
  return 0;
}
