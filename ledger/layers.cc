// ledger/layers.cc — the compiled half of the layer ledger (ledger/LEDGER.md).
//
//   ledger_layers layers --workload NAME --scale N --workers N --format F
//       --report 0|1 --journal 0|1 --seed N --work DIR [--trace PATH]
//       Replays the workload's scope stream through the public call of each
//       layer, timing every call group from here (never from inside the
//       library), and prints one JSON object of per-layer figures.
//   ledger_layers client --port P --daemon_pid PID --seed N --requests N
//       [--healthz N] [--save PATH] [--trace PATH]
//       The serve_mix load: 2 closed-loop connections, each cycling one cold
//       request and three whole-graph cache replays, every payload checked.
//   ledger_layers digest FORMAT SCALE PARSE FILE...
//       Digest of gen_cli shards, optionally parsed record by record.
//
// Spans (name, start, end, parent) are kept in memory and written as Chrome
// trace events when the command ends.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/avs_generator.h"
#include "core/partitioner.h"
#include "core/prefix_tables.h"
#include "core/scheduler.h"
#include "core/scope_dedup.h"
#include "core/scope_size.h"
#include "core/trilliong.h"
#include "format/adj6.h"
#include "format/tsv.h"
#include "obs/metrics.h"
#include "rng/lane_rng.h"
#include "rng/random.h"
#include "serve/artifact_cache.h"
#include "serve/request.h"
#include "storage/async_writer.h"
#include "util/flags.h"
#include "util/memory_budget.h"

namespace {

using tg::VertexId;
using Clock = std::chrono::steady_clock;

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// In-memory span log, written once at exit as Chrome trace events.
class SpanLog {
 public:
  int Begin(const std::string& name, int parent = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, NowNs(), 0.0, parent, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id, std::uint64_t calls = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = NowNs();
    spans_[id].calls = calls;
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"calls\":%llu}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start / 1e3,
                    (s.end - s.start) / 1e3, i, s.parent,
                    static_cast<unsigned long long>(s.calls));
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
    std::uint64_t calls;
  };
  std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

/// Times `fn` `reps` times under one span each; returns the median seconds.
double TimeMedian(const std::string& name, int parent, int reps,
                  std::uint64_t calls, const std::function<void()>& fn) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    const int span = g_spans.Begin(name, parent);
    const double t0 = NowNs();
    fn();
    secs.push_back((NowNs() - t0) / 1e9);
    g_spans.End(span, calls);
  }
  return Median(secs);
}

/// The scopes a generation pass delivered, packed.
struct ScopeStream {
  std::vector<VertexId> u;
  std::vector<std::size_t> off{0};
  std::vector<VertexId> adj;
  std::size_t size() const { return u.size(); }
  std::size_t n(std::size_t i) const { return off[i + 1] - off[i]; }
  const VertexId* data(std::size_t i) const { return adj.data() + off[i]; }
};

class RecordingSink : public tg::core::ScopeSink {
 public:
  explicit RecordingSink(ScopeStream* out) : out_(out) {}
  void ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) override {
    out_->u.push_back(u);
    out_->adj.insert(out_->adj.end(), adj, adj + n);
    out_->off.push_back(out_->adj.size());
  }

 private:
  ScopeStream* out_;
};

/// What the hand replay captured per scope, so each layer can be re-run on
/// exactly the inputs the program gave it.
struct ScopeInputs {
  std::uint64_t seed;
  std::uint64_t degree;
  std::size_t draw_off;
  std::size_t draws;
  std::size_t block_off;
  std::size_t blocks;
  std::uint64_t scope_bytes;  ///< dedup.MemoryBytes() + degree * 8 at Reset
};

struct Out {
  Out() { s.precision(17); }
  std::ostringstream s;
  bool first = true;
  void Num(const std::string& key, double v) {
    s << (first ? "" : ",") << "\"" << key << "\":" << v;
    first = false;
  }
  void Str(const std::string& key, const std::string& v) {
    s << (first ? "" : ",") << "\"" << key << "\":\"" << v << "\"";
    first = false;
  }
};

/// The workload's configuration, as ledger/run.py passes it.
struct WorkloadConfig {
  std::string name;
  int scale;
  int workers;
  std::string format;
  bool report;   ///< obs atomics on (gen_cli --metrics_json, the daemon)
  bool journal;  ///< CommitState after every chunk (the daemon)
};

int RunLayers(const tg::FlagParser& flags) {
  const WorkloadConfig wl{flags.GetString("workload", ""),
                          static_cast<int>(flags.GetInt("scale", 22)),
                          static_cast<int>(flags.GetInt("workers", 1)),
                          flags.GetString("format", "adj6"),
                          flags.GetBool("report", false),
                          flags.GetBool("journal", false)};
  const std::string& workload = wl.name;
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::string work = flags.GetString("work", ".");
  const int reps = 3;

  tg::core::TrillionGConfig config;
  config.scale = wl.scale;
  config.edge_factor = 16;
  config.rng_seed = seed;
  config.num_workers = wl.workers;
  const tg::model::NoiseVector noise = tg::core::MakeRunNoise(config);
  const VertexId nv = config.NumVertices();
  const std::uint64_t num_edges = config.NumEdges();
  const tg::rng::Rng root(seed, /*stream=*/1);
  Out out;
  out.Str("workload", workload);
  const int root_span = g_spans.Begin("ledger.layers." + workload);

  // --- core: partition and prefix-table build (setup-time layers). ---
  std::vector<VertexId> plan;
  const double partition_s = TimeMedian(
      "core.PartitionByCdf", root_span, 21, 1,
      [&] { plan = tg::core::PartitionByCdf(noise, wl.workers); });
  out.Num("partition.ms", partition_s * 1e3);
  tg::core::AvsPrefixTables tables;
  const double build_s = TimeMedian("core.AvsPrefixTables::Build", root_span,
                                    5, 1, [&] { tables.Build(noise); });
  out.Num("prefix_tables.build_ms", build_s * 1e3);

  // --- the replayed slice: every k-th of 64 equal-mass bins, ~4M edges,
  // each taken from the middle of its stride so the sample is stratified
  // over the degree skew. ---
  const std::vector<VertexId> bins = tg::core::PartitionByCdf(noise, 64);
  const std::size_t stride = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(num_edges) / 4.0e6 + 0.5));
  std::vector<std::pair<VertexId, VertexId>> ranges;
  for (std::size_t b = stride / 2; b + 1 < bins.size(); b += stride) {
    ranges.push_back({bins[b], bins[b + 1]});
  }

  // --- core: the kernel, GenerateScope into a CountingSink, 1 thread. ---
  tg::MemoryBudget budget;
  tg::core::AvsRangeGenerator<double> generator(
      &noise, num_edges, config.determiner, &budget, false, &tables);
  ScopeStream reference;
  tg::core::AvsWorkerStats ref_stats;
  {
    tg::core::ScopeScratch<double> scratch;
    RecordingSink rec(&reference);
    for (const auto& [lo, hi] : ranges) {
      generator.GenerateRange(lo, hi, root, &scratch, &ref_stats, &rec);
    }
  }
  const double edges = static_cast<double>(reference.adj.size());
  const double scopes = static_cast<double>(reference.size());

  // --- hand replay of the kernel through rng / prefix tables / dedup,
  // bit-checked scope by scope against GenerateScope's adjacency. ---
  std::vector<ScopeInputs> inputs;
  std::vector<double> deviates;
  std::vector<VertexId> dests;
  std::vector<std::uint8_t> block_sizes;
  bool bitcheck_ok = true;
  std::size_t mismatched_scopes = 0;
  {
    const int span = g_spans.Begin("ledger.hand_replay_bitcheck", root_span);
    tg::core::ScopeDedup dedup;
    std::vector<VertexId> adj;
    double xs[64];
    std::size_t si = 0;
    for (const auto& [lo, hi] : ranges) {
      for (VertexId u = lo; u < hi; ++u) {
        ScopeInputs in{};
        in.seed = tg::rng::MixSeeds(root.StreamKey(), u + 1);
        tg::rng::LaneRng lane(in.seed);
        const tg::core::AvsPrefixTables::ScopeView view = tables.ViewFor(u);
        in.degree = tg::core::SampleScopeSize(num_edges, view.total, nv, &lane);
        if (in.degree == 0) continue;
        dedup.Reset(in.degree, nv);
        in.scope_bytes = dedup.MemoryBytes() + in.degree * sizeof(VertexId);
        in.draw_off = deviates.size();
        in.block_off = block_sizes.size();
        adj.clear();
        const std::uint64_t max_attempts = 100 * in.degree + 10000;
        std::uint64_t attempts = 0;
        while (adj.size() < in.degree && attempts < max_attempts) {
          std::uint64_t block = std::min<std::uint64_t>(
              {in.degree - adj.size(), 64, max_attempts - attempts});
          lane.FillUnit(xs, block);
          block_sizes.push_back(static_cast<std::uint8_t>(block));
          attempts += block;
          for (std::uint64_t i = 0; i < block; ++i) {
            deviates.push_back(xs[i]);
            const VertexId v = tables.Invert(view, xs[i]);
            dests.push_back(v);
            if (dedup.Insert(v)) adj.push_back(v);
          }
        }
        in.draws = deviates.size() - in.draw_off;
        in.blocks = block_sizes.size() - in.block_off;
        inputs.push_back(in);
        if (si >= reference.size() || reference.u[si] != u ||
            reference.n(si) != adj.size() ||
            !std::equal(adj.begin(), adj.end(), reference.data(si))) {
          bitcheck_ok = false;
          ++mismatched_scopes;
        }
        ++si;
      }
    }
    if (si != reference.size()) bitcheck_ok = false;
    g_spans.End(span, si);
  }
  const double draws = static_cast<double>(deviates.size());

  // The kernel and the layers it calls are timed round-robin, one pass of
  // each per round, so each layer's median and each round's attribution
  // ratio see the same outside load.
  tg::core::ScopeScratch<double> kscratch;
  auto kernel_pass = [&] {
    tg::core::CountingSink sink;
    tg::core::AvsWorkerStats stats;
    for (const auto& [lo, hi] : ranges) {
      for (VertexId u = lo; u < hi; ++u) {
        generator.GenerateScope(u, root, &kscratch, &stats, &sink);
      }
    }
  };

  // rng: LaneRng::FillUnit over the recorded block pattern. The two Next()
  // calls skip the scope-size Gaussian exactly as SampleScopeSize consumed
  // it (Box-Muller takes two deviates); the check below proves it.
  std::vector<double> redrawn(deviates.size());
  auto rng_pass = [&] {
    for (const ScopeInputs& in : inputs) {
      tg::rng::LaneRng lane(in.seed);
      lane.Next();
      lane.Next();
      double* dst = redrawn.data() + in.draw_off;
      for (std::size_t b = 0; b < in.blocks; ++b) {
        const std::size_t n = block_sizes[in.block_off + b];
        lane.FillUnit(dst, n);
        dst += n;
      }
    }
  };

  // prefix tables: ViewFor + Invert of every recorded deviate.
  std::vector<VertexId> inverted(dests.size());
  auto invert_pass = [&] {
    std::size_t si = 0;
    for (const ScopeInputs& in : inputs) {
      const tg::core::AvsPrefixTables::ScopeView view =
          tables.ViewFor(reference.u[si++]);
      for (std::size_t i = 0; i < in.draws; ++i) {
        inverted[in.draw_off + i] =
            tables.Invert(view, deviates[in.draw_off + i]);
      }
    }
  };

  // dedup: Reset + Insert per scope, split by degree class. The per-scope
  // clock reads are calibrated out.
  double clock_ns = 0.0;
  {
    std::vector<double> c;
    for (int i = 0; i < 1001; ++i) {
      const double a = NowNs();
      const double b = NowNs();
      c.push_back(b - a);
    }
    clock_ns = Median(c);
  }
  struct DedupTimes {
    double reset_ns = 0, small_ns = 0, large_ns = 0;
    double small_inserts = 0, large_inserts = 0, accepted = 0;
  };
  tg::core::ScopeDedup dedup;
  std::vector<VertexId> dedup_adj;
  auto dedup_pass = [&](DedupTimes* t) {
    std::size_t si = 0;
    for (const ScopeInputs& in : inputs) {
      const double t0 = NowNs();
      dedup.Reset(in.degree, nv);
      const double t1 = NowNs();
      dedup_adj.clear();
      for (std::size_t i = 0; i < in.draws; ++i) {
        const VertexId v = dests[in.draw_off + i];
        if (dedup.Insert(v)) dedup_adj.push_back(v);
      }
      const double t2 = NowNs();
      t->reset_ns += std::max(0.0, t1 - t0 - clock_ns);
      const double ins = std::max(0.0, t2 - t1 - clock_ns);
      if (in.degree <= 63) {
        t->small_ns += ins;
        t->small_inserts += static_cast<double>(in.draws);
      } else {
        t->large_ns += ins;
        t->large_inserts += static_cast<double>(in.draws);
      }
      t->accepted += static_cast<double>(dedup_adj.size());
      if (dedup_adj.size() != reference.n(si) ||
          !std::equal(dedup_adj.begin(), dedup_adj.end(),
                      reference.data(si))) {
        bitcheck_ok = false;
      }
      ++si;
    }
  };

  // mem budget: one scope's ScopedAllocation ctor + ResizeTo + dtor.
  auto budget_pass = [&](tg::MemoryBudget* b) {
    tg::MemoryBudget::TagStats* tag = b->Tag("core.scope_dedup");
    for (const ScopeInputs& in : inputs) {
      tg::ScopedAllocation scope_mem(b, in.scope_bytes, tag);
      scope_mem.ResizeTo(in.scope_bytes + sizeof(VertexId));
    }
  };
  tg::MemoryBudget budget_1t;

  const int kRounds = 5;
  std::vector<double> kernel_v, rng_v, invert_v, budget_v, attributed_v;
  std::vector<DedupTimes> dedup_v;
  for (int r = 0; r < kRounds; ++r) {
    kernel_v.push_back(TimeMedian("core.AvsRangeGenerator::GenerateScope",
                                  root_span, 1, reference.size(), kernel_pass));
    rng_v.push_back(TimeMedian("rng.LaneRng::FillUnit", root_span, 1,
                               deviates.size(), rng_pass));
    invert_v.push_back(TimeMedian("core.AvsPrefixTables::Invert", root_span, 1,
                                  deviates.size(), invert_pass));
    DedupTimes t;
    TimeMedian("core.ScopeDedup", root_span, 1, inputs.size(),
               [&] { dedup_pass(&t); });
    dedup_v.push_back(t);
    budget_v.push_back(TimeMedian("util.ScopedAllocation.1t", root_span, 1,
                                  inputs.size(),
                                  [&] { budget_pass(&budget_1t); }));
    attributed_v.push_back(
        ((rng_v.back() + invert_v.back() + budget_v.back()) * 1e9 +
         t.reset_ns + t.small_ns + t.large_ns) /
        (kernel_v.back() * 1e9));
  }
  if (std::memcmp(redrawn.data(), deviates.data(),
                  deviates.size() * sizeof(double)) != 0 ||
      inverted != dests) {
    bitcheck_ok = false;
  }
  auto dedup_median = [&](double DedupTimes::*field) {
    std::vector<double> v;
    for (const DedupTimes& t : dedup_v) v.push_back(t.*field);
    return Median(v);
  };
  const DedupTimes& d0 = dedup_v.front();
  out.Num("dedup.insert_ns_small",
          d0.small_inserts > 0
              ? dedup_median(&DedupTimes::small_ns) / d0.small_inserts
              : 0.0);
  out.Num("dedup.insert_ns_large",
          d0.large_inserts > 0
              ? dedup_median(&DedupTimes::large_ns) / d0.large_inserts
              : 0.0);
  out.Num("dedup.reset_ns_per_scope",
          dedup_median(&DedupTimes::reset_ns) / scopes);
  out.Num("dedup.new_per_insert", d0.accepted / draws);

  tg::MemoryBudget budget_2t;
  const double budget_2t_s = TimeMedian(
      "util.ScopedAllocation.2t", root_span, reps, 2 * inputs.size(), [&] {
        std::thread other([&] { budget_pass(&budget_2t); });
        budget_pass(&budget_2t);
        other.join();
      });
  out.Num("mem_budget.scope_ns_1t", Median(budget_v) * 1e9 / scopes);
  out.Num("mem_budget.scope_ns_2t", budget_2t_s * 1e9 / scopes);

  const double kernel_ns_edge = Median(kernel_v) * 1e9 / edges;
  out.Num("rng.fill_ns_per_draw", Median(rng_v) * 1e9 / draws);
  out.Num("prefix_tables.invert_ns", Median(invert_v) * 1e9 / draws);
  out.Num("kernel.ns_per_edge", kernel_ns_edge);
  out.Num("kernel.attributed_frac", Median(attributed_v));

  // --- chunk buffer and scheduler over 32 equal-edge chunks of the slice. --
  const int kChunks = 32;
  std::vector<std::size_t> chunk_lo;
  {
    std::size_t next = 0;
    for (int c = 0; c < kChunks; ++c) {
      const double target = edges * c / kChunks;
      while (next < reference.size() &&
             static_cast<double>(reference.off[next]) < target) {
        ++next;
      }
      chunk_lo.push_back(next);
    }
    chunk_lo.push_back(reference.size());
  }
  auto replay = [&](std::size_t lo, std::size_t hi, tg::core::ScopeSink* sink) {
    for (std::size_t i = lo; i < hi; ++i) {
      sink->ConsumeScope(reference.u[i], reference.data(i), reference.n(i));
    }
  };
  tg::core::ChunkBuffer chunk_buffer;
  const double chunkbuf_s = TimeMedian(
      "core.ChunkBuffer", root_span, reps, kChunks, [&] {
        tg::core::CountingSink sink;
        for (int c = 0; c < kChunks; ++c) {
          chunk_buffer.Clear();
          replay(chunk_lo[c], chunk_lo[c + 1], &chunk_buffer);
          chunk_buffer.FlushTo(&sink);
        }
      });
  out.Num("chunkbuf.ns_per_edge", chunkbuf_s * 1e9 / edges);

  // Two ranges of 16 chunks; a chunk's lo/hi index the recorded scopes, not
  // vertex ids, and the ChunkFn replays them.
  std::vector<std::vector<tg::core::Chunk>> queues(2);
  for (int c = 0; c < kChunks; ++c) {
    const int range = c < kChunks / 2 ? 0 : 1;
    queues[range].push_back(
        {range,
         static_cast<std::uint32_t>(queues[range].size()),
         static_cast<VertexId>(chunk_lo[c]),
         static_cast<VertexId>(chunk_lo[c + 1])});
  }
  const double sched_s = TimeMedian(
      "core.RunWorkStealing.2w", root_span, reps, kChunks, [&] {
        tg::core::CountingSink s0, s1;
        tg::core::RunWorkStealing(
            queues, {&s0, &s1}, [&](int) -> tg::core::ChunkFn {
              return [&](const tg::core::Chunk& c, tg::core::ChunkBuffer* b) {
                replay(c.lo, c.hi, b);
              };
            });
      });
  out.Num("sched.commit_us_per_chunk",
          (2.0 * sched_s - chunkbuf_s) * 1e6 / kChunks);

  // --- core::Generate into CountingSinks, 2 workers vs 1. ---
  auto generate_s = [&](int workers) {
    tg::core::TrillionGConfig c = config;
    c.num_workers = workers;
    return TimeMedian("core.Generate." + std::to_string(workers) + "w",
                      root_span, 1, 1, [&] {
                        tg::core::Generate(c, [](int, VertexId, VertexId) {
                          return std::make_unique<tg::core::CountingSink>();
                        });
                      });
  };
  const double gen1 = generate_s(1);
  const double gen2 = generate_s(2);
  out.Num("sched.speedup_2w", gen1 / gen2);

  // --- format: ADJ6 and TSV encode of the slice into a file. ---
  double adj6_bytes = 0, tsv_bytes = 0;
  const std::string adj6_path = work + "/replay.adj6";
  const std::string tsv_path = work + "/replay.tsv";
  bool io_ok = true;
  const double adj6_s = TimeMedian(
      "format.Adj6Writer::ConsumeScope", root_span, reps, reference.size(),
      [&] {
        tg::format::Adj6Writer w(adj6_path);
        replay(0, reference.size(), &w);
        w.Finish();
        io_ok = io_ok && w.status().ok();
        adj6_bytes = static_cast<double>(w.bytes_written());
      });
  const double tsv_s = TimeMedian(
      "format.TsvWriter::ConsumeScope", root_span, reps, reference.size(),
      [&] {
        tg::format::TsvWriter w(tsv_path);
        replay(0, reference.size(), &w);
        w.Finish();
        io_ok = io_ok && w.status().ok();
        tsv_bytes = static_cast<double>(w.bytes_written());
      });
  std::remove(adj6_path.c_str());
  std::remove(tsv_path.c_str());
  out.Num("format.adj6.ns_per_edge", adj6_s * 1e9 / edges);
  out.Num("format.tsv.ns_per_edge", tsv_s * 1e9 / edges);
  out.Num("format.tsv.bytes_per_edge", tsv_bytes / edges);

  // --- storage: 1 MiB Appends + Close, per transport, producer side. ---
  const int kMiB = 64;
  const std::string block(1 << 20, 'x');
  auto storage_s = [&](tg::storage::IoMode mode, const std::string& name) {
    tg::storage::IoConfig io;
    io.mode = mode;
    const std::string path = work + "/replay.raw";
    const double s = TimeMedian(name, root_span, reps, kMiB, [&] {
      std::unique_ptr<tg::storage::FileWriterBase> w =
          tg::storage::MakeFileWriter(1 << 20, io);
      io_ok = io_ok && w->Open(path).ok();
      for (int i = 0; i < kMiB; ++i) w->Append(block.data(), block.size());
      io_ok = io_ok && w->Close().ok();
    });
    std::remove(path.c_str());
    return s;
  };
  const double sync_s = storage_s(tg::storage::IoMode::kSync,
                                  "storage.FileWriter.sync");
  const double async_s = storage_s(tg::storage::IoMode::kAsync,
                                   "storage.FileWriter.async");
  out.Num("storage.sync.ns_per_mib", sync_s * 1e9 / kMiB);
  out.Num("storage.async.ns_per_mib", async_s * 1e9 / kMiB);

  // --- journal: Adj6Writer::CommitState after each chunk of scopes. ---
  std::vector<double> commit_us;
  {
    const int span = g_spans.Begin("format.Adj6Writer::CommitState", root_span);
    tg::format::Adj6Writer w(adj6_path);
    std::string token;
    for (int c = 0; c < kChunks; ++c) {
      replay(chunk_lo[c], chunk_lo[c + 1], &w);
      const double t0 = NowNs();
      io_ok = io_ok && w.CommitState(&token).ok();
      commit_us.push_back((NowNs() - t0) / 1e3);
    }
    w.Finish();
    g_spans.End(span, kChunks);
    std::remove(adj6_path.c_str());
  }
  out.Num("journal.commit_state_us", Median(commit_us));

  // --- obs: Counter::Add and Histogram::Observe from 2 threads. ---
  const int kOps = 4000000;
  tg::obs::Counter* counter = tg::obs::GetCounter("ledger.replay_counter");
  tg::obs::Histogram* hist = tg::obs::GetHistogram("ledger.replay_histogram");
  auto two_threads = [](const std::function<void()>& body) {
    std::thread other(body);
    body();
    other.join();
  };
  const double counter_s = TimeMedian(
      "obs.Counter::Add.2t", root_span, reps, 2ULL * kOps, [&] {
        two_threads([&] {
          for (int i = 0; i < kOps; ++i) counter->Add(1);
        });
      });
  const double hist_s = TimeMedian(
      "obs.Histogram::Observe.2t", root_span, reps, 2ULL * kOps, [&] {
        two_threads([&] {
          for (int i = 0; i < kOps; ++i) {
            hist->Observe(static_cast<std::uint64_t>(i & 1023));
          }
        });
      });
  out.Num("obs.counter_add_ns_2t", counter_s * 1e9 / kOps);
  out.Num("obs.histogram_observe_ns_2t", hist_s * 1e9 / kOps);

  // --- serve: request parse + validation, whole-graph cache hit. ---
  const tg::serve::RequestLimits limits;
  const std::string body =
      "{\"tenant\":\"c0\",\"scale\":16,\"edge_factor\":16,\"workers\":2,"
      "\"format\":\"adj6\",\"seed\":" + std::to_string(seed) + "}";
  tg::serve::GenRequest request;
  const int kParses = 20000;
  const double parse_s = TimeMedian(
      "serve.ParseGenRequest", root_span, reps, kParses, [&] {
        for (int i = 0; i < kParses; ++i) {
          if (!tg::serve::ParseGenRequest(body, limits, &request).ok()) {
            io_ok = false;
          }
        }
      });
  out.Num("serve.parse_us", parse_s * 1e6 / kParses);
  tg::serve::ArtifactCache::Options cache_options;
  cache_options.graph_cache_bytes = 256ULL << 20;
  tg::serve::ArtifactCache cache(cache_options);
  std::vector<std::uint64_t> fingerprints;
  for (int k = 0; k < 8; ++k) {
    request.rng_seed = seed + static_cast<std::uint64_t>(k);
    fingerprints.push_back(tg::serve::Fingerprint(request));
    cache.InsertGraph(fingerprints.back(), std::string(4096, 'x'));
  }
  const int kLookups = 200000;
  const double lookup_s = TimeMedian(
      "serve.ArtifactCache::LookupGraph", root_span, reps, kLookups, [&] {
        for (int i = 0; i < kLookups; ++i) {
          if (cache.LookupGraph(fingerprints[i & 7]) == nullptr) io_ok = false;
        }
      });
  out.Num("serve.cache_lookup_us", lookup_s * 1e6 / kLookups);

  // --- reconciliation inputs: the layers' sum per edge on this workload.
  const double bytes_per_edge =
      (wl.format == "tsv" ? tsv_bytes : adj6_bytes) / edges;
  const double format_ns = (wl.format == "tsv" ? tsv_s : adj6_s) * 1e9 / edges;
  const double chunks_total = 16.0 * wl.workers;
  double layer_sum = kernel_ns_edge + chunkbuf_s * 1e9 / edges + format_ns +
                     async_s * 1e9 / kMiB * bytes_per_edge / (1 << 20) +
                     (2.0 * sched_s - chunkbuf_s) * 1e9 / kChunks *
                         chunks_total / static_cast<double>(num_edges);
  if (wl.report) {
    layer_sum += (counter_s + hist_s) * 1e9 / kOps * scopes / edges;
  }
  if (wl.journal) {
    layer_sum += Median(commit_us) * 1e3 * chunks_total /
                 static_cast<double>(num_edges);
  }
  out.Num("layer_sum_ns_per_edge", layer_sum);
  out.Num("replay_edges", edges);
  out.Num("replay_scopes", scopes);
  out.Num("mismatched_scopes", static_cast<double>(mismatched_scopes));
  out.Num("bitcheck_ok", bitcheck_ok ? 1 : 0);
  out.Num("io_ok", io_ok ? 1 : 0);
  out.Num("simd_lanes",
          tg::rng::LaneRng::SimdActive() ? tg::rng::LaneRng::kLanes : 1);
  g_spans.End(root_span, 1);

  const std::string trace = flags.GetString("trace", "");
  if (!trace.empty() && !g_spans.Write(trace)) {
    std::fprintf(stderr, "cannot write %s\n", trace.c_str());
    return 1;
  }
  std::printf("{%s}\n", out.s.str().c_str());
  return bitcheck_ok && io_ok ? 0 : 3;
}

// ---------------------------------------------------------------------------
// serve_mix load client: a minimal blocking HTTP/1.1 client of its own, so
// the load side shares no code with the daemon it measures.

struct Response {
  int status = -1;
  std::map<std::string, std::string> headers;
  std::string body;
  bool truncated = false;
};

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one request with Connection: close and reads the whole response,
/// de-chunking the body.
Response Exchange(int port, const std::string& request) {
  Response r;
  const int fd = ConnectLoopback(port);
  if (fd < 0) return r;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return r;
    }
    sent += static_cast<std::size_t>(n);
  }
  // Sized from the previous response on this thread, so a payload is
  // received without regrowth copies competing with the daemon for memory
  // bandwidth.
  thread_local std::size_t size_hint = 1 << 20;
  std::string raw;
  raw.reserve(size_hint + (64 << 10));
  r.body.reserve(size_hint);
  std::size_t header_end = std::string::npos;
  bool chunked = false;
  std::size_t content_length = std::string::npos;
  std::size_t cursor = 0;  // next unparsed byte of a chunked body
  bool complete = false;
  std::vector<char> buf(1 << 18);
  while (!complete) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n <= 0) break;
    raw.append(buf.data(), static_cast<std::size_t>(n));
    if (header_end == std::string::npos) {
      header_end = raw.find("\r\n\r\n");
      if (header_end == std::string::npos) continue;
      std::istringstream head(raw.substr(0, header_end));
      std::string line;
      std::getline(head, line);
      if (line.size() > 12) r.status = std::atoi(line.c_str() + 9);
      while (std::getline(head, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        std::string key = line.substr(0, colon);
        std::transform(key.begin(), key.end(), key.begin(), ::tolower);
        std::string value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(' '));
        r.headers[key] = value;
      }
      chunked = r.headers["transfer-encoding"] == "chunked";
      if (r.headers.count("content-length") != 0) {
        content_length = std::stoull(r.headers["content-length"]);
      }
      cursor = header_end + 4;
    }
    if (chunked) {
      while (true) {
        const std::size_t eol = raw.find("\r\n", cursor);
        if (eol == std::string::npos) break;
        const std::size_t size =
            std::strtoull(raw.c_str() + cursor, nullptr, 16);
        if (raw.size() < eol + 2 + size + 2) break;
        if (size == 0) {
          complete = true;
          break;
        }
        r.body.append(raw, eol + 2, size);
        cursor = eol + 2 + size + 2;
      }
    } else if (content_length != std::string::npos &&
               raw.size() >= header_end + 4 + content_length) {
      r.body = raw.substr(header_end + 4, content_length);
      complete = true;
    }
  }
  ::close(fd);
  if (!complete && !chunked && content_length == std::string::npos &&
      header_end != std::string::npos) {
    r.body = raw.substr(header_end + 4);  // read-to-close body
    complete = true;
  }
  r.truncated = !complete;
  size_hint = std::max(size_hint, raw.size());
  return r;
}

/// Parses a payload of concatenated ADJ6 shards. Returns false on any
/// structural error; otherwise *edges holds the total degree.
bool ParseAdj6(std::string_view p, int scale, int max_shards,
               std::uint64_t* edges) {
  auto read48 = [&](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 5; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(p[at + i]);
    }
    return v;
  };
  const std::uint64_t nv = std::uint64_t{1} << scale;
  std::uint64_t total = 0;
  std::uint64_t prev = 0;
  int shard_breaks = 0;
  bool first = true;
  std::size_t at = 0;
  while (at < p.size()) {
    if (p.size() - at < 12) return false;
    const std::uint64_t u = read48(at);
    const std::uint64_t deg = read48(at + 6);
    at += 12;
    if (u >= nv || deg == 0 || deg > nv || (p.size() - at) / 6 < deg) {
      return false;
    }
    if (!first && u <= prev && ++shard_breaks >= max_shards) return false;
    for (std::uint64_t i = 0; i < deg; ++i) {
      if (read48(at + 6 * i) >= nv) return false;
    }
    at += 6 * deg;
    total += deg;
    prev = u;
    first = false;
  }
  *edges = total;
  return true;
}

std::uint64_t ProcCpuTicks(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  std::uint64_t utime = 0, stime = 0;
  for (int i = 3; fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  return utime + stime;
}

struct Sample {
  bool cold;
  double ms;
  bool ok;
  std::uint64_t edges;
  std::string why;
};

int RunClient(const tg::FlagParser& flags) {
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const int daemon_pid = static_cast<int>(flags.GetInt("daemon_pid", 0));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const int scale = static_cast<int>(flags.GetInt("scale", 16));
  const int workers = 2;
  const int conns = 2;
  const int requests = static_cast<int>(flags.GetInt("requests", 64));
  const int healthz = static_cast<int>(flags.GetInt("healthz", 0));
  const std::string save = flags.GetString("save", "");
  const int cycles = std::max(1, requests / (4 * conns));
  const std::uint64_t nominal_edges = std::uint64_t{16} << scale;

  auto request_for = [&](int conn, std::uint64_t s) {
    const std::string body =
        "{\"tenant\":\"c" + std::to_string(conn) + "\",\"scale\":" +
        std::to_string(scale) + ",\"edge_factor\":16,\"workers\":" +
        std::to_string(workers) + ",\"format\":\"adj6\",\"seed\":" +
        std::to_string(s) + "}";
    return "POST /generate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           "Content-Type: application/json\r\nConnection: close\r\n"
           "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  };
  auto seed_for = [&](int conn, int cycle) {
    return tg::rng::MixSeeds(seed, static_cast<std::uint64_t>(conn) * 1000003 +
                                       static_cast<std::uint64_t>(cycle)) >>
           24;
  };

  // net: GET /healthz round trips over loopback.
  std::vector<double> rtt_us;
  for (int i = 0; i < healthz; ++i) {
    const double t0 = NowNs();
    const Response r = Exchange(
        port, "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n"
              "Connection: close\r\n\r\n");
    if (r.status == 200) rtt_us.push_back((NowNs() - t0) / 1e3);
  }

  // One untimed warm-up request with a seed outside the timed sequence.
  const Response warm = Exchange(port, request_for(0, seed_for(conns, 0)));
  const bool warm_ok = warm.status == 200 && !warm.truncated;

  std::vector<std::vector<Sample>> samples(conns);
  std::atomic<std::uint64_t> live_edges{0};
  const std::uint64_t cpu0 = daemon_pid > 0 ? ProcCpuTicks(daemon_pid) : 0;
  const double t_start = NowNs();
  const int window_span = g_spans.Begin("serve_mix.window");
  auto connection = [&](int c) {
    struct Cold {
      std::string payload;
      std::uint64_t edges;
    };
    std::map<std::uint64_t, Cold> recent;  // the last three cold payloads
    std::vector<std::uint64_t> order;
    for (int k = 0; k < cycles; ++k) {
      const std::uint64_t s = seed_for(c, k);
      const int span = g_spans.Begin("request.cold.c" + std::to_string(c),
                                     window_span);
      const double t0 = NowNs();
      Response r = Exchange(port, request_for(c, s));
      const double ms = (NowNs() - t0) / 1e6;
      g_spans.End(span, 1);
      Sample cold{true, ms, false, 0, ""};
      if (r.status != 200) {
        cold.why = "status " + std::to_string(r.status);
      } else if (r.truncated) {
        cold.why = "truncated stream";
      } else if (r.headers["x-tg-cache"] != "miss") {
        cold.why = "cold request served from cache";
      } else if (!ParseAdj6(r.body, scale, workers, &cold.edges)) {
        cold.why = "payload is not well-formed ADJ6";
      } else if (cold.edges < nominal_edges * 95 / 100 ||
                 cold.edges > nominal_edges * 105 / 100) {
        // The exact count is only known offline (checked once per run by
        // run.py); this bound catches lost or duplicated records.
        cold.why = "edge count " + std::to_string(cold.edges) +
                   " outside 5% of " + std::to_string(nominal_edges);
      } else {
        cold.ok = true;
      }
      if (c == 0 && k == 0 && !save.empty()) {
        std::ofstream(save, std::ios::binary) << r.body;
      }
      samples[c].push_back(cold);
      if (cold.ok) {
        live_edges += cold.edges;
        recent[s] = {std::move(r.body), cold.edges};
        order.push_back(s);
        if (order.size() > 3) {
          recent.erase(order.front());
          order.erase(order.begin());
        }
      }
      for (int j = 0; j < 3; ++j) {
        Sample cached{false, 0.0, false, 0, ""};
        if (order.empty()) {
          cached.why = "no cold payload to replay";
          samples[c].push_back(cached);
          continue;
        }
        const std::uint64_t rs = order[order.size() - 1 - (j % order.size())];
        const int cspan = g_spans.Begin(
            "request.cached.c" + std::to_string(c), window_span);
        const double c0 = NowNs();
        Response h = Exchange(port, request_for(c, rs));
        cached.ms = (NowNs() - c0) / 1e6;
        g_spans.End(cspan, 1);
        if (h.status != 200) {
          cached.why = "status " + std::to_string(h.status);
        } else if (h.truncated) {
          cached.why = "truncated stream";
        } else if (h.headers["x-tg-cache"] != "hit") {
          cached.why = "replay missed the whole-graph cache";
        } else if (h.body != recent[rs].payload) {
          cached.why = "replay differs from its cold payload";
        } else {
          cached.ok = true;
          cached.edges = recent[rs].edges;
          live_edges += cached.edges;
        }
        samples[c].push_back(cached);
      }
    }
  };
  // Throughput and daemon CPU per edge are also taken per 2-second interval
  // of the window; their medians shrug off a burst of outside load.
  std::atomic<bool> done{false};
  std::vector<double> interval_rate, interval_cpu_ns;
  std::thread sampler([&] {
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    double t_prev = t_start;
    std::uint64_t e_prev = 0, cpu_prev = cpu0;
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const double now = NowNs();
      if (now - t_prev < 2e9) continue;
      const std::uint64_t e = live_edges.load();
      const std::uint64_t cpu = daemon_pid > 0 ? ProcCpuTicks(daemon_pid) : 0;
      if (e > e_prev) {
        interval_rate.push_back(static_cast<double>(e - e_prev) /
                                ((now - t_prev) / 1e9));
        interval_cpu_ns.push_back(static_cast<double>(cpu - cpu_prev) / tick *
                                  1e9 / static_cast<double>(e - e_prev));
      }
      t_prev = now;
      e_prev = e;
      cpu_prev = cpu;
    }
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(connection, c);
  for (std::thread& t : threads) t.join();
  const double wall_s = (NowNs() - t_start) / 1e9;
  const std::uint64_t cpu1 = daemon_pid > 0 ? ProcCpuTicks(daemon_pid) : 0;
  done = true;
  sampler.join();
  if (interval_rate.empty() && wall_s > 0 && live_edges.load() > 0) {
    // A window shorter than one interval: its whole-window means.
    const double e = static_cast<double>(live_edges.load());
    interval_rate.push_back(e / wall_s);
    interval_cpu_ns.push_back(static_cast<double>(cpu1 - cpu0) /
                              static_cast<double>(::sysconf(_SC_CLK_TCK)) *
                              1e9 / e);
  }
  g_spans.End(window_span, static_cast<std::uint64_t>(cycles) * 4 * conns);

  std::vector<double> cold_ms, cached_ms;
  std::uint64_t delivered = 0, generated = 0;
  int attempted = 0, failed = 0;
  std::string first_failure;
  for (const auto& conn_samples : samples) {
    for (const Sample& s : conn_samples) {
      ++attempted;
      if (!s.ok) {
        ++failed;
        if (first_failure.empty()) first_failure = s.why;
        continue;
      }
      delivered += s.edges;
      if (s.cold) {
        generated += s.edges;
        cold_ms.push_back(s.ms);
      } else {
        cached_ms.push_back(s.ms);
      }
    }
  }
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  Out out;
  out.Num("attempted", attempted);
  out.Num("failed", failed);
  out.Num("warmup_ok", warm_ok ? 1 : 0);
  out.Num("wall_s", wall_s);
  out.Num("daemon_cpu_s", static_cast<double>(cpu1 - cpu0) / tick);
  out.Num("edges_delivered", static_cast<double>(delivered));
  out.Num("edges_generated", static_cast<double>(generated));
  out.Num("intervals", static_cast<double>(interval_rate.size()));
  out.Num("interval_edges_per_s_p50", Median(interval_rate));
  out.Num("interval_cpu_ns_per_edge_p50", Median(interval_cpu_ns));
  out.Num("cold_n", static_cast<double>(cold_ms.size()));
  out.Num("cached_n", static_cast<double>(cached_ms.size()));
  out.Num("cold_p50_ms", Median(cold_ms));
  out.Num("cached_p50_ms", Median(cached_ms));
  out.Num("cached_p90_ms", Quantile(cached_ms, 0.9));
  out.Num("healthz_rtt_us", Median(rtt_us));
  out.Num("saved_seed", static_cast<double>(seed_for(0, 0)));
  out.Str("first_failure", first_failure);
  const std::string trace = flags.GetString("trace", "");
  if (!trace.empty()) g_spans.Write(trace);
  std::printf("{%s}\n", out.s.str().c_str());
  return 0;
}

/// Four independent rotate-multiply lanes over 8-byte words, finished with
/// SplitMix64's mixer: a byte-identity digest fast enough to run on every
/// trial's shards (not a defence against deliberate collisions, which no
/// output here needs).
class Digest {
 public:
  void Update(std::string_view p) {
    const char* d = p.data();
    std::size_t n = p.size();
    std::uint64_t w[4];
    for (; n >= 32; d += 32, n -= 32) {
      std::memcpy(w, d, 32);
      for (int i = 0; i < 4; ++i) {
        h_[i] = Rotl(h_[i] ^ w[i], 31) * 0x9e3779b97f4a7c15ULL;
      }
    }
    for (; n > 0; ++d, --n) {
      h_[0] = Rotl(h_[0] ^ static_cast<unsigned char>(*d), 31) *
              0x9e3779b97f4a7c15ULL;
    }
    h_[1] = tg::rng::internal::Mix64(h_[1] ^ p.size());
  }
  std::string Hex() const {
    std::uint64_t v = 0;
    for (std::uint64_t h : h_) v = tg::rng::internal::Mix64(v ^ h);
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  }
  std::uint64_t h_[4] = {1, 2, 3, 4};
};

/// A read-only mapping of a whole file.
class MappedFile {
 public:
  explicit MappedFile(const char* path) {
    const int fd = ::open(path, O_RDONLY);
    if (fd < 0) return;
    struct stat st {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      size_ = static_cast<std::size_t>(st.st_size);
      void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE | MAP_POPULATE,
                       fd, 0);
      data_ = m == MAP_FAILED ? nullptr : static_cast<const char*>(m);
    }
    ok_ = data_ != nullptr || (st.st_size == 0 && size_ == 0);
    ::close(fd);
  }
  ~MappedFile() {
    if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  bool ok() const { return ok_; }
  std::string_view view() const { return {data_ == nullptr ? "" : data_, size_}; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool ok_ = false;
};

/// Newlines in `p`, eight bytes at a time: a byte of w ^ 0x0a.. is zero
/// exactly where w holds '\n', and the mask below marks exactly those bytes.
std::uint64_t CountNewlines(std::string_view p) {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  std::uint64_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= p.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p.data() + i, 8);
    const std::uint64_t x = w ^ 0x0a0a0a0a0a0a0a0aULL;
    const std::uint64_t marks = ~(((x & kLow7) + kLow7) | x | kLow7) >> 7;
    count += (marks * 0x0101010101010101ULL) >> 56;
  }
  for (; i < p.size(); ++i) count += p[i] == '\n';
  return count;
}

/// Every TSV line is "<id>\t<id>\n" with ids below 2^scale.
bool ParseTsv(std::string_view p, int scale, std::uint64_t* edges) {
  const std::uint64_t nv = std::uint64_t{1} << scale;
  std::uint64_t field = 0, lines = 0;
  int column = 0;
  bool digits = false;
  for (const char ch : p) {
    if (ch >= '0' && ch <= '9') {
      field = field * 10 + static_cast<std::uint64_t>(ch - '0');
      digits = true;
      if (field >= nv) return false;
    } else if ((ch == '\t' && column == 0) || (ch == '\n' && column == 1)) {
      if (!digits) return false;
      column = ch == '\t' ? 1 : 0;
      lines += ch == '\n';
      field = 0;
      digits = false;
    } else {
      return false;
    }
  }
  *edges = lines;
  return column == 0 && !digits;
}

/// digest FORMAT SCALE PARSE FILE...: the digest of the shards in order,
/// their newline count and bytes, and with PARSE=1 a record-by-record
/// structural check whose edge count is printed.
int RunDigest(int argc, char** argv) {
  if (argc < 5) return 2;
  const std::string format = argv[1];
  const int scale = std::atoi(argv[2]);
  const bool parse = std::atoi(argv[3]) != 0;
  Digest digest;
  std::uint64_t bytes = 0, lines = 0, edges = 0;
  bool ok = true;
  for (int i = 4; i < argc; ++i) {
    const MappedFile file(argv[i]);
    if (!file.ok()) return 1;
    const std::string_view p = file.view();
    digest.Update(p);
    bytes += p.size();
    if (format == "tsv") lines += CountNewlines(p);
    std::uint64_t file_edges = 0;
    if (parse) {
      ok = ok && (format == "adj6" ? ParseAdj6(p, scale, 1, &file_edges)
                                   : ParseTsv(p, scale, &file_edges));
    }
    edges += file_edges;
  }
  std::printf("{\"digest\":\"%s\",\"bytes\":%llu,\"lines\":%llu,"
              "\"parsed\":%d,\"parse_ok\":%d,\"edges\":%llu}\n",
              digest.Hex().c_str(), static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(lines), parse ? 1 : 0,
              ok ? 1 : 0, static_cast<unsigned long long>(edges));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s layers|client|digest [args]\n", argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "digest") return RunDigest(argc - 1, argv + 1);
  tg::FlagParser flags(argc - 1, argv + 1);
  if (mode == "layers") return RunLayers(flags);
  if (mode == "client") return RunClient(flags);
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
