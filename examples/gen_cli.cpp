// gen_cli: the full-featured TrillionG command-line generator. Writes a
// graph in TSV, ADJ6 or CSR6 format, one shard per worker, with optional
// NSKG noise and AVS-I orientation — the example closest to what the paper's
// released tool does.
//
//   ./gen_cli --scale=22 --edge_factor=16 --format=adj6 --out=/tmp/graph
//             --workers=8 --noise=0.1 --precision=dd
//
// Output files: <out>.w<k>.<ext> for worker k.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "core/trilliong.h"
#include "fault/fault_injector.h"
#include "fault/journal.h"
#include "format/csr6.h"
#include "format/shard.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/session.h"
#include "storage/file_io.h"
#include "storage/fs.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

/// SIGINT/SIGTERM request graceful cancellation: the flag feeds
/// TrillionGConfig::cancel_flag, generation stops at the next chunk
/// boundary, and main still writes reports and (when journaling) leaves a
/// resumable journal behind.
std::atomic<bool> g_interrupted{false};

void HandleStopSignal(int) { g_interrupted.store(true); }

void InstallStopSignalHandlers() {
  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  tg::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "usage: %s --out=PREFIX [--scale=N] [--edge_factor=N] "
        "[--format=tsv|adj6|csr6] [--workers=N] [--noise=X] [--seed=N]\n"
        "       [--precision=double|dd] [--direction=out|in]\n"
        "       [--chunks_per_worker=N] [--no_prefix_tables]\n"
        "       [--a=0.57 --b=0.19 --c=0.19 --d=0.05]\n"
        "       [--metrics_json=PATH] [--metrics_prom=PATH] "
        "[--metrics_table]\n"
        "       [--trace_json=PATH] [--progress]\n"
        "       [--sample_interval_ms=N] [--admin_port=N]\n"
        "       [--profile=PATH] [--profile_hz=N]\n"
        "       [--mem_budget=SIZE] [--oom_report=PATH]\n"
        "       [--fault_plan=PLAN] [--journal] [--resume]\n"
        "--fault_plan injects deterministic faults into the simulated\n"
        "cluster (grammar in docs/FAULT_TOLERANCE.md, e.g.\n"
        "'m1:crash@chunk=3' or 'seed=7,*:crash@p=0.05'); TG_FAULT_PLAN in\n"
        "the environment is honored when the flag is absent.\n"
        "--journal checkpoints every committed chunk to <out>.journal so an\n"
        "interrupted run can be continued; --resume (implies --journal)\n"
        "loads that journal, truncates the output shards back to the last\n"
        "committed chunk, and generates only what is missing — the resumed\n"
        "files are byte-identical to an uninterrupted run.\n"
        "--mem_budget caps the generator's logical working set, stolen\n"
        "chunks parked for their owner included (accepts human sizes:\n"
        "512m, 2g, 64k, plain bytes); exceeding it aborts the\n"
        "run with an OomError whose forensics (machine, tag, per-tag byte\n"
        "breakdown, span stack) are printed — and written as standalone\n"
        "JSON when --oom_report is given.\n"
        "--metrics_json writes a structured tg::obs run report (JSON; see\n"
        "docs/OBSERVABILITY.md); --metrics_prom writes the same registry in\n"
        "Prometheus text exposition format; --metrics_table prints it\n"
        "human-readable.\n"
        "--trace_json writes a Chrome Trace Event file (open in Perfetto or\n"
        "chrome://tracing); --progress prints a live edges/sec + ETA line;\n"
        "--sample_interval_ms sets the sampling interval (default 20 ms)\n"
        "for the time series embedded in the run report.\n"
        "--admin_port starts the live admin server (docs/OBSERVABILITY.md\n"
        "\"Live endpoints\": /metrics, /healthz, /report.json, /events,\n"
        "/trace) on 127.0.0.1:<N> for the duration of the run; 0 picks an\n"
        "ephemeral port, printed at startup. The server only reads\n"
        "observability state: output files are bit-identical with it on or\n"
        "off.\n"
        "--profile samples the run with the in-process profiler (tg::prof,\n"
        "docs/OBSERVABILITY.md \"Profiling\") and writes flamegraph.pl-\n"
        "compatible folded stacks to PATH; --profile_hz sets the sampling\n"
        "rate (default 99 Hz of process CPU time). The profiler only reads\n"
        "program state: output files are bit-identical with it on or off.\n"
        "A failed write fails the run (exit code 3) and the journal records\n"
        "no completion.\n"
        "--chunks_per_worker sets the work-stealing granularity (default "
        "16;\n1 = static one-range-per-worker schedule; output is "
        "bit-identical\nfor any value).\n"
        "--no_prefix_tables selects the legacy per-edge descent kernel\n"
        "(different RNG stream — a different, still deterministic graph;\n"
        "see docs/PERFORMANCE.md).\n",
        flags.program_name().c_str());
    return 0;
  }

  tg::core::TrillionGConfig config;
  config.scale = static_cast<int>(flags.GetInt("scale", 20));
  config.edge_factor =
      static_cast<std::uint64_t>(flags.GetInt("edge_factor", 16));
  config.num_workers = static_cast<int>(flags.GetInt("workers", 4));
  config.chunks_per_worker = static_cast<int>(
      flags.GetInt("chunks_per_worker", tg::core::kDefaultChunksPerWorker));
  config.noise = flags.GetDouble("noise", 0.0);
  config.rng_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.seed = tg::model::SeedMatrix(
      flags.GetDouble("a", 0.57), flags.GetDouble("b", 0.19),
      flags.GetDouble("c", 0.19), flags.GetDouble("d", 0.05));
  if (flags.GetString("precision", "double") == "dd") {
    config.precision = tg::core::Precision::kDoubleDouble;
  }
  const bool transposed = flags.GetString("direction", "out") == "in";
  if (transposed) config.direction = tg::core::Direction::kIn;
  // Kernel choice (docs/PERFORMANCE.md): --no_prefix_tables falls back to
  // the per-edge descent kernel. The lane fill (AVX2 or portable) is picked
  // by the CPU and never changes a byte.
  config.determiner.use_prefix_tables =
      !flags.GetBool("no_prefix_tables", false);

  const std::string format = flags.GetString("format", "adj6");
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out=PREFIX is required (try --help)\n");
    return 1;
  }
  if (format != "tsv" && format != "adj6" && format != "csr6") {
    std::fprintf(stderr, "unknown format '%s' (tsv|adj6|csr6)\n",
                 format.c_str());
    return 1;
  }

  // --- fault injection / crash recovery / resume (see src/fault/). ---
  const std::string fault_plan_str = flags.GetString("fault_plan", "");
  const bool resume = flags.GetBool("resume", false);
  const bool journaling = flags.GetBool("journal", false) || resume;
  std::unique_ptr<tg::fault::FaultInjector> injector;
  if (!fault_plan_str.empty()) {
    tg::fault::FaultPlan plan;
    tg::Status plan_status = tg::fault::FaultPlan::Parse(fault_plan_str, &plan);
    if (!plan_status.ok()) {
      std::fprintf(stderr, "bad --fault_plan: %s\n",
                   plan_status.ToString().c_str());
      return 1;
    }
    injector = std::make_unique<tg::fault::FaultInjector>(std::move(plan),
                                                          config.num_workers);
    config.fault_injector = injector.get();
  }
  // When the flag is absent, tg::core::Generate arms TG_FAULT_PLAN itself.

  const std::string journal_path = out + ".journal";
  const std::uint64_t fingerprint =
      tg::fault::ConfigFingerprint(config, format);
  tg::fault::JournalState journal_state;
  if (resume) {
    tg::Status load = tg::fault::LoadJournal(journal_path, &journal_state);
    if (!load.ok()) {
      std::fprintf(stderr, "--resume: %s\n", load.ToString().c_str());
      return 1;
    }
    if (journal_state.done) {
      std::printf("%s records a completed run; nothing to resume\n",
                  journal_path.c_str());
      return 0;
    }
    if (journal_state.fingerprint != fingerprint) {
      std::fprintf(stderr,
                   "--resume: %s was written by a run with different "
                   "parameters; refusing to splice outputs\n",
                   journal_path.c_str());
      return 1;
    }
    config.resume_next_seq.assign(
        static_cast<std::size_t>(config.num_workers), 0);
    for (const auto& [range, range_state] : journal_state.ranges) {
      if (range >= 0 && range < config.num_workers) {
        config.resume_next_seq[range] = range_state.next_seq;
      }
    }
  }

  std::unique_ptr<tg::fault::Journal> journal;
  if (journaling) {
    tg::Status js =
        resume ? tg::fault::Journal::Reopen(journal_path, &journal)
               : tg::fault::Journal::Start(journal_path, fingerprint, &journal);
    if (!js.ok()) {
      std::fprintf(stderr, "cannot open journal: %s\n", js.ToString().c_str());
      return 1;
    }
    config.chunk_commit_hook = [&journal](const tg::core::Chunk& chunk,
                                          tg::core::ScopeSink* sink) {
      auto* resumable = dynamic_cast<tg::core::ResumableSink*>(sink);
      if (resumable == nullptr) return;
      std::string token;
      // A failed checkpoint (e.g. injected I/O failure) writes no record:
      // the journal never claims more than the shard durably holds.
      if (!resumable->CommitState(&token).ok()) return;
      tg::Status append = journal->AppendCommit(chunk.range, chunk.seq, token);
      if (!append.ok()) {
        std::fprintf(stderr, "journal append failed: %s\n",
                     append.ToString().c_str());
      }
    };
  }

  // A budget of 0 tracks peaks without capping; any other value turns the
  // budget into a hard cap that reproduces the paper's O.O.M behaviour.
  const std::uint64_t mem_budget_bytes = flags.GetBytes("mem_budget", 0);
  tg::MemoryBudget budget(mem_budget_bytes);
  config.budget = &budget;
  const std::string oom_report_path = flags.GetString("oom_report", "");

  // Observability (docs/OBSERVABILITY.md): one obs::Session owns the
  // sampler, admin server, profiler and every report file.
  tg::obs::SessionOptions obs_options;
  obs_options.metrics_json = flags.GetString("metrics_json", "");
  obs_options.metrics_prom = flags.GetString("metrics_prom", "");
  obs_options.trace_json = flags.GetString("trace_json", "");
  obs_options.metrics_table = flags.GetBool("metrics_table", false);
  obs_options.profile = flags.GetString("profile", "");
  obs_options.profile_hz =
      static_cast<int>(flags.GetInt("profile_hz", obs_options.profile_hz));
  const bool progress = flags.GetBool("progress", false);
  if (flags.Has("admin_port")) {
    obs_options.admin_port = static_cast<int>(flags.GetInt("admin_port", 0));
    if (obs_options.admin_port < 0 || obs_options.admin_port > 65535) {
      std::fprintf(stderr, "--admin_port must be in [0, 65535]\n");
      return 1;
    }
  }
  // The time series ride in every JSON report, and the live views need it.
  obs_options.sample = progress || flags.Has("sample_interval_ms") ||
                       obs_options.admin_port >= 0 ||
                       !obs_options.metrics_json.empty();
  if (obs_options.sample) {
    tg::obs::SamplerOptions& sampler_options = obs_options.sampler;
    sampler_options.interval_ms =
        static_cast<int>(flags.GetInt("sample_interval_ms", 20));
    sampler_options.print_progress = progress;
    sampler_options.progress_target_edges = config.NumEdges();
    if (resume && !config.resume_next_seq.empty()) {
      // Chunks the journal already committed count as done work at t=0, so
      // the progress percentage starts at the true completion fraction and
      // the ETA is not inflated by crediting old work to the cold-start
      // rate. Chunks are equal-mass by construction (BuildChunkQueues),
      // which makes the linear chunk → edge estimate exact in expectation.
      std::uint64_t committed_chunks = 0;
      for (std::uint32_t next_seq : config.resume_next_seq) {
        committed_chunks += next_seq;
      }
      const std::uint64_t total_chunks =
          static_cast<std::uint64_t>(config.num_workers) *
          static_cast<std::uint64_t>(config.chunks_per_worker);
      if (total_chunks > 0) {
        sampler_options.progress_initial_edges = static_cast<std::uint64_t>(
            static_cast<double>(config.NumEdges()) *
            static_cast<double>(committed_chunks) /
            static_cast<double>(total_chunks));
      }
    }
  }
  std::map<std::string, std::string>& meta = obs_options.meta;
  meta["tool"] = "gen_cli";
  meta["scale"] = std::to_string(config.scale);
  meta["edge_factor"] = std::to_string(config.edge_factor);
  meta["workers"] = std::to_string(config.num_workers);
  meta["chunks_per_worker"] = std::to_string(config.chunks_per_worker);
  meta["noise"] = std::to_string(config.noise);
  meta["seed"] = std::to_string(config.rng_seed);
  meta["format"] = format;
  meta["io"] = "async";
  meta["precision"] = config.precision == tg::core::Precision::kDoubleDouble
                          ? "dd"
                          : "double";
  meta["direction"] = transposed ? "in" : "out";
  meta["out"] = out;
  tg::obs::Session obs_session(std::move(obs_options));
  if (!obs_session.start_status().ok()) return 1;

  std::printf("generating scale %d (|V|=%llu, |E|=%llu) as %s into %s.*\n",
              config.scale,
              static_cast<unsigned long long>(config.NumVertices()),
              static_cast<unsigned long long>(config.NumEdges()),
              format.c_str(), out.c_str());
  // The admin server and profiler are up: a driver watching stdout for this
  // line (tests/equivalence_matrix.py) may scrape them now.
  std::fflush(stdout);

  InstallStopSignalHandlers();
  config.cancel_flag = &g_interrupted;

  tg::Stopwatch watch;
  bool oomed = false;
  bool faulted = false;
  tg::core::GenerateStats stats;
  try {
    stats = tg::core::Generate(
        config,
        [&](int worker, tg::VertexId lo, tg::VertexId hi)
            -> std::unique_ptr<tg::core::ScopeSink> {
          const std::string path = tg::format::ShardPath(out, worker, format);
          // A writer thread per shard overlaps encoding with pwrite.
          const tg::storage::IoMode io_mode = tg::storage::IoMode::kAsync;
          const auto committed = journal_state.ranges.find(worker);
          if (resume && committed != journal_state.ranges.end()) {
            const tg::core::ResumeFrom from{committed->second.sink_state};
            return tg::format::MakeShardWriter(format, path, lo, hi,
                                               transposed, io_mode, &from);
          }
          return tg::format::MakeShardWriter(format, path, lo, hi,
                                             transposed, io_mode);
        });
  } catch (const tg::fault::FaultError& e) {
    faulted = true;
    std::fprintf(stderr, "unrecoverable fault after %.2f s: %s\n",
                 watch.ElapsedSeconds(), e.what());
  } catch (const tg::OomError& e) {
    oomed = true;
    if (tg::obs::Enabled()) tg::obs::RecordOom(e.report());
    std::fprintf(stderr, "O.O.M after %.2f s:\n%s", watch.ElapsedSeconds(),
                 e.report().ToString().c_str());
    if (!oom_report_path.empty()) {
      tg::Status status = tg::storage::WriteFile(
          oom_report_path, tg::obs::OomReportToJson(e.report()));
      if (status.ok()) {
        std::printf("oom report written to %s\n", oom_report_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s: %s\n",
                     oom_report_path.c_str(), status.ToString().c_str());
      }
    }
  }

  const bool interrupted = !oomed && !faulted && stats.cancelled;
  // A shard writer latched a write error: its bytes stop short of the
  // graph, so the run is not complete and the journal must not say so.
  // The journal holds only chunks whose bytes reached the file.
  const bool write_failed = !oomed && !faulted && !stats.sink_status.ok();
  const bool completed = !oomed && !faulted && !stats.cancelled &&
                         !write_failed;
  if (write_failed) {
    std::fprintf(stderr, "write failed after %.2f s: %s%s\n",
                 watch.ElapsedSeconds(),
                 stats.sink_status.ToString().c_str(),
                 journal != nullptr ? "; continue with --resume" : "");
  }
  if (interrupted) {
    // The shards hold a clean committed prefix — exactly what an
    // uninterrupted run would have written up to the last committed chunk.
    // With --journal the run is resumable; the journal deliberately gets no
    // DONE record.
    std::printf(
        "interrupted after %.2f s: committed prefix retained%s\n",
        watch.ElapsedSeconds(),
        journal != nullptr ? "; continue with --resume" : "");
  }
  if (completed) {
    std::printf(
        "done: %llu edges, %llu scopes, d_max=%llu in %.2f s "
        "(partition %.3f s, generate %.3f s)\n",
        static_cast<unsigned long long>(stats.num_edges),
        static_cast<unsigned long long>(stats.num_scopes),
        static_cast<unsigned long long>(stats.max_degree),
        watch.ElapsedSeconds(), stats.partition_seconds,
        stats.generate_seconds);
    std::printf("peak per-scope working set: %llu bytes\n",
                static_cast<unsigned long long>(stats.peak_scope_bytes));
    if (config.num_workers > 1) {
      const double parked_mib =
          static_cast<double>(
              budget.Tag(tg::core::ChunkBuffer::kParkedTag)->peak.load()) /
          (1 << 20);
      std::printf(
          "scheduler: %llu chunks, %llu steals, parked peak %.1f MiB, "
          "cpu imbalance %.2f (max/mean)\n",
          static_cast<unsigned long long>(stats.sched_chunks),
          static_cast<unsigned long long>(stats.sched_steals), parked_mib,
          stats.sched_imbalance);
    }
    if (stats.sched_recovered > 0) {
      std::printf("fault recovery: %llu chunks re-run on surviving machines\n",
                  static_cast<unsigned long long>(stats.sched_recovered));
    }
  }

  if (completed && journal != nullptr) {
    tg::Status done_status = journal->AppendDone();
    if (!done_status.ok()) {
      std::fprintf(stderr, "journal close failed: %s\n",
                   done_status.ToString().c_str());
    } else if (format == "csr6") {
      // The run is durably complete: the degree sidecars kept for resume
      // are dead weight now.
      for (int w = 0; w < config.num_workers; ++w) {
        std::remove(tg::format::Csr6Writer::SidecarPath(
                        tg::format::ShardPath(out, w, format))
                        .c_str());
      }
    }
  }

  std::map<std::string, std::string> run_meta;
  run_meta["wall_seconds"] = std::to_string(watch.ElapsedSeconds());
  if (config.fault_injector != nullptr && config.fault_injector->armed()) {
    run_meta["fault_plan"] = config.fault_injector->plan().ToString();
  } else if (!fault_plan_str.empty()) {
    run_meta["fault_plan"] = fault_plan_str;
  }
  if (journaling) run_meta["journal"] = journal_path;
  if (resume) run_meta["resumed"] = "1";
  if (interrupted) run_meta["interrupted"] = "1";
  if (!obs_session.Finish(run_meta).ok()) return 1;
  if (oomed) return 1;
  if (faulted) return 2;
  return write_failed ? 3 : 0;
}
