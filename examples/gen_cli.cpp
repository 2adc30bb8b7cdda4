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
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "core/trilliong.h"
#include "fault/fault_injector.h"
#include "fault/journal.h"
#include "format/adj6.h"
#include "format/csr6.h"
#include "format/tsv.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/sampler.h"
#include "obs/serve/admin_server.h"
#include "obs/serve/prometheus.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "prof/folded.h"
#include "prof/profiler.h"
#include "rng/lane_rng.h"
#include "storage/async_writer.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

std::string ShardPath(const std::string& out, int worker,
                      const std::string& format) {
  return out + ".w" + std::to_string(worker) + "." + format;
}

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

std::unique_ptr<tg::core::ScopeSink> MakeSink(const std::string& format,
                                              const std::string& path,
                                              tg::VertexId lo,
                                              tg::VertexId hi,
                                              bool transposed) {
  if (format == "tsv") {
    return std::make_unique<tg::format::TsvWriter>(path, transposed);
  }
  if (format == "adj6") {
    return std::make_unique<tg::format::Adj6Writer>(path);
  }
  if (format == "csr6") {
    return std::make_unique<tg::format::Csr6Writer>(path, lo, hi);
  }
  std::fprintf(stderr, "unknown format '%s' (tsv|adj6|csr6)\n",
               format.c_str());
  std::exit(1);
}

/// Resume-constructing counterpart of MakeSink: restores a writer from the
/// sink-state token the journal recorded for this shard.
std::unique_ptr<tg::core::ScopeSink> MakeResumedSink(
    const std::string& format, const std::string& path, tg::VertexId lo,
    tg::VertexId hi, bool transposed, const std::string& state) {
  tg::core::ResumeFrom from{state};
  if (format == "tsv") {
    return std::make_unique<tg::format::TsvWriter>(path, transposed, from);
  }
  if (format == "adj6") {
    return std::make_unique<tg::format::Adj6Writer>(path, from);
  }
  return std::make_unique<tg::format::Csr6Writer>(path, lo, hi, from);
}

}  // namespace

int main(int argc, char** argv) {
  tg::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "usage: %s --out=PREFIX [--scale=N] [--edge_factor=N] "
        "[--format=tsv|adj6|csr6] [--workers=N] [--noise=X] [--seed=N]\n"
        "       [--precision=double|dd] [--direction=out|in]\n"
        "       [--chunks_per_worker=N] [--io=sync|async]\n"
        "       [--portable_kernel] [--no_prefix_tables]\n"
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
        "--mem_budget caps the generator's logical working set (accepts\n"
        "human sizes: 512m, 2g, 64k, plain bytes); exceeding it aborts the\n"
        "run with an OomError whose forensics (machine, tag, per-tag byte\n"
        "breakdown, span stack) are printed — and written as standalone\n"
        "JSON when --oom_report is given.\n"
        "--metrics_json writes a structured tg::obs run report (JSON; see\n"
        "docs/OBSERVABILITY.md); --metrics_prom writes the same registry in\n"
        "Prometheus text exposition format; --metrics_table prints it\n"
        "human-readable.\n"
        "--trace_json writes a Chrome Trace Event file (open in Perfetto or\n"
        "chrome://tracing); --progress prints a live edges/sec + ETA line;\n"
        "--sample_interval_ms sets the sampling interval\n"
        "(default 20 ms; TG_SAMPLE_INTERVAL_MS in the environment is the\n"
        "fallback) for the time series embedded in the run report.\n"
        "--admin_port starts the live admin server (docs/OBSERVABILITY.md\n"
        "\"Live endpoints\": /metrics, /healthz, /report.json, /events,\n"
        "/trace) on 127.0.0.1:<N> for the duration of the run; 0 picks an\n"
        "ephemeral port, printed at startup. The server only reads\n"
        "observability state: output files are bit-identical with it on or\n"
        "off.\n"
        "--profile samples the run with the in-process profiler (tg::prof,\n"
        "docs/OBSERVABILITY.md \"Profiling\") and writes flamegraph.pl-\n"
        "compatible folded stacks to PATH; --profile_hz sets the sampling\n"
        "rate (default 99 Hz of process CPU time). TG_PROFILE /\n"
        "TG_PROFILE_HZ in the environment are honored when the flags are\n"
        "absent. The profiler only reads program state: output files are\n"
        "bit-identical with it on or off.\n"
        "--io selects the writer transport (docs/PERFORMANCE.md \"The I/O\n"
        "path\"): 'sync' is the blocking stdio writer, 'async' (the default)\n"
        "double-buffers flushes onto a pwrite writer thread. Output files are\n"
        "bit-identical in both modes; TG_IO in the environment is honored\n"
        "when the flag is absent.\n"
        "--chunks_per_worker sets the work-stealing granularity (default "
        "16;\n1 = static one-range-per-worker schedule; output is "
        "bit-identical\nfor any value; TG_CHUNKS_PER_WORKER in the "
        "environment overrides\nthe default).\n"
        "--portable_kernel forces the scalar edge-kernel fills even in an\n"
        "AVX2 build (output is bit-identical; TG_PORTABLE_KERNEL in the\n"
        "environment does the same); --no_prefix_tables selects the legacy\n"
        "per-edge descent kernel (different RNG stream — a different, still\n"
        "deterministic graph; see docs/PERFORMANCE.md).\n",
        flags.program_name().c_str());
    return 0;
  }

  tg::core::TrillionGConfig config;
  config.scale = static_cast<int>(flags.GetInt("scale", 20));
  config.edge_factor =
      static_cast<std::uint64_t>(flags.GetInt("edge_factor", 16));
  config.num_workers = static_cast<int>(flags.GetInt("workers", 4));
  config.chunks_per_worker = static_cast<int>(
      flags.GetInt("chunks_per_worker", tg::core::ChunksPerWorkerFromEnv()));
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
  // Kernel knobs (docs/PERFORMANCE.md): --portable_kernel forces the
  // scalar-unrolled lane fills at runtime (one binary proves SIMD-on and
  // SIMD-off bit-identical); --no_prefix_tables falls back to the per-edge
  // descent kernel.
  if (flags.GetBool("portable_kernel", false)) {
    tg::rng::SetLaneForcePortable(true);
  }
  config.determiner.use_prefix_tables =
      !flags.GetBool("no_prefix_tables", false);

  // Writer transport (docs/PERFORMANCE.md): the flag overrides TG_IO, which
  // GlobalIoConfig() already consulted; every writer constructed below goes
  // through MakeFileWriter() and sees this choice.
  if (flags.Has("io")) {
    tg::storage::IoConfig io_config;
    const std::string io_spec = flags.GetString("io", "async");
    tg::Status io_status = tg::storage::ParseIoSpec(io_spec, &io_config);
    if (!io_status.ok()) {
      std::fprintf(stderr, "bad --io: %s\n", io_status.ToString().c_str());
      return 1;
    }
    tg::storage::GlobalIoConfig() = io_config;
  }

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

  // Profiling (docs/OBSERVABILITY.md "Profiling"): flag first, TG_PROFILE /
  // TG_PROFILE_HZ as the env fallback so benches and CI can arm it without
  // touching command lines.
  std::string profile_path = flags.GetString("profile", "");
  if (profile_path.empty()) {
    const char* env_profile = std::getenv("TG_PROFILE");
    if (env_profile != nullptr && env_profile[0] != '\0') {
      profile_path = env_profile;
    }
  }
  int profile_hz = 99;
  if (const char* env_hz = std::getenv("TG_PROFILE_HZ");
      env_hz != nullptr && env_hz[0] != '\0') {
    profile_hz = std::atoi(env_hz);
  }
  profile_hz = static_cast<int>(flags.GetInt("profile_hz", profile_hz));
  const bool profiling = !profile_path.empty();

  const std::string metrics_json = flags.GetString("metrics_json", "");
  const std::string metrics_prom = flags.GetString("metrics_prom", "");
  const std::string trace_json = flags.GetString("trace_json", "");
  const bool metrics_table = flags.GetBool("metrics_table", false);
  const bool progress = flags.GetBool("progress", false);
  const bool want_admin = flags.Has("admin_port");
  const bool want_sampler =
      progress || flags.Has("sample_interval_ms") || want_admin;
  const bool want_metrics = !metrics_json.empty() || !metrics_prom.empty() ||
                            metrics_table || !trace_json.empty() ||
                            want_sampler;
  if (want_metrics) {
    tg::obs::SetEnabled(true);
    tg::obs::PreregisterCanonicalMetrics();
  }
  if (!trace_json.empty()) tg::obs::SetTraceEnabled(true);

  std::unique_ptr<tg::obs::Sampler> sampler;
  if (want_sampler || !metrics_json.empty()) {
    tg::obs::SamplerOptions sampler_options;
    // Interval precedence: --sample_interval_ms, then
    // TG_SAMPLE_INTERVAL_MS, then 20 ms.
    sampler_options.interval_ms = static_cast<int>(flags.GetInt(
        "sample_interval_ms", tg::obs::SamplerIntervalFromEnv(20)));
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
    sampler = std::make_unique<tg::obs::Sampler>(sampler_options);
    sampler->Start();
  }

  tg::obs::serve::AdminServer admin;
  if (want_admin) {
    tg::obs::serve::AdminOptions admin_options;
    const int admin_port = static_cast<int>(flags.GetInt("admin_port", 0));
    if (admin_port < 0 || admin_port > 65535) {
      std::fprintf(stderr, "--admin_port must be in [0, 65535]\n");
      return 1;
    }
    admin_options.port = admin_port;
    admin_options.meta["tool"] = "gen_cli";
    admin_options.meta["scale"] = std::to_string(config.scale);
    admin_options.meta["edge_factor"] = std::to_string(config.edge_factor);
    admin_options.meta["workers"] = std::to_string(config.num_workers);
    admin_options.meta["seed"] = std::to_string(config.rng_seed);
    admin_options.meta["format"] = format;
    admin_options.meta["io"] =
        tg::storage::IoSpecString(tg::storage::GlobalIoConfig());
    admin_options.meta["out"] = out;
    tg::Status admin_status = admin.Start(admin_options);
    if (!admin_status.ok()) {
      std::fprintf(stderr, "cannot start admin server: %s\n",
                   admin_status.ToString().c_str());
      return 1;
    }
    std::printf("admin server on http://127.0.0.1:%d/ (try /metrics)\n",
                admin.port());
  }

  if (profiling) {
    tg::prof::ProfilerOptions prof_options;
    prof_options.hz = profile_hz;
    tg::Status prof_status = tg::prof::StartProfiler(prof_options);
    if (!prof_status.ok()) {
      std::fprintf(stderr, "cannot start profiler: %s\n",
                   prof_status.ToString().c_str());
      return 1;
    }
    std::printf("profiler sampling at %d Hz -> %s\n", profile_hz,
                profile_path.c_str());
  }

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
          const std::string path = ShardPath(out, worker, format);
          const auto committed = journal_state.ranges.find(worker);
          if (resume && committed != journal_state.ranges.end()) {
            return MakeResumedSink(format, path, lo, hi, transposed,
                                   committed->second.sink_state);
          }
          return MakeSink(format, path, lo, hi, transposed);
        });
  } catch (const tg::fault::FaultError& e) {
    faulted = true;
    std::fprintf(stderr, "unrecoverable fault after %.2f s: %s\n",
                 watch.ElapsedSeconds(), e.what());
  } catch (const tg::OomError& e) {
    oomed = true;
    if (want_metrics) tg::obs::RecordOom(e.report());
    std::fprintf(stderr, "O.O.M after %.2f s:\n%s", watch.ElapsedSeconds(),
                 e.report().ToString().c_str());
    if (!oom_report_path.empty()) {
      tg::Status status =
          tg::obs::WriteOomReportFile(e.report(), oom_report_path);
      if (status.ok()) {
        std::printf("oom report written to %s\n", oom_report_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s: %s\n",
                     oom_report_path.c_str(), status.ToString().c_str());
      }
    }
  }

  const bool interrupted = !oomed && !faulted && stats.cancelled;
  const bool completed = !oomed && !faulted && !stats.cancelled;
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
      std::printf(
          "scheduler: %llu chunks, %llu steals, cpu imbalance %.2f "
          "(max/mean)\n",
          static_cast<unsigned long long>(stats.sched_chunks),
          static_cast<unsigned long long>(stats.sched_steals),
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
                        ShardPath(out, w, format))
                        .c_str());
      }
    }
  }

  if (sampler != nullptr) sampler->Stop();

  tg::prof::ProfileSnapshot prof_snapshot;
  if (profiling) {
    tg::prof::StopProfiler();
    prof_snapshot = tg::prof::TakeSnapshot();
    tg::Status prof_write =
        tg::prof::WriteFoldedFile(prof_snapshot, profile_path);
    if (!prof_write.ok()) {
      std::fprintf(stderr, "failed to write profile %s: %s\n",
                   profile_path.c_str(), prof_write.ToString().c_str());
      return 1;
    }
    std::printf(
        "profile written to %s (%llu samples, %llu dropped; render with "
        "flamegraph.pl)\n",
        profile_path.c_str(),
        static_cast<unsigned long long>(prof_snapshot.samples),
        static_cast<unsigned long long>(prof_snapshot.dropped));
  }

  if (!trace_json.empty()) {
    tg::Status status = tg::obs::WriteChromeTraceFile(trace_json);
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write trace %s: %s\n",
                   trace_json.c_str(), status.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s (open in https://ui.perfetto.dev)\n",
                trace_json.c_str());
  }

  if (want_metrics) {
    tg::obs::RunReport report =
        tg::obs::RunReport::Collect(tg::obs::Registry::Global());
    report.meta["tool"] = "gen_cli";
    report.meta["scale"] = std::to_string(config.scale);
    report.meta["edge_factor"] = std::to_string(config.edge_factor);
    report.meta["workers"] = std::to_string(config.num_workers);
    report.meta["chunks_per_worker"] =
        std::to_string(config.chunks_per_worker);
    report.meta["noise"] = std::to_string(config.noise);
    report.meta["seed"] = std::to_string(config.rng_seed);
    report.meta["format"] = format;
    report.meta["io"] = tg::storage::IoSpecString(tg::storage::GlobalIoConfig());
    report.meta["precision"] =
        config.precision == tg::core::Precision::kDoubleDouble ? "dd"
                                                               : "double";
    report.meta["direction"] = transposed ? "in" : "out";
    report.meta["out"] = out;
    report.meta["wall_seconds"] = std::to_string(watch.ElapsedSeconds());
    if (config.fault_injector != nullptr && config.fault_injector->armed()) {
      report.meta["fault_plan"] = config.fault_injector->plan().ToString();
    } else if (!fault_plan_str.empty()) {
      report.meta["fault_plan"] = fault_plan_str;
    }
    if (journaling) report.meta["journal"] = journal_path;
    if (resume) report.meta["resumed"] = "1";
    if (interrupted) report.meta["interrupted"] = "1";
    if (sampler != nullptr) sampler->ExportTo(&report);
    if (profiling) {
      report.meta["profile"] = profile_path;
      tg::prof::ExportTo(prof_snapshot, &report);
    }
    if (metrics_table) std::fputs(report.ToTable().c_str(), stdout);
    if (!metrics_json.empty()) {
      tg::Status status = report.WriteJsonFile(metrics_json);
      if (!status.ok()) {
        std::fprintf(stderr, "failed to write %s: %s\n", metrics_json.c_str(),
                     status.ToString().c_str());
        return 1;
      }
      std::printf("metrics report written to %s\n", metrics_json.c_str());
    }
    if (!metrics_prom.empty()) {
      tg::Status status = tg::obs::serve::WritePrometheusFile(metrics_prom);
      if (!status.ok()) {
        std::fprintf(stderr, "failed to write %s: %s\n", metrics_prom.c_str(),
                     status.ToString().c_str());
        return 1;
      }
      std::printf("prometheus exposition written to %s\n",
                  metrics_prom.c_str());
    }
  }
  admin.Stop();
  if (oomed) return 1;
  return faulted ? 2 : 0;
}
