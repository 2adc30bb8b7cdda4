// serve/request.h — the generation-request schema of the tg::serve daemon.
//
// A request is the JSON mirror of gen_cli's command line: the same knobs
// (scale, edge factor, seed matrix, noise, workers, format, ...) with the
// same defaults, plus a `tenant` identity used for fair admission and
// per-tenant metrics. Parsing is strict — unknown keys, non-integral
// integers, and out-of-range values are rejected with a message naming the
// offending field — because the daemon must never feed unvalidated numbers
// into TrillionGConfig (SeedMatrix and NumEdges TG_CHECK-abort on bad
// input, which would take the whole multi-tenant process down).
//
// Because AVS partitioning is shuffle-free, a validated request is a pure
// function of its parameters: Fingerprint() (the same hash the resume
// journal uses to refuse splicing mismatched outputs) keys the daemon's
// whole-graph cache, and ModelKey() — the subset of parameters that shape
// the noise vector — keys the shared prefix tables and partition plans.
#ifndef TRILLIONG_SERVE_REQUEST_H_
#define TRILLIONG_SERVE_REQUEST_H_

#include <cstdint>
#include <string>

#include "core/trilliong.h"
#include "util/status.h"

namespace tg::serve {

/// One validated generation request. Field defaults match gen_cli's flag
/// defaults, so an empty JSON object `{}` asks for the same graph as
/// `gen_cli` with no flags (modulo --out).
struct GenRequest {
  std::string tenant = "anon";  ///< [A-Za-z0-9_-]{1,64}
  int scale = 20;
  std::uint64_t edge_factor = 16;
  std::uint64_t num_edges = 0;  ///< 0: edge_factor * |V|
  double noise = 0.0;
  std::uint64_t rng_seed = 42;
  double a = 0.57, b = 0.19, c = 0.19, d = 0.05;
  int workers = 4;
  int chunks_per_worker = 16;
  std::string format = "adj6";      ///< tsv | adj6 | csr6
  std::string direction = "out";    ///< out | in
  std::string precision = "double"; ///< double | dd
  bool use_prefix_tables = true;
};

/// The daemon's per-request resource ceilings (DaemonOptions carries the
/// operator-chosen values). Everything a client could use to make one
/// request arbitrarily expensive is bounded here, at validation time.
struct RequestLimits {
  int max_scale = 26;
  int max_workers = 16;
  int max_chunks_per_worker = 256;
  std::uint64_t max_edges = std::uint64_t{1} << 32;
};

/// Parses and validates a JSON request body: Corruption when the body is not
/// JSON (json::Parse's error, nesting depth included), InvalidArgument when
/// it breaks the request schema. On error the returned status message is
/// safe to echo to the client (it names fields and bounds, never server
/// state).
Status ParseGenRequest(const std::string& json_body,
                       const RequestLimits& limits, GenRequest* out);

/// The TrillionGConfig a gen_cli run with these parameters would build.
/// Only the graph-shaping fields are set; the caller wires budget, cancel
/// flag, hooks, and cached artifacts.
core::TrillionGConfig ToConfig(const GenRequest& request);

/// Hash of every output-shaping parameter including the format — equal
/// fingerprints mean byte-identical payloads (fault::ConfigFingerprint,
/// the contract the resume journal already enforces). Keys the whole-graph
/// cache.
std::uint64_t Fingerprint(const GenRequest& request);

/// Hash of only the parameters that shape the noise vector (seed matrix,
/// scale, noise, rng seed, direction). Requests with equal model keys share
/// prefix tables; plans additionally key on the worker count.
std::uint64_t ModelKey(const GenRequest& request);

}  // namespace tg::serve

#endif  // TRILLIONG_SERVE_REQUEST_H_
