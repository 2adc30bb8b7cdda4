#include "serve/request.h"

#include <cmath>
#include <cstring>
#include <set>

#include "fault/journal.h"
#include "util/json.h"

namespace tg::serve {

namespace {

Status Invalid(const std::string& message) {
  return Status::InvalidArgument(message);
}

bool ValidTenant(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > 64) return false;
  for (char ch : tenant) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == '-';
    if (!ok) return false;
  }
  return true;
}

/// Reads an optional integral member into *out. JSON numbers are doubles, so
/// integrality and the [0, 2^53) exact range are enforced explicitly.
Status ReadUint(const json::Value& object, const std::string& key,
                std::uint64_t* out) {
  const json::Value* v = object.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_number() || v->number < 0 || v->number != std::floor(v->number) ||
      v->number >= 9007199254740992.0) {
    return Invalid("'" + key + "' must be a non-negative integer");
  }
  *out = static_cast<std::uint64_t>(v->number);
  return Status::Ok();
}

Status ReadDouble(const json::Value& object, const std::string& key,
                  double* out) {
  const json::Value* v = object.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_number()) return Invalid("'" + key + "' must be a number");
  *out = v->number;
  return Status::Ok();
}

Status ReadString(const json::Value& object, const std::string& key,
                  std::string* out) {
  const json::Value* v = object.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_string()) return Invalid("'" + key + "' must be a string");
  *out = v->str;
  return Status::Ok();
}

Status ReadBool(const json::Value& object, const std::string& key, bool* out) {
  const json::Value* v = object.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_bool()) return Invalid("'" + key + "' must be a boolean");
  *out = v->boolean;
  return Status::Ok();
}

std::uint64_t HashMix(std::uint64_t h, std::uint64_t v) {
  // FNV-1a over the 8 value bytes; enough for cache keys (collisions only
  // cost a spurious shared-artifact miss/hit between distinct models, and
  // the whole-graph cache uses the journal's ConfigFingerprint instead).
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

Status ParseGenRequest(const std::string& json_body,
                       const RequestLimits& limits, GenRequest* out) {
  json::Value doc;
  Status parsed = json::Parse(json_body, &doc);
  if (!parsed.ok()) {
    return Status::Corruption("request body is not valid JSON: " +
                              parsed.message());
  }
  if (!doc.is_object()) return Invalid("request body must be a JSON object");

  static const std::set<std::string> kKnownKeys = {
      "tenant",  "scale",     "edge_factor", "num_edges",
      "noise",   "seed",      "a",           "b",
      "c",       "d",         "workers",     "chunks_per_worker",
      "format",  "direction", "precision",   "use_prefix_tables"};
  for (const auto& [key, value] : doc.object) {
    if (kKnownKeys.count(key) == 0) return Invalid("unknown field '" + key + "'");
  }

  GenRequest req;
  Status s;
  if (!(s = ReadString(doc, "tenant", &req.tenant)).ok()) return s;
  if (!ValidTenant(req.tenant)) {
    return Invalid("'tenant' must match [A-Za-z0-9_-]{1,64}");
  }

  std::uint64_t scale = static_cast<std::uint64_t>(req.scale);
  if (!(s = ReadUint(doc, "scale", &scale)).ok()) return s;
  if (scale < 1 || scale > static_cast<std::uint64_t>(limits.max_scale)) {
    return Invalid("'scale' must be in [1, " +
                   std::to_string(limits.max_scale) + "]");
  }
  req.scale = static_cast<int>(scale);

  if (!(s = ReadUint(doc, "edge_factor", &req.edge_factor)).ok()) return s;
  if (!(s = ReadUint(doc, "num_edges", &req.num_edges)).ok()) return s;
  if (req.num_edges == 0 && req.edge_factor == 0) {
    return Invalid("'edge_factor' must be >= 1 when 'num_edges' is not given");
  }
  // |E| bound, computed in 128 bits so edge_factor << scale cannot overflow
  // before the comparison (TrillionGConfig::NumEdges would abort instead).
  const unsigned __int128 edges =
      req.num_edges != 0
          ? static_cast<unsigned __int128>(req.num_edges)
          : static_cast<unsigned __int128>(req.edge_factor) << req.scale;
  if (edges == 0 || edges > limits.max_edges) {
    return Invalid("request asks for more than max_edges=" +
                   std::to_string(limits.max_edges) + " edges");
  }

  if (!(s = ReadDouble(doc, "noise", &req.noise)).ok()) return s;
  if (!(req.noise >= 0.0 && req.noise <= 1.0)) {
    return Invalid("'noise' must be in [0, 1]");
  }
  if (!(s = ReadUint(doc, "seed", &req.rng_seed)).ok()) return s;

  if (!(s = ReadDouble(doc, "a", &req.a)).ok()) return s;
  if (!(s = ReadDouble(doc, "b", &req.b)).ok()) return s;
  if (!(s = ReadDouble(doc, "c", &req.c)).ok()) return s;
  if (!(s = ReadDouble(doc, "d", &req.d)).ok()) return s;
  // Mirror SeedMatrix's own TG_CHECKs — those abort the process, this
  // returns a 400.
  if (!(req.a >= 0 && req.b >= 0 && req.c >= 0 && req.d >= 0) ||
      !(std::abs(req.a + req.b + req.c + req.d - 1.0) < 1e-9)) {
    return Invalid("'a'+'b'+'c'+'d' must be non-negative and sum to 1");
  }

  std::uint64_t workers = static_cast<std::uint64_t>(req.workers);
  if (!(s = ReadUint(doc, "workers", &workers)).ok()) return s;
  if (workers < 1 || workers > static_cast<std::uint64_t>(limits.max_workers)) {
    return Invalid("'workers' must be in [1, " +
                   std::to_string(limits.max_workers) + "]");
  }
  req.workers = static_cast<int>(workers);

  std::uint64_t chunks = static_cast<std::uint64_t>(req.chunks_per_worker);
  if (!(s = ReadUint(doc, "chunks_per_worker", &chunks)).ok()) return s;
  if (chunks < 1 ||
      chunks > static_cast<std::uint64_t>(limits.max_chunks_per_worker)) {
    return Invalid("'chunks_per_worker' must be in [1, " +
                   std::to_string(limits.max_chunks_per_worker) + "]");
  }
  req.chunks_per_worker = static_cast<int>(chunks);

  if (!(s = ReadString(doc, "format", &req.format)).ok()) return s;
  if (req.format != "tsv" && req.format != "adj6" && req.format != "csr6") {
    return Invalid("'format' must be one of tsv|adj6|csr6");
  }
  if (!(s = ReadString(doc, "direction", &req.direction)).ok()) return s;
  if (req.direction != "out" && req.direction != "in") {
    return Invalid("'direction' must be out|in");
  }
  if (!(s = ReadString(doc, "precision", &req.precision)).ok()) return s;
  if (req.precision != "double" && req.precision != "dd") {
    return Invalid("'precision' must be double|dd");
  }
  if (!(s = ReadBool(doc, "use_prefix_tables", &req.use_prefix_tables)).ok()) {
    return s;
  }

  *out = req;
  return Status::Ok();
}

core::TrillionGConfig ToConfig(const GenRequest& request) {
  core::TrillionGConfig config;
  config.seed = model::SeedMatrix(request.a, request.b, request.c, request.d);
  config.scale = request.scale;
  config.edge_factor = request.edge_factor;
  config.num_edges = request.num_edges;
  config.noise = request.noise;
  config.rng_seed = request.rng_seed;
  config.num_workers = request.workers;
  config.chunks_per_worker = request.chunks_per_worker;
  config.precision = request.precision == "dd"
                         ? core::Precision::kDoubleDouble
                         : core::Precision::kDouble;
  config.direction = request.direction == "in" ? core::Direction::kIn
                                               : core::Direction::kOut;
  config.determiner.use_prefix_tables = request.use_prefix_tables;
  return config;
}

std::uint64_t Fingerprint(const GenRequest& request) {
  return fault::ConfigFingerprint(ToConfig(request), request.format);
}

std::uint64_t ModelKey(const GenRequest& request) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = HashMix(h, DoubleBits(request.a));
  h = HashMix(h, DoubleBits(request.b));
  h = HashMix(h, DoubleBits(request.c));
  h = HashMix(h, DoubleBits(request.d));
  h = HashMix(h, static_cast<std::uint64_t>(request.scale));
  h = HashMix(h, DoubleBits(request.noise));
  h = HashMix(h, request.rng_seed);
  h = HashMix(h, request.direction == "in" ? 1 : 0);
  return h;
}

}  // namespace tg::serve
