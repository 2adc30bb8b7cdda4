#ifndef TRILLIONG_CORE_SCOPE_SINK_H_
#define TRILLIONG_CORE_SCOPE_SINK_H_

#include <cstddef>
#include <string>

#include "util/common.h"
#include "util/status.h"

namespace tg::core {

/// Consumer of generated scopes. The AVS model produces edges grouped by
/// scope vertex (the whole adjacency of one source under AVS-O, or of one
/// destination under AVS-I), which is exactly what the ADJ/CSR writers want
/// (Section 5: "the neighbors of each vertex are generated on the same
/// machine").
///
/// One sink instance is owned by one worker; implementations need not be
/// thread-safe.
class ScopeSink {
 public:
  virtual ~ScopeSink() = default;

  /// Delivers the adjacency of scope vertex `u`. `adj` holds `n` neighbor
  /// IDs (destinations for AVS-O, sources for AVS-I); the buffer is only
  /// valid for the duration of the call. Neighbors are NOT sorted.
  virtual void ConsumeScope(VertexId u, const VertexId* adj, std::size_t n) = 0;

  /// Flushes buffered output and returns the sink's latched status: a
  /// format writer reports its first write error here, so a run whose
  /// bytes did not all reach the file cannot pass as complete. Called
  /// exactly once, after the last scope.
  virtual Status Finish() { return Status::Ok(); }
};

/// A sink whose output can be checkpointed durably and continued by a later
/// process — the sink half of the chunk-commit protocol behind
/// `gen_cli --resume` (see fault/journal.h and docs/FAULT_TOLERANCE.md).
///
/// CommitState() pushes everything consumed so far into the kernel (so it
/// survives a process kill) and returns an opaque, whitespace-free token
/// describing the durable position; the journal stores one token per
/// committed chunk. A new process reconstructs the sink by passing the last
/// journaled token to the format writer's resume constructor (see
/// format/*), which truncates whatever was written past that point — torn
/// buffers, uncommitted chunks — and continues appending.
class ResumableSink : public ScopeSink {
 public:
  /// Makes all consumed scopes durable and renders the state token.
  /// Returns non-ok (and leaves *token untouched) if the underlying file is
  /// already in error.
  virtual Status CommitState(std::string* token) = 0;
};

/// Tag argument selecting a format writer's resume constructor: `state` is
/// the token returned by CommitState() in the interrupted process.
struct ResumeFrom {
  std::string state;
};

/// Sink that discards edges but counts them — used by benches that measure
/// pure generation speed and by tests.
class CountingSink : public ScopeSink {
 public:
  void ConsumeScope(VertexId /*u*/, const VertexId* /*adj*/,
                    std::size_t n) override {
    num_edges_ += n;
    num_scopes_ += 1;
  }

  std::uint64_t num_edges() const { return num_edges_; }
  std::uint64_t num_scopes() const { return num_scopes_; }

 private:
  std::uint64_t num_edges_ = 0;
  std::uint64_t num_scopes_ = 0;
};

}  // namespace tg::core

#endif  // TRILLIONG_CORE_SCOPE_SINK_H_
