// format/shard.h — the per-worker output shard shared by gen_cli and the
// tg::serve daemon: its file name and the format writer that fills it, so
// the offline tool and the service produce the same bytes under the same
// names.
#ifndef TRILLIONG_FORMAT_SHARD_H_
#define TRILLIONG_FORMAT_SHARD_H_

#include <memory>
#include <string>

#include "core/scope_sink.h"
#include "storage/file_io.h"
#include "util/common.h"

namespace tg::format {

/// `<prefix>.w<worker>.<format>`: worker k's shard of a run.
std::string ShardPath(const std::string& prefix, int worker,
                      const std::string& format);

/// The writer for one shard covering vertices [lo, hi): TsvWriter
/// (`transposed` swaps each edge's columns), Adj6Writer or Csr6Writer,
/// writing its staging blocks under `mode`. With `resume`, the writer's
/// resume constructor continues from that journaled CommitState token.
/// Null for a format other than tsv|adj6|csr6; callers validate the name
/// first.
std::unique_ptr<core::ScopeSink> MakeShardWriter(
    const std::string& format, const std::string& path, VertexId lo,
    VertexId hi, bool transposed, storage::IoMode mode,
    const core::ResumeFrom* resume = nullptr);

}  // namespace tg::format

#endif  // TRILLIONG_FORMAT_SHARD_H_
