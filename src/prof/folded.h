// prof/folded.h — render a ProfileSnapshot as flamegraph.pl-compatible
// collapsed stacks ("folded" text: `phase;root;...;leaf <count>` per line)
// and as the aggregated `prof` section of a RunReport (top frames per
// phase, self + total sample counts). Off-CPU stall totals appear as
// synthetic `[stall:<kind>]` leaf frames so blocked time renders next to
// on-CPU time in the same flamegraph.
#ifndef TRILLIONG_PROF_FOLDED_H_
#define TRILLIONG_PROF_FOLDED_H_

#include <string>

#include "prof/profiler.h"

namespace tg::obs {
struct RunReport;
}  // namespace tg::obs

namespace tg::prof {

/// Renders the snapshot as folded text: one `frame;frame;... count` line
/// per distinct symbolized stack, root first, prefixed with the obs phase,
/// lexically sorted. Identical lines (same stack observed under different
/// workers/machines, or distinct pcs symbolizing identically) are merged.
std::string RenderFolded(const ProfileSnapshot& snapshot);

/// Folded text for the samples accrued *between* two snapshots of the same
/// profiler session (`/pprof/profile?seconds=N` uses this). Counts present
/// in `before` are subtracted; rows that do not grow are omitted.
std::string RenderFoldedDiff(const ProfileSnapshot& before,
                             const ProfileSnapshot& after);

/// Fills `report->prof`: sampler totals plus the top frames per phase,
/// with `self` (samples with the frame as leaf) and `total` (samples with
/// the frame anywhere on stack, counted once per sample) columns. Stall
/// rows carry the `[stall:<kind>]` frame name.
void ExportTo(const ProfileSnapshot& snapshot, obs::RunReport* report);

}  // namespace tg::prof

#endif  // TRILLIONG_PROF_FOLDED_H_
