#ifndef TRILLIONG_CORE_PARTITIONER_H_
#define TRILLIONG_CORE_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "model/noise.h"
#include "util/common.h"

namespace tg::core {

/// AVS-level workload partitioning (Section 5, Figure 6). TrillionG avoids
/// the workload skew of shuffle-based generators by splitting the vertex
/// range into bins of approximately equal *expected* edge counts before any
/// edge is generated. This file is the only code that decides range
/// boundaries; every caller recomputes them (a plan is a cheap pure function
/// of the noise vector, so nothing caches one).
///
///  * `PartitionRangeByCdf` — closed-form: the cumulative expected out-degree
///    Cum(u) = sum_{u' < u} P_{u'->} is computable in O(log|V|) from the
///    Kronecker product structure (see EdgeProbability::
///    CumulativeRowProbability); each bin boundary is found by binary search.
///    This is how arbitrarily large scales are partitioned without touching
///    every vertex. The scheduler splits each worker range into chunks with
///    it (BuildChunkQueues); `PartitionByCdf` is its whole-range case, which
///    core::Generate uses for the worker ranges.
///  * Figure 6's combine / gather / repartition / scatter protocol, as its
///    two compute steps: `CombineThreadBins` (one thread's combining step)
///    and `RepartitionBins` (the master's repartitioning step over the
///    gathered bins). cluster::GenerateOnCluster runs them on its simulated
///    machines and accounts the gather and scatter on its wire.
///    `PartitionByCombine` composes them in one thread; tests hold the
///    cluster driver and `PartitionByCdf` against it.

/// Cumulative row-marginal probability sum_{u' < u} P_{u'->} under the
/// (possibly noisy) per-level seed matrices, in O(log|V|).
double CumulativeRowProbability(const model::NoiseVector& noise, VertexId u);

/// PartitionRangeByCdf over the whole range [0, |V|): `num_bins + 1`
/// boundaries from 0 to |V|, each bin carrying ~1/num_bins of the total
/// expected edge mass.
std::vector<VertexId> PartitionByCdf(const model::NoiseVector& noise,
                                     int num_bins);

/// Returns `num_bins + 1` boundaries b_0 = lo <= ... <= b_num_bins = hi
/// such that each [b_i, b_{i+1}) of the vertex range [lo, hi) carries
/// ~1/num_bins of the range's expected edge mass. The work-stealing
/// scheduler splits each worker's range into chunks of equal expected mass
/// with it (src/core/scheduler.h).
std::vector<VertexId> PartitionRangeByCdf(const model::NoiseVector& noise,
                                          VertexId lo, VertexId hi,
                                          int num_bins);

/// One bin of Figure 6's combining step: a contiguous vertex range plus its
/// combined expected edge count.
struct MassBin {
  VertexId begin = 0;
  VertexId end = 0;
  double mass = 0.0;
};

/// Figure 6's combining step for thread `thread` of `num_threads`: the
/// thread takes its equal share of the vertex range (the last thread also
/// takes the remainder) and greedily packs consecutive scopes, by expected
/// size, into bins of ~num_edges/num_bins. Enumerates the thread's vertices.
std::vector<MassBin> CombineThreadBins(const model::NoiseVector& noise,
                                       std::uint64_t num_edges, int thread,
                                       int num_threads, int num_bins);

/// Figure 6's repartitioning step (master): `gathered` holds every thread's
/// bins, in thread order, so the concatenation is sorted by vertex. Returns
/// `num_bins + 1` boundaries from 0 to `num_vertices`, cut where the
/// cumulative mass crosses each multiple of total/num_bins — what the
/// scatter step sends back.
std::vector<VertexId> RepartitionBins(
    const std::vector<std::vector<MassBin>>& gathered, VertexId num_vertices,
    int num_bins);

/// The Figure 6 protocol in one thread: CombineThreadBins for each of
/// `num_threads` threads, then RepartitionBins. O(|V|), so intended for
/// moderate scales.
std::vector<VertexId> PartitionByCombine(const model::NoiseVector& noise,
                                         std::uint64_t num_edges,
                                         int num_threads, int num_bins);

}  // namespace tg::core

#endif  // TRILLIONG_CORE_PARTITIONER_H_
