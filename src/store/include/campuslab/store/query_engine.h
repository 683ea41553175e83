// Segment-parallel query execution.
//
// The executor takes a pinned StoreSnapshot and fans scan work out
// across a util::WorkPool — one task per segment, index pre-filter per
// sealed segment, results merged back in ingest order — so a query's
// wall clock is bounded by its largest segment, not by the store. The
// whole thing runs lock-free against the snapshot and therefore fully
// concurrent with ingest() and retention (see snapshot.h for why).
//
// Determinism: for the same snapshot and query, the executor returns
// bit-identical rows in identical order at every thread count —
// per-segment scans are independent and the merge is by segment
// position, so scheduling can't reorder anything. That property is
// what the concurrency tests pin (parallel == quiesced serial).
#pragma once

#include <cstdint>
#include <vector>

#include "campuslab/store/aggregate.h"
#include "campuslab/store/query_result.h"
#include "campuslab/util/work_pool.h"

namespace campuslab::store {

/// Evaluate `q` against `snapshot`, fanning segment scans over `pool`
/// (nullptr or a 1-thread pool = serial on the calling thread). Rows
/// come back in ingest order; `q.limit` caps them.
QueryResult execute_query(StoreSnapshot snapshot, const FlowQuery& q,
                          util::WorkPool* pool);

/// Group-by aggregation over every flow matching `q` (the query limit
/// is ignored: aggregation consumes all matches). top_k > 0 keeps only
/// the K heaviest rows by bytes.
AggregateResult execute_aggregate(StoreSnapshot snapshot,
                                  const FlowQuery& q, GroupBy group_by,
                                  std::size_t top_k, util::WorkPool* pool);

/// Resumable serial scan — the StoreShard chunk primitive. Returns up
/// to `max_rows` flows matching `q` with id > after_id, copied out by
/// value in ingest order (`q.limit` is ignored; the shard boundary caps
/// with max_rows). Requires ascending ids within each segment — the
/// store's assignment order, preserved by the cluster router. Segments
/// whose ids all lie at or below after_id are skipped outright: hot via
/// their last pinned row, cold via the zone map's id_hi without any
/// I/O. Sets *exhausted when the scan reached the snapshot's end.
std::vector<StoredFlow> scan_chunk(StoreSnapshot snapshot, const FlowQuery& q,
                                   std::uint64_t after_id,
                                   std::size_t max_rows, QueryStats* stats,
                                   bool* exhausted);

}  // namespace campuslab::store
