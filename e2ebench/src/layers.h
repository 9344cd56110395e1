// Per-layer measurement from outside the program: the traced query path
// calls each layer's public entry point in turn (Parse, Compile,
// ChooseOrder, ExecutePlan) in place of QueryEngine::Execute, under one
// span each, and folds the per-query counters into layer metrics.
#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "engine/executor.h"
#include "optimizer/optimizer.h"
#include "rdf/store_interface.h"
#include "reference.h"

namespace e2e {

/// Layer timings and counters of the traced queries of one run.
struct QueryLayers {
  std::vector<double> parse_us, compile_us, plan_ms, exec_ms, query_ms;
  std::vector<double> plan_ms_7p;  // planning of 7-pattern queries
  std::vector<double> qerror;      // joins only
  std::vector<double> scan_ms;     // direct store scans, per query
  // Per query, its fastest traced and its fastest untraced run (each
  // query runs traced in some rounds or replays and untraced in others).
  std::vector<double> traced_ms, untraced_ms;
  uint64_t queries = 0, sort_steps = 0, merge_join_steps = 0,
           hash_join_steps = 0, rows_scanned = 0, result_rows = 0,
           agg_groups = 0, exists_probes = 0, topk_pushdowns = 0;
  rdftx::ScanStats scan;

  /// Appends every query-layer metric (0 where the workload does not
  /// reach the layer). The direct scans count as epoch.scan_ms when the
  /// queried store is a live epoch, else as mvbt.scan_ms.
  void Emit(bool epoch_store, Outcome* out) const;
};

/// Runs `text` layer by layer. `optimizer` may be null (greedy order,
/// as the engine uses without one). Sets `*query_end_ns` to the clock
/// when the query itself ended. After that it times one direct
/// ScanPattern per compiled pattern on `store` and records the
/// optimizer's q-error on joins; a caller's latency that stops at
/// `*query_end_ns` leaves both out. Returns the query's result.
rdftx::Result<rdftx::engine::ResultSet> ExecuteTraced(
    const rdftx::engine::QueryEngine& engine,
    const rdftx::optimizer::QueryOptimizer* optimizer,
    const rdftx::TemporalStore& store, const rdftx::Dictionary& dict,
    const std::string& text, uint32_t request, Tracer* tracer,
    QueryLayers* layers, int64_t* query_end_ns);

/// Property check across two index paths: the coalesced (triple, run)
/// pairs of one unbound scan (SPO index) must equal the sum over scans
/// bound to each of `predicates` (POS index), and both must equal
/// `expected`, the generator's coalesced count. Empty when they agree.
std::string CheckIndexPaths(const rdftx::TemporalStore& store,
                            std::vector<rdftx::TermId> predicates, uint64_t expected);

/// The program's answer rows in the reference's cell form: an empty
/// term cell is an unbound OPTIONAL variable.
std::vector<RefRow> ResultRows(const rdftx::engine::ResultSet& rs);

}  // namespace e2e

#endif  // E2EBENCH_LAYERS_H_
