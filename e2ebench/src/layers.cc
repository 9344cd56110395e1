#include "layers.h"

#include <algorithm>
#include <unordered_map>

#include "engine/translate.h"
#include "sparqlt/parser.h"

namespace e2e {

using rdftx::engine::ResultSet;

rdftx::Result<ResultSet> ExecuteTraced(
    const rdftx::engine::QueryEngine& engine,
    const rdftx::optimizer::QueryOptimizer* optimizer,
    const rdftx::TemporalStore& store, const rdftx::Dictionary& dict,
    const std::string& text, uint32_t request, Tracer* tracer,
    QueryLayers* layers, int64_t* query_end_ns) {
  const int root = tracer->Begin("query", request);
  int span = tracer->Begin("sparqlt.parse", request);
  auto query = rdftx::sparqlt::Parse(text);
  layers->parse_us.push_back(static_cast<double>(tracer->End(span)) / 1e3);
  if (!query.ok()) {
    tracer->End(root);
    *query_end_ns = NowNs();
    return query.status();
  }
  span = tracer->Begin("engine.compile", request);
  auto cq = rdftx::engine::Compile(*query, dict);
  layers->compile_us.push_back(static_cast<double>(tracer->End(span)) / 1e3);
  if (!cq.ok()) {
    tracer->End(root);
    *query_end_ns = NowNs();
    return cq.status();
  }
  span = tracer->Begin("optimizer.choose_order", request);
  const std::vector<int> order =
      optimizer != nullptr ? optimizer->ChooseOrder(*cq)
                           : rdftx::engine::QueryEngine::GreedyOrder(*cq);
  const double plan_ms = static_cast<double>(tracer->End(span)) / 1e6;
  span = tracer->Begin("engine.execute_plan", request);
  auto rs = engine.ExecutePlan(*query, order);
  layers->exec_ms.push_back(static_cast<double>(tracer->End(span)) / 1e6);
  layers->query_ms.push_back(static_cast<double>(tracer->End(root)) / 1e6);
  *query_end_ns = NowNs();
  if (optimizer != nullptr) {
    layers->plan_ms.push_back(plan_ms);
    if (cq->patterns.size() == 7) layers->plan_ms_7p.push_back(plan_ms);
  }
  if (!rs.ok()) return rs;

  const rdftx::engine::ExecStats& st = rs->stats;
  ++layers->queries;
  layers->sort_steps += st.sort_steps;
  layers->merge_join_steps += st.merge_join_steps;
  layers->hash_join_steps += st.hash_join_steps;
  layers->rows_scanned += st.rows_scanned;
  layers->result_rows += rs->rows.size();
  layers->agg_groups += st.agg_groups;
  layers->exists_probes += st.exists_probes;
  layers->topk_pushdowns += st.topk_pushdowns;
  layers->scan.MergeFrom(st.scan);

  // Estimation quality on joins: the optimizer's estimate for the whole
  // pattern set against the rows the joins produced.
  if (optimizer != nullptr && cq->patterns.size() > 1) {
    const uint32_t all = (1u << cq->patterns.size()) - 1;
    const double est = std::max(1.0, optimizer->EstimateSubsetCard(*cq, all));
    const double act = std::max<double>(1.0, static_cast<double>(st.join_output_rows));
    layers->qerror.push_back(std::max(est / act, act / est));
  }

  // The store layer alone: one direct scan per compiled pattern.
  span = tracer->Begin("store.scan", request);
  for (const auto& cp : cq->patterns) {
    if (cp.never_matches) continue;
    store.ScanPattern(cp.spec, [](const rdftx::Triple&, const rdftx::Interval&) {});
  }
  layers->scan_ms.push_back(static_cast<double>(tracer->End(span)) / 1e6);
  return rs;
}

std::vector<RefRow> ResultRows(const ResultSet& rs) {
  std::vector<RefRow> rows;
  rows.reserve(rs.rows.size());
  for (const auto& cells : rs.rows) {
    RefRow r;
    for (const auto& c : cells) {
      RefCell rc;
      if (c.is_time) {
        rc.kind = RefCell::Kind::kTime;
        for (const rdftx::Interval& iv : c.time.runs()) rc.runs.emplace_back(iv.start, iv.end);
      } else if (c.term.empty()) {
        rc.kind = RefCell::Kind::kUnbound;
      } else {
        rc.term = c.term;
      }
      r.push_back(std::move(rc));
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

namespace {

/// Coalesced (triple, run) pairs returned by one scan.
uint64_t CoalescedRuns(const rdftx::TemporalStore& store, const rdftx::PatternSpec& spec) {
  std::unordered_map<uint64_t, Runs> by_triple;
  store.ScanPattern(spec, [&](const rdftx::Triple& t, const rdftx::Interval& iv) {
    const uint64_t k = (static_cast<uint64_t>(t.s) << 42) |
                       (static_cast<uint64_t>(t.p) << 21) | t.o;
    by_triple[k].emplace_back(iv.start, iv.end);
  });
  uint64_t n = 0;
  for (auto& [k, runs] : by_triple) n += Coalesce(std::move(runs)).size();
  return n;
}

}  // namespace

std::string CheckIndexPaths(const rdftx::TemporalStore& store,
                            std::vector<rdftx::TermId> predicates, uint64_t expected) {
  const uint64_t spo = CoalescedRuns(store, rdftx::PatternSpec{});
  std::sort(predicates.begin(), predicates.end());
  predicates.erase(std::unique(predicates.begin(), predicates.end()), predicates.end());
  uint64_t pos = 0;
  for (rdftx::TermId p : predicates) {
    rdftx::PatternSpec spec;
    spec.p = p;
    pos += CoalescedRuns(store, spec);
  }
  if (spo != pos || spo != expected) {
    return "index paths disagree: SPO scan " + std::to_string(spo) + ", POS scans " +
           std::to_string(pos) + ", generator " + std::to_string(expected);
  }
  return "";
}

void QueryLayers::Emit(bool epoch_store, Outcome* out) const {
  const double q = queries > 0 ? static_cast<double>(queries) : 1.0;
  out->Add("sparqlt.parse_us", Mean(parse_us), "us");
  out->Add("engine.compile_us", Mean(compile_us), "us");
  out->Add("optimizer.plan_ms", Mean(plan_ms), "ms");
  const double traced = Sum(query_ms);
  out->Add("optimizer.plan_share", traced > 0 ? Sum(plan_ms) / traced : 0, "ratio");
  out->Add("optimizer.plan_ms_7p", Percentile(plan_ms_7p, 50), "ms");
  out->Add("optimizer.qerror_p50", Percentile(qerror, 50), "ratio");
  out->Add("optimizer.qerror_p90", Percentile(qerror, 90), "ratio");
  out->Add("engine.exec_ms", Mean(exec_ms), "ms");
  out->Add("engine.sort_steps", static_cast<double>(sort_steps) / q, "count");
  out->Add("engine.merge_join_steps", static_cast<double>(merge_join_steps) / q, "count");
  out->Add("engine.hash_join_steps", static_cast<double>(hash_join_steps) / q, "count");
  out->Add("engine.rows_scanned_per_result",
           result_rows > 0 ? static_cast<double>(rows_scanned) / static_cast<double>(result_rows) : 0,
           "ratio");
  out->Add("engine.agg_groups", static_cast<double>(agg_groups) / q, "count");
  out->Add("engine.exists_probes", static_cast<double>(exists_probes) / q, "count");
  out->Add("engine.topk_pushdowns", static_cast<double>(topk_pushdowns) / q, "count");
  out->Add("mvbt.scan_ms", epoch_store ? 0 : Mean(scan_ms), "ms");
  out->Add("epoch.scan_ms", epoch_store ? Mean(scan_ms) : 0, "ms");
  out->Add("mvbt.entries_decoded", static_cast<double>(scan.entries_decoded) / q, "count");
  out->Add("mvbt.leaves_visited", static_cast<double>(scan.leaves_visited) / q, "count");
  const uint64_t considered = scan.leaves_visited + scan.leaves_pruned;
  out->Add("mvbt.prune_ratio",
           considered > 0 ? static_cast<double>(scan.leaves_pruned) / static_cast<double>(considered) : 0,
           "ratio");
  const uint64_t lookups = scan.cache_hits + scan.cache_misses;
  out->Add("mvbt.cache_hit_ratio",
           lookups > 0 ? static_cast<double>(scan.cache_hits) / static_cast<double>(lookups) : 0,
           "ratio");
  out->Add("mvbt.cache_evictions", static_cast<double>(scan.cache_evictions) / q, "count");
  out->Add("trace.query_p50_ms", Percentile(traced_ms, 50), "ms");
  out->Add("trace.untraced_query_p50_ms", Percentile(untraced_ms, 50), "ms");
}

}  // namespace e2e
