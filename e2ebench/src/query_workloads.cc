// The two query workloads: a closed loop of QueryEngine::Execute(text)
// calls on one client thread, over Wikipedia-shaped (wiki-mixed) or
// GovTrack-shaped (govtrack-analytics) data, with the optimizer
// installed the way RdfTx installs it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>

#include "common.h"
#include "engine/executor.h"
#include "ingest.h"
#include "layers.h"
#include "pace.h"
#include "optimizer/optimizer.h"
#include "query_model.h"
#include "rdf/temporal_graph.h"
#include "reference.h"
#include "util/rng.h"
#include "workload/govtrack_gen.h"
#include "workload/query_gen.h"
#include "workload/wikipedia_gen.h"

namespace e2e {
namespace {

using rdftx::Rng;
using rdftx::workload::Dataset;

/// The program as RdfTx::Finish builds it, with the pieces kept apart
/// so the benchmark can time them and call each layer directly.
struct System {
  rdftx::Dictionary dict;
  rdftx::TemporalGraph graph;
  rdftx::optimizer::CharSetCatalog catalog;
  std::unique_ptr<rdftx::optimizer::TemporalHistogram> histogram;
  std::unique_ptr<rdftx::optimizer::QueryOptimizer> optimizer;
  std::unique_ptr<rdftx::engine::QueryEngine> engine;
};

RefStore BuildReference(const Dataset& ds, const rdftx::Dictionary& dict) {
  RefStore ref;
  for (const rdftx::TemporalTriple& tt : ds.triples) {
    ref.Add(dict.Decode(tt.triple.s), dict.Decode(tt.triple.p),
            dict.Decode(tt.triple.o), tt.iv.start, tt.iv.end);
  }
  ref.Finish();
  return ref;
}

// --- wiki-mixed ---------------------------------------------------------

std::vector<QQuery> WikiQueries(const Dataset& ds, const rdftx::Dictionary& dict,
                                uint64_t seed, std::string* error) {
  Rng rng(seed * 7919 + 17);
  std::vector<std::string> texts =
      rdftx::workload::MakeSelectionQueries(ds, dict, 1000, &rng);
  for (std::string& q : rdftx::workload::MakeJoinQueries(ds, dict, 60, &rng)) {
    texts.push_back(std::move(q));
  }
  for (auto& [size, qs] : rdftx::workload::MakeComplexQueries(ds, dict, 3, 7, 12, &rng)) {
    for (std::string& q : qs) texts.push_back(std::move(q));
  }
  // 12 more 7-pattern stars, so the slowest 2% of the queries are one
  // class of similar queries.
  auto sevens = rdftx::workload::MakeComplexQueries(ds, dict, 7, 7, 12, &rng);
  for (std::string& q : sevens[7]) texts.push_back(std::move(q));
  std::vector<QQuery> out;
  for (const std::string& text : texts) {
    auto q = ParseTemplate(text);
    if (!q || Render(*q) != text) {
      *error = "query outside the benchmark's templates: " + text;
      return {};
    }
    out.push_back(std::move(*q));
  }
  return out;
}

// --- govtrack-analytics ---------------------------------------------------

QPattern Pat(const std::string& s, const std::string& p, const std::string& o,
             const std::string& t) {
  auto slot = [](const std::string& x) {
    return x[0] == '?' ? Slot{true, x.substr(1)} : Slot{false, x};
  };
  QPattern out;
  out.s = slot(s);
  out.p = slot(p);
  out.o = slot(o);
  out.t_name = t;
  return out;
}

/// Single-pattern analytics over the GovTrack shape: wide range
/// selections, GROUP BY with COUNT / DCOUNT, ORDER BY ... LIMIT with and
/// without top-k pushdown, OPTIONAL, FILTER [NOT] EXISTS. The classes,
/// predicates and window lengths are fixed and cycled through, so every
/// seed gets the same mix; the seed draws the window positions.
std::vector<QQuery> GovtrackQueries(uint64_t seed) {
  Rng rng(seed * 104729 + 3);
  const Day first = DayFromYmd(1994, 1, 3), last = DayFromYmd(2016, 1, 4);
  // The i-th of n windows of a class starts at a random point of the
  // i-th of n equal slices of the history (stratified positions).
  auto window = [&](Day len, int i, int n) {
    const double slice = static_cast<double>(last - first - len) / n;
    QFilter f;
    f.lo = first + static_cast<Day>(slice * (i + static_cast<double>(rng.Uniform(1000)) / 1000));
    f.hi = f.lo + len - 1;
    return f;
  };
  auto vote = [](int i) {
    return std::string(i % 2 ? "voted_no_on_category_" : "voted_yes_on_category_") +
           std::to_string((i / 2) % 25);
  };
  const std::vector<std::string> state_like = {"member_of_house", "party", "represents_state",
                                               "term_in_office", "committee_member"};
  std::vector<QQuery> out;
  for (int i = 0; i < 880; ++i) {  // wide range selections
    QQuery q;
    q.shape = "range";
    q.select = {"s", "o", "t"};
    // Three in four over a vote category, one in four over a state-like
    // predicate (long-lived facts: every window meets thousands).
    const bool votes = i % 4 != 0;
    q.patterns = {Pat("?s", votes ? vote(i) : state_like[(i / 4) % state_like.size()], "?o", "t")};
    q.filters = {votes ? window(600, i, 880) : window(90, i / 4, 220)};
    out.push_back(q);
  }
  for (int i = 0; i < 60; ++i) {  // ORDER BY + LIMIT behind a FILTER: no pushdown
    QQuery q;
    q.shape = "topk-sort";
    q.select = {"s", "o"};
    q.patterns = {Pat("?s", i % 2 ? "cosponsor_of" : "sponsor_of", "?o", "t")};
    q.filters = {window(360, i, 60)};
    q.order_var = "o";
    q.limit = 20;
    out.push_back(q);
  }
  for (int i = 0; i < 16; ++i) {  // ORDER BY + LIMIT, top-k pushdown eligible
    QQuery q;
    q.shape = "topk-pushdown";
    q.select = {"s", "o", "t"};
    q.patterns = {Pat("?s", vote(i * 3), "?o", "t")};
    q.order_var = "o";
    q.order_desc = true;
    q.limit = 20;
    out.push_back(q);
  }
  const std::vector<std::string> grouped = {"party", "represents_state", "committee_member"};
  for (int i = 0; i < 24; ++i) {  // GROUP BY + COUNT
    QQuery q;
    q.shape = "group-count";
    q.select = {"o"};
    q.aggregates = {{QAggregate::Fn::kCount, "s", "n"}};
    q.patterns = {Pat("?s", grouped[i % grouped.size()], "?o", "t")};
    q.filters = {window(360, i, 24)};
    q.group_by = {"o"};
    out.push_back(q);
  }
  // GROUP BY + DCOUNT: the slowest class, 2% of the queries.
  for (int i = 0; i < 20; ++i) {
    QQuery q;
    q.shape = "group-dcount";
    q.select = {"s"};
    q.aggregates = {{QAggregate::Fn::kDcount, "t", "days"}};
    q.patterns = {Pat("?s", "committee_chair", "?o", "t")};
    q.filters = {window(60, i, 20)};
    q.group_by = {"s"};
    out.push_back(q);
  }
  for (int i = 0; i < 12; ++i) {  // OPTIONAL
    QQuery q;
    q.shape = "optional";
    q.select = {"s", "o", "c"};
    q.patterns = {Pat("?s", i % 2 ? "represents_state" : "party", "?o", "t")};
    q.filters = {window(120, i, 12)};
    q.optional = {Pat("?s", "committee_chair", "?c", "t2")};
    out.push_back(q);
  }
  for (int i = 0; i < 12; ++i) {  // FILTER [NOT] EXISTS
    QQuery q;
    q.shape = "exists";
    q.select = {"s", "o"};
    q.patterns = {Pat("?s", (i / 2) % 2 ? "member_of_house" : "party", "?o", "t")};
    q.filters = {window(120, i, 12)};
    q.exists = i % 2 ? -1 : 1;
    q.exists_group = {Pat("?s", "committee_chair", "?c", "t")};
    out.push_back(q);
  }
  return out;
}

// --- the shared loop ---------------------------------------------------------

Outcome RunQueryWorkload(const RunOptions& opt, size_t triples, bool wiki) {
  Outcome out;
  Tracer tracer(opt.trace);
  System sys;
  // Inputs, generated from the seed; not part of the set-up time.
  Dataset ds;
  if (wiki) {
    rdftx::workload::WikipediaOptions wo;
    wo.num_triples = triples;
    wo.seed = opt.seed;
    ds = rdftx::workload::GenerateWikipedia(&sys.dict, wo);
  } else {
    rdftx::workload::GovTrackOptions go;
    go.num_triples = triples;
    go.seed = opt.seed;
    ds = rdftx::workload::GenerateGovTrack(&sys.dict, go);
  }
  std::string error;
  std::vector<QQuery> queries = wiki ? WikiQueries(ds, sys.dict, opt.seed, &error)
                                     : GovtrackQueries(opt.seed);
  if (!error.empty()) {
    out.Wrong(error);
    return out;
  }

  Note("inputs generated");
  // Set-up: index load, then catalog, histogram and optimizer build,
  // stated at the reference pace of the moments before and after it.
  Pace pace;
  pace.Burst();
  double setup_factor = pace.Factor();
  const int64_t t0 = NowNs();
  int span = tracer.Begin("setup.load", 0);
  const rdftx::Status loaded = sys.graph.Load(ds.triples);
  tracer.End(span);
  const int64_t t1 = NowNs();
  span = tracer.Begin("setup.stats", 0);
  sys.catalog.Build(ds.triples);
  const size_t raw_bytes = ds.triples.size() * sizeof(rdftx::TemporalTriple);
  sys.histogram = std::make_unique<rdftx::optimizer::TemporalHistogram>(
      &sys.catalog, ds.triples, raw_bytes);
  sys.optimizer = std::make_unique<rdftx::optimizer::QueryOptimizer>(&sys.catalog,
                                                                     sys.histogram.get());
  rdftx::engine::EngineOptions eopts;
  eopts.num_threads = 1;
  sys.engine = std::make_unique<rdftx::engine::QueryEngine>(&sys.graph, &sys.dict, eopts);
  sys.engine->set_join_order_provider(sys.optimizer->AsProvider());
  tracer.End(span);
  const int64_t t2 = NowNs();
  pace.Burst();
  setup_factor = (setup_factor + pace.Factor()) / 2;
  if (!loaded.ok()) {
    out.Wrong("Load failed: " + loaded.ToString());
    return out;
  }
  const double index_bytes = static_cast<double>(
      sys.graph.MemoryUsage() + sys.histogram->MemoryUsage() + sys.dict.MemoryUsage());

  // Untimed warm-up: every distinct query once, checked in full against
  // the reference; its verified row count then checks the timed runs.
  Note("set-up done");
  const RefStore ref = BuildReference(ds, sys.dict);
  {
    uint64_t gen_runs = 0;
    for (const RefStore::Triple& t : ref.triples()) gen_runs += t.runs.size();
    const std::string why = CheckIndexPaths(sys.graph, ds.predicates, gen_runs);
    if (!why.empty()) out.Wrong(why);
  }
  Note("index paths checked");
  std::vector<std::string> texts;
  std::unordered_map<std::string, size_t> expected_rows;
  for (const QQuery& q : queries) {
    texts.push_back(Render(q));
    if (expected_rows.count(texts.back())) continue;
    auto rs = sys.engine->Execute(texts.back());
    if (!rs.ok()) {
      out.Wrong("query failed in warm-up: " + texts.back() + ": " + rs.status().ToString());
      expected_rows[texts.back()] = 0;
      continue;
    }
    const RefAnswer ans = Evaluate(ref, q);
    const std::string why = CheckAnswer(q, ans, ResultRows(*rs));
    if (!why.empty()) out.Wrong("`" + texts.back() + "`: " + why);
    expected_rows[texts.back()] = ExpectedRowCount(q, ans);
  }

  Note("warm-up checked");
  // The timed closed loop: whole rounds over the query set, each round
  // in an order drawn from the seed. query_qps and the percentiles count
  // each query with its fastest round (see README). Each round also
  // carries one replay of the durable write path on the same data shape,
  // its writes in 20 bursts spread over the round.
  const size_t rounds = std::max<size_t>(2, (3 * static_cast<size_t>(opt.seconds) + 5) / 10);
  IngestConfig icfg;
  icfg.writes = 6000;
  icfg.checkpoint_every = 100;
  DurablePhase ingest(ds, sys.dict, icfg, opt, &pace, &tracer, &out);
  Rng order_rng(opt.seed * 31 + 7);
  std::vector<size_t> order(texts.size());
  // Per query, its fastest untraced [0] and traced [1] run.
  std::vector<double> best_ms[2];
  for (auto& b : best_ms) b.assign(texts.size(), std::numeric_limits<double>::infinity());
  QueryLayers layers;
  uint32_t request = 0;
  const size_t burst = std::max<size_t>(1, texts.size() / 20);
  for (size_t r = 0; r < rounds; ++r) {
    if (!ingest.BeginReplay()) return out;
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[order_rng.Uniform(i)]);
    size_t done = 0, written = 0;
    for (size_t k : order) {
      const std::string& text = texts[k];
      // In the traced run each query is traced in every other round, so
      // each has a traced and an untraced latency.
      const bool traced = tracer.on() && (k + r) % 2 == 0;
      ++out.attempted;
      const int64_t a = NowNs();
      int64_t query_end_ns = 0;
      auto rs = traced ? ExecuteTraced(*sys.engine, sys.optimizer.get(), sys.graph, sys.dict,
                                       text, request, &tracer, &layers, &query_end_ns)
                       : sys.engine->Execute(text);
      const double ms =
          static_cast<double>((traced ? query_end_ns : NowNs()) - a) / 1e6 * pace.Factor();
      pace.MaybeProbe();
      ++request;
      if (++done % burst == 0) {
        const size_t due = done * ingest.writes() / texts.size();
        ingest.Step(due - written);
        written = due;
      }
      if (!rs.ok()) {
        ++out.failed;
        continue;
      }
      best_ms[traced][k] = std::min(best_ms[traced][k], ms);
      if (rs->rows.size() != expected_rows[text]) {
        out.Wrong("`" + text + "` returned " + std::to_string(rs->rows.size()) +
                  " rows, verified " + std::to_string(expected_rows[text]));
      }
    }
    ingest.EndReplay();
  }
  Note("timed loop done");
  pace.Log();
  std::fprintf(stderr, "e2ebench:   set-up pace factor %.3f\n", setup_factor);
  std::vector<double> latency_ms, traced_ms;
  std::map<std::string, std::vector<double>> by_shape;  // for the log
  for (size_t k = 0; k < texts.size(); ++k) {
    if (std::isfinite(best_ms[0][k])) latency_ms.push_back(best_ms[0][k]);
    if (std::isfinite(best_ms[1][k])) traced_ms.push_back(best_ms[1][k]);
    const double ms = std::min(best_ms[0][k], best_ms[1][k]);
    if (std::isfinite(ms)) {
      by_shape[queries[k].shape + "/" + std::to_string(queries[k].patterns.size())].push_back(ms);
    }
  }
  layers.traced_ms = traced_ms;
  layers.untraced_ms = latency_ms;
  for (const auto& [shape, v] : by_shape) {
    std::fprintf(stderr, "e2ebench:   %-18s n=%-5zu p50=%9.3f ms  p99=%9.3f ms  total=%7.3f s\n",
                 shape.c_str(), v.size(), Percentile(v, 50), Percentile(v, 99), Sum(v) / 1e3);
  }

  if (!opt.trace) {
    out.Add("setup_s", static_cast<double>(t2 - t0) / 1e9 * setup_factor, "s");
    out.Add("query_qps", static_cast<double>(latency_ms.size()) / (Sum(latency_ms) / 1e3),
            "queries/s");
    out.Add("query_p50_ms", Percentile(latency_ms, 50), "ms");
    out.Add("query_p95_ms", Percentile(latency_ms, 95), "ms");
    out.Add("index_bytes", index_bytes, "bytes");
  } else {
    layers.Emit(false, &out);
    out.Add("setup.load_s", static_cast<double>(t1 - t0) / 1e9, "s");
    out.Add("setup.stats_s", static_cast<double>(t2 - t1) / 1e9, "s");
    out.Add("optimizer.histogram_bytes", static_cast<double>(sys.histogram->MemoryUsage()), "bytes");
    out.Add("dict.bytes", static_cast<double>(sys.dict.MemoryUsage()), "bytes");
  }
  ingest.Finish();
  if (opt.trace) {
    tracer.WriteJson(opt.work_dir + "/trace-" + opt.workload + "-" +
                     std::to_string(opt.seed) + ".json");
  }
  return out;
}

}  // namespace

Outcome RunWikiMixed(const RunOptions& opt) { return RunQueryWorkload(opt, 232000, true); }

Outcome RunGovtrackAnalytics(const RunOptions& opt) {
  return RunQueryWorkload(opt, 400000, false);
}

Outcome RunLiveIngest(const RunOptions& opt) {
  Outcome out;
  Tracer tracer(opt.trace);
  rdftx::Dictionary dict;
  rdftx::workload::WikipediaOptions wo;
  wo.num_triples = 100000;
  wo.seed = opt.seed;
  const Dataset ds = rdftx::workload::GenerateWikipedia(&dict, wo);
  Pace pace;
  IngestConfig cfg;
  cfg.writes = 20000 * static_cast<size_t>(opt.seconds) / 10;
  cfg.read_every = 5;
  cfg.checkpoint_every = cfg.writes / 40;
  DurablePhase ingest(ds, dict, cfg, opt, &pace, &tracer, &out);
  // Three replays, as the query workloads run three rounds at
  // --seconds 10.
  for (int r = 0; r < 3; ++r) {
    if (!ingest.BeginReplay()) return out;
    ingest.EndReplay();
  }
  pace.Log();
  ingest.Finish();
  if (opt.trace) {
    tracer.WriteJson(opt.work_dir + "/trace-" + opt.workload + "-" +
                     std::to_string(opt.seed) + ".json");
  }
  return out;
}

}  // namespace e2e
