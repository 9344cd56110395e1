// Shows that the benchmark's correctness checks accept right answers
// and reject perturbed ones: a dropped row, a shifted interval endpoint,
// a duplicate or foreign row, an off-by-one count, a wrong order, a
// left-out top-k row, a wrong live scan or recovered LSN, and index
// paths that disagree. Also checks the reference evaluator on answers
// worked out by hand. Exit code 0 when every case behaves.
//
//   cmake --build <build dir> --target e2ebench_checks_test
//   <build dir>/e2ebench_checks_test
#include <cstdio>
#include <string>
#include <vector>

#include "ingest.h"
#include "layers.h"
#include "query_model.h"
#include "reference.h"

namespace {

using namespace e2e;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// The check must pass on the right answer.
void Accepts(const QQuery& q, const RefAnswer& a, const std::vector<RefRow>& got,
             const std::string& what) {
  const std::string why = CheckAnswer(q, a, got);
  Expect(why.empty(), what + (why.empty() ? "" : ": " + why));
}

/// The check must reject a perturbed answer.
void Rejects(const QQuery& q, const RefAnswer& a, const std::vector<RefRow>& got,
             const std::string& what) {
  const std::string why = CheckAnswer(q, a, got);
  Expect(!why.empty(), what + " is rejected" + (why.empty() ? "" : " (" + why + ")"));
}

RefCell Term(const std::string& t) {
  RefCell c;
  c.term = t;
  return c;
}

Day D(int y, unsigned m, unsigned d) { return DayFromYmd(y, m, d); }

RefStore Sample() {
  RefStore s;
  s.Add("UC", "president", "Yudof", D(2008, 6, 16), D(2013, 9, 30));
  s.Add("UC", "president", "Napolitano", D(2013, 9, 30), kOpenEnd);
  s.Add("UC", "budget", "22.7", D(2013, 1, 1), D(2014, 1, 1));
  s.Add("UC", "budget", "24.0", D(2014, 1, 1), D(2015, 1, 1));
  // Two adjacent intervals of one triple coalesce into one run.
  s.Add("UCLA", "president", "X", D(2010, 1, 1), D(2012, 1, 1));
  s.Add("UCLA", "president", "X", D(2012, 1, 1), D(2013, 1, 1));
  s.Add("UC", "chair", "Y", D(2009, 1, 1), D(2011, 1, 1));
  s.Finish();
  return s;
}

QQuery Q(const std::string& text) {
  // Hand-written queries in the generator's template grammar.
  auto q = ParseTemplate(text);
  if (!q) {
    std::printf("FAIL  template did not parse: %s\n", text.c_str());
    ++failures;
    return QQuery{};
  }
  return *q;
}

QPattern P(const std::string& s, const std::string& p, const std::string& o,
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

/// A store serving a fixed list of fragments; `drop_in_full_scan`
/// hides the first one from the unbound scan only, as a faulty index
/// path would.
class FakeStore : public rdftx::TemporalStore {
 public:
  std::vector<std::pair<rdftx::Triple, rdftx::Interval>> rows;
  bool drop_in_full_scan = false;

  rdftx::Status Load(const std::vector<rdftx::TemporalTriple>&) override {
    return rdftx::Status::OK();
  }
  using rdftx::TemporalStore::ScanPattern;
  void ScanPattern(const rdftx::PatternSpec& spec, const rdftx::ScanCallback& visit,
                   rdftx::ScanStats*) const override {
    const bool full = spec.s == rdftx::kInvalidTerm && spec.p == rdftx::kInvalidTerm &&
                      spec.o == rdftx::kInvalidTerm;
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto& [t, iv] = rows[i];
      if (full && drop_in_full_scan && i == 0) continue;
      if (spec.s != rdftx::kInvalidTerm && spec.s != t.s) continue;
      if (spec.p != rdftx::kInvalidTerm && spec.p != t.p) continue;
      if (spec.o != rdftx::kInvalidTerm && spec.o != t.o) continue;
      if (!iv.Overlaps(spec.time)) continue;
      visit(t, iv);
    }
  }
  size_t MemoryUsage() const override { return 0; }
  rdftx::Chronon last_time() const override { return 0; }
  std::string name() const override { return "fake"; }
};

void ReferenceAnswers(const RefStore& s) {
  {
    const QQuery q = Q("SELECT ?o { UC president ?o ?t . FILTER(YEAR(?t) = 2013) }");
    const RefAnswer a = Evaluate(s, q);
    Expect(a.rows.size() == 2, "YEAR filter: both 2013 presidents");
  }
  {
    const QQuery q = Q("SELECT ?t { UCLA president X ?t }");
    const RefAnswer a = Evaluate(s, q);
    Expect(a.rows.size() == 1 && a.rows[0][0].runs == Runs{{D(2010, 1, 1), D(2013, 1, 1)}},
           "adjacent intervals of one triple coalesce");
  }
  {
    const QQuery q = Q("SELECT ?t { UC president Napolitano ?t . FILTER(?t <= 2014-12-31) }");
    const RefAnswer a = Evaluate(s, q);
    Expect(a.rows.size() == 1 && a.rows[0][0].runs == Runs{{D(2013, 9, 30), D(2015, 1, 1)}},
           "a time variable is clipped to its FILTER window");
  }
  {
    QQuery q;
    q.select = {"s"};
    q.aggregates = {{QAggregate::Fn::kCount, "o", "n"}};
    q.patterns = {P("?s", "president", "?o", "t")};
    q.group_by = {"s"};
    const RefAnswer a = Evaluate(s, q);
    Expect(a.rows.size() == 2 && RowKey(a.rows[0]) == RowKey({Term("UC"), Term("2")}) &&
               RowKey(a.rows[1]) == RowKey({Term("UCLA"), Term("1")}),
           "GROUP BY + COUNT");
  }
  {
    QQuery q;
    q.select = {"o"};
    q.aggregates = {{QAggregate::Fn::kDcount, "t", "d"}};
    q.patterns = {P("UC", "president", "?o", "t")};
    q.group_by = {"o"};
    const RefAnswer a = Evaluate(s, q);
    // "now" is the latest event, 2015-01-01 (the budget's end).
    const auto yudof = std::to_string(D(2013, 9, 30) - D(2008, 6, 16));
    const auto napolitano = std::to_string(D(2015, 1, 1) - D(2013, 9, 30));
    Expect(a.rows.size() == 2 && RowKey(a.rows[0]) == RowKey({Term("Napolitano"), Term(napolitano)}) &&
               RowKey(a.rows[1]) == RowKey({Term("Yudof"), Term(yudof)}),
           "DCOUNT clamps the open run at the latest event");
  }
  {
    QQuery q;
    q.select = {"s", "o"};
    q.patterns = {P("?s", "president", "?o", "t")};
    q.exists = -1;
    q.exists_group = {P("?s", "budget", "?b", "t")};
    const RefAnswer a = Evaluate(s, q);
    Expect(a.rows.size() == 1 && RowKey(a.rows[0]) == RowKey({Term("UCLA"), Term("X")}),
           "NOT EXISTS correlates on the subject and the time");
  }
  {
    QQuery q;
    q.select = {"s", "o", "c"};
    q.patterns = {P("?s", "president", "?o", "t")};
    q.optional = {P("?s", "chair", "?c", "t2")};
    const RefAnswer a = Evaluate(s, q);
    RefCell unbound;
    unbound.kind = RefCell::Kind::kUnbound;
    bool has_unbound = false;
    for (const RefRow& r : a.rows) has_unbound |= RowKey(r) == RowKey({Term("UCLA"), Term("X"), unbound});
    Expect(a.rows.size() == 3 && has_unbound, "OPTIONAL keeps unmatched rows unbound");
  }
}

void PerturbedAnswers(const RefStore& s) {
  const QQuery q = Q("SELECT ?o1 ?o2 ?t { UC president ?o1 ?t . UC budget ?o2 ?t }");
  const RefAnswer a = Evaluate(s, q);
  Expect(a.rows.size() == 3, "temporal join: three overlapping pairs");
  std::vector<RefRow> got = a.rows;
  Accepts(q, a, got, "the reference answer");
  std::vector<RefRow> reversed(got.rbegin(), got.rend());
  Accepts(q, a, reversed, "the answer in another row order");
  {
    std::vector<RefRow> bad = got;
    bad.pop_back();
    Rejects(q, a, bad, "a dropped row");
  }
  {
    std::vector<RefRow> bad = got;
    bad[0][2].runs[0].second += 1;
    Rejects(q, a, bad, "an interval end shifted by one day");
  }
  {
    std::vector<RefRow> bad = got;
    bad[1][2].runs[0].first -= 1;
    Rejects(q, a, bad, "an interval start shifted by one day");
  }
  {
    std::vector<RefRow> bad = got;
    bad.push_back(got[0]);
    Rejects(q, a, bad, "a duplicated row");
  }
  {
    std::vector<RefRow> bad = got;
    bad[2][0] = Term("Kerr");
    Rejects(q, a, bad, "a wrong term");
  }

  QQuery count;
  count.select = {"s"};
  count.aggregates = {{QAggregate::Fn::kCount, "o", "n"}};
  count.patterns = {P("?s", "president", "?o", "t")};
  count.group_by = {"s"};
  const RefAnswer ca = Evaluate(s, count);
  {
    std::vector<RefRow> bad = ca.rows;
    bad[0][1] = Term("3");
    Rejects(count, ca, bad, "an aggregate count off by one");
  }
  Expect(ExpectedRowCount(q, a) == 3 && ExpectedRowCount(q, a) != got.size() + 1,
         "the timed loop's verified row count differs from an off-by-one count");

  QQuery top;
  top.select = {"s", "o"};
  top.patterns = {P("?s", "president", "?o", "t")};
  top.order_var = "o";
  top.limit = 2;
  const RefAnswer ta = Evaluate(s, top);  // Napolitano < X < Yudof
  const std::vector<RefRow> right = {{Term("UC"), Term("Napolitano")}, {Term("UCLA"), Term("X")}};
  Accepts(top, ta, right, "ORDER BY LIMIT top 2");
  Rejects(top, ta, {right[1], right[0]}, "top rows out of order");
  Rejects(top, ta, {right[0], {Term("UC"), Term("Yudof")}}, "a top row replaced by a later one");
  Rejects(top, ta, {right[0]}, "a top-k answer one row short");
  Rejects(top, ta, {right[0], right[1], {Term("UC"), Term("Yudof")}}, "a top-k answer one row long");
}

void LiveChecks() {
  using rdftx::Interval;
  using rdftx::Triple;
  Truth truth;
  truth.Apply(Triple{1, 2, 3}, true, 10);
  truth.Apply(Triple{1, 2, 4}, true, 12);
  truth.Apply(Triple{1, 2, 3}, false, 20);
  truth.Apply(Triple{1, 2, 3}, true, 25);
  FakeStore store;
  store.rows = {{Triple{1, 2, 3}, Interval(10, 20)},
                {Triple{1, 2, 4}, Interval(12, rdftx::kChrononNow)},
                {Triple{1, 2, 3}, Interval(25, rdftx::kChrononNow)}};
  Expect(truth.CompareFullScan(store).empty(), "live full scan: the applied history");
  {
    FakeStore bad = store;
    bad.rows.pop_back();
    Expect(!truth.CompareFullScan(bad).empty(), "live full scan: a dropped run is rejected");
  }
  {
    FakeStore bad = store;
    bad.rows[0].second.end = 21;
    Expect(!truth.CompareFullScan(bad).empty(), "live full scan: a shifted retract is rejected");
  }
  {
    FakeStore bad = store;
    bad.rows.push_back({Triple{5, 2, 3}, Interval(30, 31)});
    Expect(!truth.CompareFullScan(bad).empty(), "live full scan: a stray triple is rejected");
  }
  Expect(CheckRecoveredLsn(110, 10, 100).empty(), "recovered LSN = terms + acked writes");
  Expect(!CheckRecoveredLsn(109, 10, 100).empty(), "a recovered LSN one short is rejected");
  Expect(!CheckRecoveredLsn(111, 10, 100).empty(), "a recovered LSN one long is rejected");

  // Index paths: three coalesced runs over two predicates.
  FakeStore idx;
  idx.rows = {{Triple{1, 2, 3}, Interval(10, 20)},
              {Triple{1, 2, 3}, Interval(20, 30)},  // coalesces with the first
              {Triple{1, 7, 3}, Interval(5, 8)},
              {Triple{4, 7, 3}, Interval(5, 8)}};
  Expect(CheckIndexPaths(idx, {2, 7}, 3).empty(), "index paths agree with the generator");
  Expect(!CheckIndexPaths(idx, {2, 7}, 4).empty(), "a generator count off by one is rejected");
  {
    FakeStore bad = idx;
    bad.rows.erase(bad.rows.begin() + 2);
    bad.rows.insert(bad.rows.begin(), {Triple{1, 7, 3}, Interval(5, 8)});
    bad.drop_in_full_scan = true;
    Expect(!CheckIndexPaths(bad, {2, 7}, 3).empty(), "a run missing from the SPO path is rejected");
  }
}

void Templates() {
  for (const std::string text :
       {"SELECT ?t { UC president Janet_Napolitano ?t }",
        "SELECT ?o { UC budget ?o ?t . FILTER(YEAR(?t) = 2013) }",
        "SELECT ?p ?o { UC ?p ?o 2013-10-01 }",
        "SELECT ?s { ?s president X ?t . FILTER(?t >= 2010-01-01 && ?t <= 2011-03-04) }",
        "SELECT ?s ?o1 ?o2 ?t { ?s a ?o1 ?t . ?s b ?o2 ?t . FILTER(?t <= 2012-02-29) }",
        "SELECT ?s ?t { ?s a X ?t . ?s b ?o1 ?t . ?s c Y ?t . }"}) {
    auto q = ParseTemplate(text);
    Expect(q && Render(*q) == text, "template round trip: " + text);
  }
  Expect(!ParseTemplate("SELECT ?s { ?s a ?o ?t . FILTER(MONTH(?t) = 5) }"),
         "text outside the templates is refused");
  Expect(FormatDay(D(2016, 2, 29)) == "2016-02-29" && YearOfDay(D(1999, 12, 31)) == 1999,
         "calendar conversion");
}

}  // namespace

int main() {
  const RefStore s = Sample();
  ReferenceAnswers(s);
  PerturbedAnswers(s);
  LiveChecks();
  Templates();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
