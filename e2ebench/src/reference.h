// Reference answers computed apart from the program: a brute-force
// evaluator for exactly the query templates of query_model.h, by nested
// loops over the generated triples coalesced per triple, and the checks
// that compare the program's answers with it.
#ifndef E2EBENCH_REFERENCE_H_
#define E2EBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "query_model.h"

namespace e2e {

/// A temporal element: sorted, disjoint, non-adjacent half-open runs.
using Runs = std::vector<std::pair<Day, Day>>;

Runs Coalesce(Runs runs);
Runs IntersectRuns(const Runs& a, const Runs& b);

/// Triples by term text, each with its coalesced temporal element.
class RefStore {
 public:
  /// Adds one validity interval [start, end) of a triple; end may be
  /// kOpenEnd. Repeated and overlapping intervals are merged later.
  void Add(const std::string& s, const std::string& p, const std::string& o,
           Day start, Day end);
  /// Coalesces every triple's intervals; call once after the last Add.
  void Finish();

  struct Triple {
    uint32_t s = 0, p = 0, o = 0;
    Runs runs;
  };
  const std::vector<Triple>& triples() const { return triples_; }
  /// Indices into triples() of the triples with predicate `p`.
  const std::vector<uint32_t>& WithPredicate(uint32_t p) const;
  /// Id of a term, or -1 when no triple mentions it.
  int64_t Id(const std::string& term) const;
  const std::string& Term(uint32_t id) const { return terms_[id]; }
  /// Latest event (start or closed end) of any triple: the engine's "now".
  Day last_event() const { return last_event_; }

 private:
  uint32_t Intern(const std::string& term);
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> terms_;
  std::unordered_map<uint64_t, size_t> pending_index_;  // packed ids -> slot
  std::vector<Triple> triples_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> by_predicate_;
  std::vector<uint32_t> none_;
  Day last_event_ = 0;
};

/// One answer cell: a term, a temporal element, or unbound.
struct RefCell {
  enum class Kind { kTerm, kTime, kUnbound };
  Kind kind = Kind::kTerm;
  std::string term;
  Runs runs;
};
using RefRow = std::vector<RefCell>;

/// The full answer of a query: distinct rows before ORDER BY / LIMIT.
struct RefAnswer {
  std::vector<std::string> columns;
  std::vector<RefRow> rows;
};

RefAnswer Evaluate(const RefStore& store, const QQuery& q);

/// Canonical encoding of a row; equal rows encode equally.
std::string RowKey(const RefRow& row);

/// Compares two cells the way the engine's ORDER BY does: time cells
/// run by run, terms numbers first (by value) then bytes.
int CompareCell(const RefCell& a, const RefCell& b);

/// Checks `got` (the program's rows, converted) against the full
/// reference answer. Unordered queries must match as sets, with no
/// duplicate rows. ORDER BY + LIMIT queries must return min(limit, n)
/// distinct rows of the answer, sorted by the key, with no answer row
/// whose key sorts strictly before the last returned one left out.
/// Returns an empty string when the answer is correct, else the reason.
std::string CheckAnswer(const QQuery& q, const RefAnswer& expected,
                        const std::vector<RefRow>& got);

/// Row count a correct answer has.
size_t ExpectedRowCount(const QQuery& q, const RefAnswer& expected);

}  // namespace e2e

#endif  // E2EBENCH_REFERENCE_H_
