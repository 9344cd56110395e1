// The benchmark's own description of the SPARQLt queries it sends: a
// small structured model covering exactly the query templates the
// workloads use. Queries are rendered from the model to text for the
// engine, and the reference evaluator (reference.h) reads the model, so
// the reference answers never pass through the program's parser.
#ifndef E2EBENCH_QUERY_MODEL_H_
#define E2EBENCH_QUERY_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

/// Day number since 1800-01-01, the program's chronon convention.
using Day = uint32_t;
inline constexpr Day kOpenEnd = 0xFFFFFFFFu;

/// Calendar conversions, written here so query windows do not depend on
/// the program's date code.
Day DayFromYmd(int year, unsigned month, unsigned day);
std::string FormatDay(Day d);                  // YYYY-MM-DD
std::optional<Day> ParseDay(const std::string& text);
int YearOfDay(Day d);

/// One position of a pattern: a variable (name without '?') or a term.
struct Slot {
  bool var = false;
  std::string text;
};

/// A graph pattern {s p o t}; the time position is a variable or a day.
struct QPattern {
  Slot s, p, o;
  bool t_var = true;
  std::string t_name = "t";
  Day t_at = 0;
};

/// A temporal FILTER of one of the generator shapes: YEAR(?v) = y,
/// ?v >= lo && ?v <= hi, or ?v <= hi. Every shape is a window
/// [lo, hi] of days (inclusive).
struct QFilter {
  enum class Kind { kYear, kRange, kUpTo };
  Kind kind = Kind::kRange;
  std::string var = "t";
  int year = 0;
  Day lo = 0;
  Day hi = 0;
};

struct QAggregate {
  enum class Fn { kCount, kDcount };
  Fn fn = Fn::kCount;
  std::string arg;
  std::string alias;
};

/// One query of the benchmark. A main block of patterns and filters,
/// optionally one OPTIONAL group or one FILTER [NOT] EXISTS group, then
/// aggregation or projection, then ORDER BY / LIMIT.
struct QQuery {
  std::string shape;  // template name, reported per class
  std::vector<std::string> select;
  std::vector<QPattern> patterns;
  std::vector<QFilter> filters;
  std::vector<QPattern> optional;
  int exists = 0;  // +1 EXISTS, -1 NOT EXISTS, 0 none
  std::vector<QPattern> exists_group;
  std::vector<std::string> group_by;
  std::vector<QAggregate> aggregates;
  std::string order_var;
  bool order_desc = false;
  int64_t limit = -1;
};

/// SPARQLt text of a query.
std::string Render(const QQuery& q);

/// Reads the text of one of the workload generator's query templates
/// (selections, two-pattern joins, star joins) back into the model.
/// Returns nullopt for text outside those templates. Callers check that
/// Render() of the result reproduces the text exactly.
std::optional<QQuery> ParseTemplate(const std::string& text);

}  // namespace e2e

#endif  // E2EBENCH_QUERY_MODEL_H_
