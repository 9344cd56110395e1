#include "query_model.h"

#include <cctype>
#include <cstdio>

namespace e2e {
namespace {

// Days from civil (Howard Hinnant's algorithm), relative to 1970-01-01.
int64_t DaysFromCivil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

const int64_t kEpoch = DaysFromCivil(1800, 1, 1);

void CivilFromDay(Day day, int* y, unsigned* m, unsigned* d) {
  int64_t z = static_cast<int64_t>(day) + kEpoch + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = static_cast<int>(static_cast<int64_t>(yoe) + era * 400 + (*m <= 2));
}

bool IdentifierSafe(const std::string& term) {
  if (term.empty()) return false;
  for (char c : term) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == ':' || c == '/' || c == '#' || c == '.' || c == '-')) {
      return false;
    }
  }
  return true;
}

std::string RenderTerm(const std::string& term) {
  return IdentifierSafe(term) ? term : "\"" + term + "\"";
}

std::string RenderSlot(const Slot& s) {
  return s.var ? "?" + s.text : RenderTerm(s.text);
}

std::string RenderPattern(const QPattern& p) {
  return RenderSlot(p.s) + " " + RenderSlot(p.p) + " " + RenderSlot(p.o) +
         " " + (p.t_var ? "?" + p.t_name : FormatDay(p.t_at));
}

std::string RenderFilter(const QFilter& f) {
  const std::string v = "?" + f.var;
  switch (f.kind) {
    case QFilter::Kind::kYear:
      return "FILTER(YEAR(" + v + ") = " + std::to_string(f.year) + ")";
    case QFilter::Kind::kRange:
      return "FILTER(" + v + " >= " + FormatDay(f.lo) + " && " + v +
             " <= " + FormatDay(f.hi) + ")";
    case QFilter::Kind::kUpTo:
      return "FILTER(" + v + " <= " + FormatDay(f.hi) + ")";
  }
  return "";
}

std::string RenderGroup(const std::vector<QPattern>& ps) {
  std::string out = "{ ";
  for (size_t i = 0; i < ps.size(); ++i) {
    if (i > 0) out += " . ";
    out += RenderPattern(ps[i]);
  }
  return out + " }";
}

/// Cursor over query text for ParseTemplate.
class Reader {
 public:
  explicit Reader(const std::string& text) : s_(text) {}
  void SkipSpace() {
    while (i_ < s_.size() && s_[i_] == ' ') ++i_;
  }
  bool Eat(const std::string& lit) {
    SkipSpace();
    if (s_.compare(i_, lit.size(), lit) != 0) return false;
    i_ += lit.size();
    return true;
  }
  bool Peek(const std::string& lit) {
    SkipSpace();
    return s_.compare(i_, lit.size(), lit) == 0;
  }
  std::optional<std::string> Token() {
    SkipSpace();
    if (i_ >= s_.size()) return std::nullopt;
    std::string out;
    if (s_[i_] == '"') {
      const size_t close = s_.find('"', i_ + 1);
      if (close == std::string::npos) return std::nullopt;
      out = s_.substr(i_, close + 1 - i_);
      i_ = close + 1;
      return out;
    }
    while (i_ < s_.size() && s_[i_] != ' ' && s_[i_] != ')') {
      out += s_[i_++];
    }
    if (out.empty()) return std::nullopt;
    return out;
  }
  bool AtEnd() {
    SkipSpace();
    return i_ == s_.size();
  }

 private:
  const std::string& s_;
  size_t i_ = 0;
};

std::optional<Slot> SlotOf(const std::string& tok) {
  if (tok.empty()) return std::nullopt;
  if (tok[0] == '?') return Slot{true, tok.substr(1)};
  if (tok[0] == '"') return Slot{false, tok.substr(1, tok.size() - 2)};
  return Slot{false, tok};
}

std::optional<QFilter> ReadFilter(Reader* r) {
  QFilter f;
  if (r->Eat("YEAR(?")) {
    auto v = r->Token();
    if (!v || !r->Eat(")") || !r->Eat("=")) return std::nullopt;
    auto y = r->Token();
    if (!y || !r->Eat(")")) return std::nullopt;
    f.kind = QFilter::Kind::kYear;
    f.var = *v;
    f.year = std::atoi(y->c_str());
    f.lo = DayFromYmd(f.year, 1, 1);
    f.hi = DayFromYmd(f.year, 12, 31);
    return f;
  }
  auto v = r->Token();
  if (!v || (*v)[0] != '?') return std::nullopt;
  f.var = v->substr(1);
  if (r->Eat(">=")) {
    auto lo = r->Token();
    if (!lo || !r->Eat("&&")) return std::nullopt;
    auto v2 = r->Token();
    if (!v2 || *v2 != *v || !r->Eat("<=")) return std::nullopt;
    auto hi = r->Token();
    if (!hi || !r->Eat(")")) return std::nullopt;
    auto dlo = ParseDay(*lo), dhi = ParseDay(*hi);
    if (!dlo || !dhi) return std::nullopt;
    f.kind = QFilter::Kind::kRange;
    f.lo = *dlo;
    f.hi = *dhi;
    return f;
  }
  if (r->Eat("<=")) {
    auto hi = r->Token();
    if (!hi || !r->Eat(")")) return std::nullopt;
    auto dhi = ParseDay(*hi);
    if (!dhi) return std::nullopt;
    f.kind = QFilter::Kind::kUpTo;
    f.lo = 0;
    f.hi = *dhi;
    return f;
  }
  return std::nullopt;
}

}  // namespace

Day DayFromYmd(int year, unsigned month, unsigned day) {
  return static_cast<Day>(DaysFromCivil(year, month, day) - kEpoch);
}

std::string FormatDay(Day d) {
  int y = 0;
  unsigned m = 0, dd = 0;
  CivilFromDay(d, &y, &m, &dd);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u", y, m, dd);
  return buf;
}

std::optional<Day> ParseDay(const std::string& text) {
  int y = 0;
  unsigned m = 0, d = 0;
  char tail = 0;
  if (std::sscanf(text.c_str(), "%d-%u-%u%c", &y, &m, &d, &tail) != 3) {
    return std::nullopt;
  }
  if (m < 1 || m > 12 || d < 1 || d > 31) return std::nullopt;
  return DayFromYmd(y, m, d);
}

int YearOfDay(Day d) {
  int y = 0;
  unsigned m = 0, dd = 0;
  CivilFromDay(d, &y, &m, &dd);
  return y;
}

std::string Render(const QQuery& q) {
  std::string out = "SELECT";
  for (const std::string& v : q.select) out += " ?" + v;
  for (const QAggregate& a : q.aggregates) {
    out += std::string(" (") +
           (a.fn == QAggregate::Fn::kCount ? "COUNT" : "DCOUNT") + "(?" +
           a.arg + ") AS ?" + a.alias + ")";
  }
  std::vector<std::string> items;
  for (const QPattern& p : q.patterns) items.push_back(RenderPattern(p));
  for (const QFilter& f : q.filters) items.push_back(RenderFilter(f));
  if (!q.optional.empty()) items.push_back("OPTIONAL " + RenderGroup(q.optional));
  if (q.exists != 0) {
    items.push_back(std::string(q.exists < 0 ? "FILTER NOT EXISTS " :
                                               "FILTER EXISTS ") +
                    RenderGroup(q.exists_group));
  }
  out += " { ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += " . ";
    out += items[i];
  }
  // The star-join template ends its block with a dangling " ." — the
  // generator's text, kept so the round trip is exact.
  out += q.shape == "star" ? " . }" : " }";
  if (!q.group_by.empty()) {
    out += " GROUP BY";
    for (const std::string& v : q.group_by) out += " ?" + v;
  }
  if (!q.order_var.empty()) {
    out += " ORDER BY " +
           (q.order_desc ? "DESC(?" + q.order_var + ")" : "?" + q.order_var);
  }
  if (q.limit >= 0) out += " LIMIT " + std::to_string(q.limit);
  return out;
}

std::optional<QQuery> ParseTemplate(const std::string& text) {
  Reader r(text);
  QQuery q;
  if (!r.Eat("SELECT")) return std::nullopt;
  while (!r.Peek("{")) {
    auto v = r.Token();
    if (!v || (*v)[0] != '?') return std::nullopt;
    q.select.push_back(v->substr(1));
  }
  r.Eat("{");
  bool dangling_dot = false;
  while (!r.Eat("}")) {
    if (r.AtEnd()) return std::nullopt;
    if (r.Eat("FILTER(")) {
      auto f = ReadFilter(&r);
      if (!f) return std::nullopt;
      q.filters.push_back(*f);
    } else {
      QPattern p;
      auto s = r.Token(), pr = r.Token(), o = r.Token(), t = r.Token();
      if (!s || !pr || !o || !t) return std::nullopt;
      auto ss = SlotOf(*s), ps = SlotOf(*pr), os = SlotOf(*o);
      if (!ss || !ps || !os) return std::nullopt;
      p.s = *ss;
      p.p = *ps;
      p.o = *os;
      if ((*t)[0] == '?') {
        p.t_name = t->substr(1);
      } else {
        auto d = ParseDay(*t);
        if (!d) return std::nullopt;
        p.t_var = false;
        p.t_at = *d;
      }
      q.patterns.push_back(std::move(p));
    }
    dangling_dot = r.Eat(".");
  }
  if (!r.AtEnd() || q.patterns.empty()) return std::nullopt;
  // Shape names: the generator's templates, told apart by structure.
  if (q.patterns.size() == 1) {
    q.shape = "selection";
  } else if (dangling_dot) {
    q.shape = "star";
  } else {
    q.shape = "join2";
  }
  return q;
}

}  // namespace e2e
