#include "reference.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <unordered_set>

namespace e2e {
namespace {

Runs Clip(const Runs& runs, Day lo, Day hi_excl) {
  Runs out;
  for (const auto& [s, e] : runs) {
    const Day a = std::max(s, lo), b = std::min(e, hi_excl);
    if (a < b) out.emplace_back(a, b);
  }
  return out;
}

bool Contains(const Runs& runs, Day d) {
  for (const auto& [s, e] : runs) {
    if (s <= d && d < e) return true;
  }
  return false;
}

/// Half-open window of a time variable: the intersection of the
/// windows of every FILTER on it.
struct Window {
  Day lo = 0;
  Day hi = kOpenEnd;
};

/// Variables of one query, numbered.
class Vars {
 public:
  int Of(const std::string& name, bool is_time) {
    auto it = idx_.find(name);
    if (it != idx_.end()) return it->second;
    idx_.emplace(name, static_cast<int>(is_time_.size()));
    is_time_.push_back(is_time);
    return static_cast<int>(is_time_.size()) - 1;
  }
  int Find(const std::string& name) const {
    auto it = idx_.find(name);
    return it == idx_.end() ? -1 : it->second;
  }
  bool is_time(int v) const { return is_time_[static_cast<size_t>(v)]; }
  size_t size() const { return is_time_.size(); }

 private:
  std::unordered_map<std::string, int> idx_;
  std::vector<bool> is_time_;
};

/// One solution: a term id (or -1) per term variable and an element
/// (empty = unbound) per time variable, both indexed by variable.
struct Sol {
  std::vector<int64_t> term;
  std::vector<Runs> time;
};

struct Match {
  uint32_t triple = 0;
  Runs runs;
};

struct PatternPlan {
  int vs = -1, vp = -1, vo = -1, vt = -1;
  std::vector<Match> matches;
  /// Matches by subject, for the inner loops once ?s is bound.
  std::unordered_map<uint32_t, std::vector<uint32_t>> by_subject;
};

class BlockEvaluator {
 public:
  BlockEvaluator(const RefStore& store, Vars* vars) : store_(store), vars_(vars) {}

  /// All solutions of a block of patterns: nested loops over each
  /// pattern's matching triples, joined on shared variables (time
  /// variables intersect). `windows` clip time variables unless they
  /// are in `full`, in which case a triple qualifies when its whole
  /// element meets the window and keeps the whole element.
  std::vector<Sol> Solve(const std::vector<QPattern>& ps,
                         const std::unordered_map<int, Window>& windows,
                         const std::set<int>& full) {
    std::vector<PatternPlan> plans;
    for (const QPattern& p : ps) plans.push_back(Plan(p, windows, full));
    // Order: fewest matches first, then connected patterns by size.
    std::vector<int> order;
    std::set<int> bound;
    std::vector<bool> used(plans.size(), false);
    for (size_t k = 0; k < plans.size(); ++k) {
      int best = -1;
      bool best_conn = false;
      for (size_t i = 0; i < plans.size(); ++i) {
        if (used[i]) continue;
        const PatternPlan& pl = plans[i];
        bool conn = false;
        for (int v : {pl.vs, pl.vp, pl.vo, pl.vt}) conn |= v >= 0 && bound.count(v);
        if (best < 0 || (conn && !best_conn) ||
            (conn == best_conn &&
             pl.matches.size() < plans[static_cast<size_t>(best)].matches.size())) {
          best = static_cast<int>(i);
          best_conn = conn;
        }
      }
      used[static_cast<size_t>(best)] = true;
      order.push_back(best);
      const PatternPlan& pl = plans[static_cast<size_t>(best)];
      for (int v : {pl.vs, pl.vp, pl.vo, pl.vt}) {
        if (v >= 0) bound.insert(v);
      }
    }
    std::vector<Sol> out;
    Sol sol;
    sol.term.assign(vars_->size(), -1);
    sol.time.assign(vars_->size(), Runs{});
    Recurse(plans, order, 0, &sol, &out);
    return out;
  }

 private:
  PatternPlan Plan(const QPattern& p,
                   const std::unordered_map<int, Window>& windows,
                   const std::set<int>& full) {
    PatternPlan pl;
    int64_t cs = -1, cp = -1, co = -1;
    bool dead = false;
    auto slot = [&](const Slot& s, int* var, int64_t* id) {
      if (s.var) {
        *var = vars_->Of(s.text, false);
      } else {
        *id = store_.Id(s.text);
        dead |= *id < 0;
      }
    };
    slot(p.s, &pl.vs, &cs);
    slot(p.p, &pl.vp, &cp);
    slot(p.o, &pl.vo, &co);
    if (p.t_var) pl.vt = vars_->Of(p.t_name, true);
    if (dead) return pl;
    Window w;
    if (pl.vt >= 0) {
      auto it = windows.find(pl.vt);
      if (it != windows.end()) w = it->second;
    }
    const bool whole = pl.vt >= 0 && full.count(pl.vt) > 0;
    const auto& triples = store_.triples();
    // A constant predicate limits the loop to that predicate's triples.
    const std::vector<uint32_t>* only =
        cp >= 0 ? &store_.WithPredicate(static_cast<uint32_t>(cp)) : nullptr;
    const size_t n = only ? only->size() : triples.size();
    for (size_t j = 0; j < n; ++j) {
      const uint32_t i = only ? (*only)[j] : static_cast<uint32_t>(j);
      const RefStore::Triple& t = triples[i];
      if ((cs >= 0 && t.s != cs) || (cp >= 0 && t.p != cp) ||
          (co >= 0 && t.o != co)) {
        continue;
      }
      // A variable repeated within the pattern must bind one term.
      if (pl.vs >= 0 && pl.vs == pl.vp && t.s != t.p) continue;
      if (pl.vs >= 0 && pl.vs == pl.vo && t.s != t.o) continue;
      if (pl.vp >= 0 && pl.vp == pl.vo && t.p != t.o) continue;
      Match m;
      m.triple = i;
      if (pl.vt >= 0) {
        Runs clipped = Clip(t.runs, w.lo, w.hi);
        if (clipped.empty()) continue;
        m.runs = whole ? t.runs : std::move(clipped);
      } else if (!Contains(t.runs, p.t_at)) {
        continue;
      }
      pl.by_subject[t.s].push_back(static_cast<uint32_t>(pl.matches.size()));
      pl.matches.push_back(std::move(m));
    }
    return pl;
  }

  void Recurse(const std::vector<PatternPlan>& plans,
               const std::vector<int>& order, size_t depth, Sol* sol,
               std::vector<Sol>* out) {
    if (depth == order.size()) {
      out->push_back(*sol);
      return;
    }
    const PatternPlan& pl = plans[static_cast<size_t>(order[depth])];
    const auto& triples = store_.triples();
    // With the subject already bound, only that subject's matches can
    // join; otherwise every match is tried.
    const std::vector<uint32_t>* only = nullptr;
    if (pl.vs >= 0 && sol->term[static_cast<size_t>(pl.vs)] >= 0) {
      auto it = pl.by_subject.find(static_cast<uint32_t>(sol->term[static_cast<size_t>(pl.vs)]));
      if (it == pl.by_subject.end()) return;
      only = &it->second;
    }
    const size_t n = only ? only->size() : pl.matches.size();
    for (size_t j = 0; j < n; ++j) {
      const Match& m = pl.matches[only ? (*only)[j] : j];
      const RefStore::Triple& t = triples[m.triple];
      std::vector<int> bound_here;
      bool ok = true;
      auto bind = [&](int v, uint32_t id) {
        if (v < 0 || !ok) return;
        int64_t& cur = sol->term[static_cast<size_t>(v)];
        if (cur < 0) {
          cur = id;
          bound_here.push_back(v);
        } else if (cur != id) {
          ok = false;
        }
      };
      bind(pl.vs, t.s);
      bind(pl.vp, t.p);
      bind(pl.vo, t.o);
      Runs saved;
      bool time_bound_here = false;
      if (ok && pl.vt >= 0) {
        Runs& cur = sol->time[static_cast<size_t>(pl.vt)];
        if (cur.empty()) {
          cur = m.runs;
          time_bound_here = true;
        } else {
          Runs meet = IntersectRuns(cur, m.runs);
          if (meet.empty()) {
            ok = false;
          } else {
            saved = std::move(cur);
            cur = std::move(meet);
          }
        }
      }
      if (ok) Recurse(plans, order, depth + 1, sol, out);
      for (int v : bound_here) sol->term[static_cast<size_t>(v)] = -1;
      if (pl.vt >= 0 && ok) {
        Runs& cur = sol->time[static_cast<size_t>(pl.vt)];
        if (time_bound_here) {
          cur.clear();
        } else {
          cur = std::move(saved);
        }
      }
    }
  }

  const RefStore& store_;
  Vars* vars_;
};

/// Shared variables bound on both sides agree: terms equal, time
/// elements meet (the meet is written to `merged` when given).
bool Compatible(const Sol& a, const Sol& b, const Vars& vars, Sol* merged) {
  for (size_t v = 0; v < vars.size(); ++v) {
    if (vars.is_time(static_cast<int>(v))) {
      if (a.time[v].empty() || b.time[v].empty()) {
        if (merged && !b.time[v].empty()) merged->time[v] = b.time[v];
        continue;
      }
      Runs meet = IntersectRuns(a.time[v], b.time[v]);
      if (meet.empty()) return false;
      if (merged) merged->time[v] = std::move(meet);
    } else {
      if (a.term[v] < 0 || b.term[v] < 0) {
        if (merged && b.term[v] >= 0) merged->term[v] = b.term[v];
        continue;
      }
      if (a.term[v] != b.term[v]) return false;
    }
  }
  return true;
}

bool ParseNumeric(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

uint64_t TotalDays(const Runs& runs, Day now) {
  uint64_t days = 0;
  for (const auto& [s, e] : runs) {
    const Day end = std::min(e, now);
    if (end > s) days += end - s;
  }
  return days;
}

}  // namespace

Runs Coalesce(Runs runs) {
  std::sort(runs.begin(), runs.end());
  Runs out;
  for (const auto& r : runs) {
    if (r.first >= r.second) continue;
    if (!out.empty() && r.first <= out.back().second) {
      out.back().second = std::max(out.back().second, r.second);
    } else {
      out.push_back(r);
    }
  }
  return out;
}

Runs IntersectRuns(const Runs& a, const Runs& b) {
  Runs out;
  for (const auto& x : a) {
    for (const auto& y : b) {
      const Day s = std::max(x.first, y.first), e = std::min(x.second, y.second);
      if (s < e) out.emplace_back(s, e);
    }
  }
  return Coalesce(std::move(out));
}

uint32_t RefStore::Intern(const std::string& term) {
  auto [it, fresh] = ids_.emplace(term, static_cast<uint32_t>(terms_.size()));
  if (fresh) terms_.push_back(term);
  return it->second;
}

void RefStore::Add(const std::string& s, const std::string& p,
                   const std::string& o, Day start, Day end) {
  const uint64_t is = Intern(s), ip = Intern(p), io = Intern(o);
  if (is >= (1u << 21) || ip >= (1u << 21) || io >= (1u << 21)) std::abort();
  const uint64_t key = (is << 42) | (ip << 21) | io;
  auto [it, fresh] = pending_index_.emplace(key, triples_.size());
  if (fresh) {
    triples_.push_back(Triple{static_cast<uint32_t>(is),
                              static_cast<uint32_t>(ip),
                              static_cast<uint32_t>(io), {}});
  }
  triples_[it->second].runs.emplace_back(start, end);
}

void RefStore::Finish() {
  pending_index_.clear();
  std::vector<Triple> kept;
  kept.reserve(triples_.size());
  for (Triple& t : triples_) {
    t.runs = Coalesce(std::move(t.runs));
    if (t.runs.empty()) continue;
    for (const auto& [s, e] : t.runs) {
      last_event_ = std::max(last_event_, s);
      if (e != kOpenEnd) last_event_ = std::max(last_event_, e);
    }
    by_predicate_[t.p].push_back(static_cast<uint32_t>(kept.size()));
    kept.push_back(std::move(t));
  }
  triples_ = std::move(kept);
}

const std::vector<uint32_t>& RefStore::WithPredicate(uint32_t p) const {
  auto it = by_predicate_.find(p);
  return it == by_predicate_.end() ? none_ : it->second;
}

int64_t RefStore::Id(const std::string& term) const {
  auto it = ids_.find(term);
  return it == ids_.end() ? -1 : static_cast<int64_t>(it->second);
}

RefAnswer Evaluate(const RefStore& store, const QQuery& q) {
  Vars vars;
  // Number the main block's variables first, so projection order and
  // the aggregation dedup key are independent of the groups.
  for (const QPattern& p : q.patterns) {
    for (const Slot* s : {&p.s, &p.p, &p.o}) {
      if (s->var) vars.Of(s->text, false);
    }
    if (p.t_var) vars.Of(p.t_name, true);
  }
  const size_t main_vars = vars.size();
  for (const auto* group : {&q.optional, &q.exists_group}) {
    for (const QPattern& p : *group) {
      for (const Slot* s : {&p.s, &p.p, &p.o}) {
        if (s->var) vars.Of(s->text, false);
      }
      if (p.t_var) vars.Of(p.t_name, true);
    }
  }
  std::unordered_map<int, Window> windows;
  for (const QFilter& f : q.filters) {
    const int v = vars.Find(f.var);
    Window& w = windows[v];
    w.lo = std::max(w.lo, f.lo);
    w.hi = std::min<Day>(w.hi, f.hi + 1);
  }
  // Time variables the modifiers read keep their whole element.
  std::set<int> full;
  for (const QAggregate& a : q.aggregates) full.insert(vars.Find(a.arg));
  for (const std::string& g : q.group_by) full.insert(vars.Find(g));
  if (!q.order_var.empty()) full.insert(vars.Find(q.order_var));
  for (auto it = full.begin(); it != full.end();) {
    it = (*it < 0 || !vars.is_time(*it)) ? full.erase(it) : std::next(it);
  }

  BlockEvaluator eval(store, &vars);
  std::vector<Sol> sols = eval.Solve(q.patterns, windows, full);

  // OPTIONAL and EXISTS groups are solved on their own, then matched to
  // each main solution. Candidates are bucketed on the term variables
  // the group shares with the main block, which every solution binds.
  auto bucket = [&](const std::vector<Sol>& group) {
    std::vector<size_t> shared;
    for (size_t v = 0; v < main_vars; ++v) {
      if (vars.is_time(static_cast<int>(v))) continue;
      for (const Sol& g : group) {
        if (g.term[v] >= 0) shared.push_back(v);
        break;
      }
    }
    std::unordered_map<std::string, std::vector<const Sol*>> out;
    auto key = [shared](const Sol& s) {
      std::string k;
      for (size_t v : shared) k += std::to_string(s.term[v]) + ",";
      return k;
    };
    for (const Sol& g : group) out[key(g)].push_back(&g);
    return std::make_pair(out, key);
  };
  if (!q.optional.empty()) {
    const std::vector<Sol> group = eval.Solve(q.optional, {}, {});
    const auto [buckets, key] = bucket(group);
    std::vector<Sol> joined;
    for (const Sol& a : sols) {
      bool any = false;
      auto it = buckets.find(key(a));
      if (it != buckets.end()) {
        for (const Sol* b : it->second) {
          Sol merged = a;
          if (Compatible(a, *b, vars, &merged)) {
            joined.push_back(std::move(merged));
            any = true;
          }
        }
      }
      if (!any) joined.push_back(a);
    }
    sols = std::move(joined);
  }
  if (q.exists != 0) {
    const std::vector<Sol> group = eval.Solve(q.exists_group, {}, {});
    const auto [buckets, key] = bucket(group);
    std::vector<Sol> kept;
    for (const Sol& a : sols) {
      bool any = false;
      auto it = buckets.find(key(a));
      if (it != buckets.end()) {
        for (const Sol* b : it->second) {
          if (Compatible(a, *b, vars, nullptr)) {
            any = true;
            break;
          }
        }
      }
      if (any == (q.exists > 0)) kept.push_back(a);
    }
    sols = std::move(kept);
  }

  RefAnswer ans;
  auto cell_of = [&](const Sol& s, int v) {
    RefCell c;
    if (vars.is_time(v)) {
      c.kind = RefCell::Kind::kTime;
      c.runs = s.time[static_cast<size_t>(v)];
    } else if (s.term[static_cast<size_t>(v)] < 0) {
      c.kind = RefCell::Kind::kUnbound;
    } else {
      c.term = store.Term(static_cast<uint32_t>(s.term[static_cast<size_t>(v)]));
    }
    return c;
  };
  auto sol_key = [&](const Sol& s) {
    RefRow r;
    for (size_t v = 0; v < main_vars; ++v) r.push_back(cell_of(s, static_cast<int>(v)));
    return RowKey(r);
  };

  for (const std::string& v : q.select) ans.columns.push_back(v);
  if (!q.aggregates.empty()) {
    // Distinct solutions, grouped on the GROUP BY variables.
    std::unordered_set<std::string> seen;
    std::map<std::string, std::pair<RefRow, std::vector<uint64_t>>> groups;
    for (const Sol& s : sols) {
      if (!seen.insert(sol_key(s)).second) continue;
      RefRow key;
      for (const std::string& g : q.group_by) key.push_back(cell_of(s, vars.Find(g)));
      auto& slot = groups[RowKey(key)];
      if (slot.second.empty()) {
        slot.first = key;
        slot.second.assign(q.aggregates.size(), 0);
      }
      for (size_t i = 0; i < q.aggregates.size(); ++i) {
        const QAggregate& a = q.aggregates[i];
        const int v = vars.Find(a.arg);
        if (a.fn == QAggregate::Fn::kCount) {
          slot.second[i] += vars.is_time(v)
                                ? !s.time[static_cast<size_t>(v)].empty()
                                : s.term[static_cast<size_t>(v)] >= 0;
        } else {
          slot.second[i] += TotalDays(s.time[static_cast<size_t>(v)],
                                      store.last_event());
        }
      }
    }
    for (const QAggregate& a : q.aggregates) ans.columns.push_back(a.alias);
    for (auto& [k, g] : groups) {
      RefRow row;
      // Projected plain variables are grouping keys, in SELECT order.
      for (const std::string& v : q.select) {
        const size_t gi = static_cast<size_t>(
            std::find(q.group_by.begin(), q.group_by.end(), v) - q.group_by.begin());
        row.push_back(g.first[gi]);
      }
      for (uint64_t val : g.second) {
        RefCell c;
        c.term = std::to_string(val);
        row.push_back(c);
      }
      ans.rows.push_back(std::move(row));
    }
    return ans;
  }
  std::unordered_set<std::string> seen;
  for (const Sol& s : sols) {
    RefRow row;
    bool complete = true;
    for (const std::string& v : q.select) {
      RefCell c = cell_of(s, vars.Find(v));
      complete &= c.kind != RefCell::Kind::kUnbound &&
                  !(c.kind == RefCell::Kind::kTime && c.runs.empty());
      row.push_back(std::move(c));
    }
    if (!complete && q.optional.empty()) continue;
    if (seen.insert(RowKey(row)).second) ans.rows.push_back(std::move(row));
  }
  return ans;
}

std::string RowKey(const RefRow& row) {
  std::string k;
  for (const RefCell& c : row) {
    switch (c.kind) {
      case RefCell::Kind::kTerm:
        k += "T" + std::to_string(c.term.size()) + ":" + c.term;
        break;
      case RefCell::Kind::kUnbound:
        k += "U";
        break;
      case RefCell::Kind::kTime:
        k += "R";
        for (const auto& [s, e] : c.runs) {
          k += std::to_string(s) + "-" + std::to_string(e) + ",";
        }
        break;
    }
    k += '|';
  }
  return k;
}

int CompareCell(const RefCell& a, const RefCell& b) {
  if (a.kind == RefCell::Kind::kTime || b.kind == RefCell::Kind::kTime) {
    const size_t n = std::min(a.runs.size(), b.runs.size());
    for (size_t i = 0; i < n; ++i) {
      if (a.runs[i] != b.runs[i]) return a.runs[i] < b.runs[i] ? -1 : 1;
    }
    if (a.runs.size() != b.runs.size()) return a.runs.size() < b.runs.size() ? -1 : 1;
    return 0;
  }
  const std::string& x = a.kind == RefCell::Kind::kUnbound ? std::string() : a.term;
  const std::string& y = b.kind == RefCell::Kind::kUnbound ? std::string() : b.term;
  if (x.empty() || y.empty()) return static_cast<int>(!x.empty()) - static_cast<int>(!y.empty());
  double vx = 0, vy = 0;
  const bool nx = ParseNumeric(x, &vx), ny = ParseNumeric(y, &vy);
  if (nx && ny) return vx < vy ? -1 : (vx > vy ? 1 : 0);
  if (nx != ny) return nx ? -1 : 1;
  const int c = x.compare(y);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

size_t ExpectedRowCount(const QQuery& q, const RefAnswer& expected) {
  const size_t n = expected.rows.size();
  return q.limit >= 0 ? std::min(n, static_cast<size_t>(q.limit)) : n;
}

std::string CheckAnswer(const QQuery& q, const RefAnswer& expected,
                        const std::vector<RefRow>& got) {
  std::unordered_map<std::string, size_t> want;
  for (size_t i = 0; i < expected.rows.size(); ++i) {
    want.emplace(RowKey(expected.rows[i]), i);
  }
  std::unordered_set<std::string> seen;
  for (const RefRow& r : got) {
    const std::string k = RowKey(r);
    if (!want.count(k)) return "row not in the reference answer: " + k;
    if (!seen.insert(k).second) return "duplicate row: " + k;
  }
  const size_t n = ExpectedRowCount(q, expected);
  if (got.size() != n) {
    return "row count " + std::to_string(got.size()) + ", expected " +
           std::to_string(n);
  }
  if (q.order_var.empty() || got.empty()) return "";
  const size_t col = static_cast<size_t>(
      std::find(expected.columns.begin(), expected.columns.end(), q.order_var) -
      expected.columns.begin());
  if (col >= expected.columns.size()) return "ORDER BY column not projected";
  const int dir = q.order_desc ? -1 : 1;
  for (size_t i = 1; i < got.size(); ++i) {
    if (dir * CompareCell(got[i - 1][col], got[i][col]) > 0) {
      return "rows out of order at position " + std::to_string(i);
    }
  }
  // No row left out may sort strictly before the last one returned.
  const RefCell& last = got.back()[col];
  for (const RefRow& r : expected.rows) {
    if (seen.count(RowKey(r))) continue;
    if (dir * CompareCell(r[col], last) < 0) {
      return "row left out of the top " + std::to_string(n) + ": " + RowKey(r);
    }
  }
  return "";
}

}  // namespace e2e
