#include "ingest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <filesystem>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>

#include "core/live_store.h"
#include "engine/executor.h"
#include "layers.h"
#include "reference.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using rdftx::Interval;
using rdftx::LiveStore;
using rdftx::Triple;

using Event = DurablePhase::Event;

/// OpenOrRecover runs timed on the directory each replay leaves;
/// recovery_s is their median.
constexpr size_t kRecoveries = 50;

/// The finite entries of `v`: the operations that ran and succeeded.
std::vector<double> Finite(const std::vector<double>& v) {
  std::vector<double> out;
  for (double x : v) {
    if (std::isfinite(x)) out.push_back(x);
  }
  return out;
}

struct History {
  std::vector<std::string> terms;
  std::vector<Event> events;
};

/// Time-ordered Assert/Retract events of the dataset: each triple's
/// intervals are coalesced, asserted at each run's start and retracted
/// at its end. Retracts sort before asserts at equal time; ties break
/// on term text, so the order depends on the seed only.
History BuildHistory(const rdftx::workload::Dataset& ds,
                     const rdftx::Dictionary& dict, size_t writes) {
  std::map<std::tuple<rdftx::TermId, rdftx::TermId, rdftx::TermId>, Runs> by_triple;
  for (const rdftx::TemporalTriple& tt : ds.triples) {
    by_triple[{tt.triple.s, tt.triple.p, tt.triple.o}].emplace_back(tt.iv.start, tt.iv.end);
  }
  struct Raw {
    Day time;
    bool is_assert;
    const std::string *s, *p, *o;
  };
  std::vector<Raw> raw;
  for (auto& [k, runs] : by_triple) {
    const auto& [s, p, o] = k;
    for (const auto& [a, b] : Coalesce(std::move(runs))) {
      raw.push_back(Raw{a, true, &dict.Decode(s), &dict.Decode(p), &dict.Decode(o)});
      if (b != kOpenEnd) {
        raw.push_back(Raw{b, false, &dict.Decode(s), &dict.Decode(p), &dict.Decode(o)});
      }
    }
  }
  std::sort(raw.begin(), raw.end(), [](const Raw& x, const Raw& y) {
    if (x.time != y.time) return x.time < y.time;
    if (x.is_assert != y.is_assert) return !x.is_assert;
    return std::tie(*x.s, *x.p, *x.o) < std::tie(*y.s, *y.p, *y.o);
  });
  if (raw.size() > writes) raw.resize(writes);
  History h;
  std::unordered_map<std::string, uint32_t> index;
  auto id = [&](const std::string* t) {
    auto [it, fresh] = index.emplace(*t, static_cast<uint32_t>(h.terms.size()));
    if (fresh) h.terms.push_back(*t);
    return it->second;
  };
  for (const Raw& r : raw) {
    const uint32_t s = id(r.s), p = id(r.p), o = id(r.o);
    h.events.push_back(Event{r.time, r.is_assert, s, p, o});
  }
  return h;
}

/// The read after a write: a subject-bound selection in one of the
/// generator's shapes, on the written triple's subject.
QQuery ReadQuery(size_t n, const std::vector<std::string>& terms,
                 const DurablePhase::Event& e) {
  QQuery q;
  QPattern p;
  p.s = Slot{false, terms[e.s]};
  switch (n % 3) {
    case 0:  // the subject's whole history
      q.select = {"p", "o", "t"};
      p.p = Slot{true, "p"};
      p.o = Slot{true, "o"};
      break;
    case 1:  // when did the written fact hold
      q.select = {"t"};
      p.p = Slot{false, terms[e.p]};
      p.o = Slot{false, terms[e.o]};
      break;
    default:  // the subject's snapshot at the write's time
      q.select = {"p", "o"};
      p.p = Slot{true, "p"};
      p.o = Slot{true, "o"};
      p.t_var = false;
      p.t_at = e.time;
  }
  q.shape = "live-read";
  q.patterns.push_back(p);
  return q;
}

uint64_t FileBytes(const std::string& dir, const std::string& prefix) {
  uint64_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind(prefix, 0) == 0) n += e.file_size();
  }
  return n;
}

}  // namespace

uint64_t Truth::Key(const Triple& t) {
  return (static_cast<uint64_t>(t.s) << 42) | (static_cast<uint64_t>(t.p) << 21) | t.o;
}

void Truth::Apply(const Triple& t, bool is_assert, Day at) {
  auto [it, fresh] = runs_.try_emplace(Key(t));
  if (fresh) by_subject_[t.s].push_back(t);
  if (is_assert) {
    it->second.emplace_back(at, kOpenEnd);
  } else {
    it->second.back().second = at;
  }
}

RefStore Truth::Subject(rdftx::TermId s, const rdftx::Dictionary& dict) const {
  RefStore ref;
  auto it = by_subject_.find(s);
  if (it != by_subject_.end()) {
    for (const Triple& t : it->second) {
      for (const auto& [a, b] : runs_.at(Key(t))) {
        ref.Add(dict.Decode(t.s), dict.Decode(t.p), dict.Decode(t.o), a, b);
      }
    }
  }
  ref.Finish();
  return ref;
}

std::string Truth::CompareFullScan(const rdftx::TemporalStore& store) const {
  std::unordered_map<uint64_t, Runs> seen;
  store.ScanPattern(rdftx::PatternSpec{}, [&](const Triple& t, const Interval& iv) {
    seen[Key(t)].emplace_back(iv.start, iv.end);
  });
  size_t want = 0;
  for (const auto& [k, runs] : runs_) {
    const Runs expect = Coalesce(runs);
    if (expect.empty()) continue;
    ++want;
    auto it = seen.find(k);
    if (it == seen.end()) return "full scan is missing a triple";
    if (Coalesce(it->second) != expect) return "full scan has a wrong temporal element";
  }
  if (seen.size() != want) return "full scan has triples that were never written";
  return "";
}

std::string CheckRecoveredLsn(uint64_t lsn, size_t terms, uint64_t acked) {
  if (lsn == terms + acked) return "";
  return "recovered LSN " + std::to_string(lsn) + ", expected terms + acked writes = " +
         std::to_string(terms + acked);
}

DurablePhase::DurablePhase(const rdftx::workload::Dataset& dataset,
                             const rdftx::Dictionary& gen_dict, const IngestConfig& config,
                             const RunOptions& opt, Pace* pace, Tracer* tracer,
                             Outcome* out)
    : cfg_(config), pace_(pace), tracer_(tracer), out_(out),
      dir_((fs::path(opt.work_dir) / ("live-" + opt.workload + "-" + std::to_string(opt.seed)))
               .string()) {
  History h = BuildHistory(dataset, gen_dict, cfg_.writes);
  terms_ = std::move(h.terms);
  events_ = std::move(h.events);
  eopts_.num_threads = 1;
  const double inf = std::numeric_limits<double>::infinity();
  const size_t reads = cfg_.read_every > 0 ? events_.size() / cfg_.read_every : 0;
  for (int traced = 0; traced < 2; ++traced) {
    write_best_us_[traced].assign(events_.size(), inf);
    read_best_ms_[traced].assign(reads, inf);
  }
  const size_t checkpoints =
      cfg_.checkpoint_every > 0 && events_.size() >= cfg_.checkpoint_every
          ? events_.size() / cfg_.checkpoint_every - 1
          : 0;
  checkpoint_best_s_.assign(checkpoints, inf);
}

DurablePhase::~DurablePhase() {
  store_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

bool DurablePhase::BeginReplay() {
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  truth_ = Truth();
  next_ = reads_ = 0;
  acked_ = last_checkpoint_at_ = 0;
  // Set-up: open plus durable interning of every term the replay uses,
  // mirrored into a benchmark-side dictionary id for id. Only the first
  // replay's set-up is cold; it alone is reported.
  const bool first = replays_ == 0;
  double setup_factor = 1;
  if (first) {
    pace_->Burst();
    setup_factor = pace_->Factor();
  }
  const int64_t t0 = NowNs();
  auto opened = LiveStore::OpenOrRecover(dir_, options_);
  const int64_t open_ns = NowNs() - t0;
  if (!opened.ok()) {
    out_->Wrong("OpenOrRecover failed: " + opened.status().ToString());
    return false;
  }
  store_ = std::move(*opened);
  ids_.resize(terms_.size());
  double intern_ns = 0;
  for (size_t i = 0; i < terms_.size(); ++i) {
    const int64_t a = NowNs();
    auto id = store_->InternTerm(terms_[i]);
    const int64_t ns = NowNs() - a;
    intern_ns += static_cast<double>(ns);
    if (first) intern_us_.push_back(static_cast<double>(ns) / 1e3);
    if (!id.ok()) {
      out_->Wrong("InternTerm failed: " + id.status().ToString());
      return false;
    }
    if (first) {
      ids_[i] = *id;
      if (mirror_.Intern(terms_[i]) != *id) {
        out_->Wrong("store and mirror dictionaries disagree on term " + terms_[i]);
        return false;
      }
    } else if (ids_[i] != *id) {
      out_->Wrong("a replay interned term " + terms_[i] + " under another id");
      return false;
    }
  }
  if (first) {
    pace_->Burst();
    setup_factor = (setup_factor + pace_->Factor()) / 2;
    setup_s_ = (static_cast<double>(open_ns) + intern_ns) / 1e9 * setup_factor;
  }
  return true;
}

void DurablePhase::Step(size_t n) {
  for (; n > 0 && next_ < events_.size(); --n) {
    const size_t i = next_++;
    const Event& e = events_[i];
    const Triple t{ids_[e.s], ids_[e.p], ids_[e.o]};
    // In the traced run each write carries a span in every other replay,
    // so each has a traced and an untraced latency.
    const bool traced = tracer_->on() && (i + replays_) % 2 == 0;
    const int span = traced ? tracer_->Begin("live.write", static_cast<uint32_t>(i)) : -1;
    const int64_t a = NowNs();
    const rdftx::Status st =
        e.is_assert ? store_->AssertId(t, e.time) : store_->RetractId(t, e.time);
    const double us = static_cast<double>(NowNs() - a) / 1e3 * pace_->Factor();
    tracer_->End(span);
    pace_->MaybeProbe();
    ++out_->attempted;
    if (!st.ok()) {
      ++out_->failed;
      continue;
    }
    ++acked_;
    write_best_us_[traced][i] = std::min(write_best_us_[traced][i], us);
    truth_.Apply(t, e.is_assert, e.time);
    if (cfg_.read_every > 0 && (i + 1) % cfg_.read_every == 0) Read(e, t);
    if (cfg_.checkpoint_every > 0 && (i + 1) % cfg_.checkpoint_every == 0 &&
        i + 1 + cfg_.checkpoint_every <= events_.size()) {
      const int cspan =
          tracer_->Begin("storage.checkpoint", static_cast<uint32_t>(checkpoint_ms_.size()));
      const int64_t c0 = NowNs();
      const rdftx::Status cst = store_->Checkpoint();
      const double ms = static_cast<double>(NowNs() - c0) / 1e6 * pace_->Factor();
      tracer_->End(cspan);
      pace_->MaybeProbe();
      double& best = checkpoint_best_s_[(i + 1) / cfg_.checkpoint_every - 1];
      best = std::min(best, ms / 1e3);
      checkpoint_ms_.push_back(ms);
      last_checkpoint_at_ = acked_;
      if (!cst.ok()) out_->Wrong("Checkpoint failed: " + cst.ToString());
    }
  }
}

void DurablePhase::Read(const Event& e, const Triple& t) {
  const size_t j = reads_++;
  const QQuery q = ReadQuery(j, terms_, e);
  const std::string text = Render(q);
  const bool traced = tracer_->on() && (j + replays_) % 2 == 0;
  const uint32_t req = static_cast<uint32_t>(j);
  ++out_->attempted;
  const int64_t r0 = NowNs();
  const int sspan = traced ? tracer_->Begin("epoch.snapshot", req) : -1;
  std::shared_ptr<const rdftx::Epoch> epoch = store_->Snapshot();
  const int64_t snap_ns = tracer_->End(sspan);
  rdftx::engine::QueryEngine engine(epoch.get(), &mirror_, eopts_);
  int64_t query_end_ns = 0;
  rdftx::Result<rdftx::engine::ResultSet> rs =
      traced ? ExecuteTraced(engine, nullptr, *epoch, mirror_, text, req, tracer_, &layers_,
                             &query_end_ns)
             : engine.Execute(text);
  const double ms =
      static_cast<double>((traced ? query_end_ns : NowNs()) - r0) / 1e6 * pace_->Factor();
  pace_->MaybeProbe();
  backlog_.push_back(static_cast<double>(store_->delta_backlog()));
  if (!rs.ok()) {
    ++out_->failed;
    return;
  }
  read_best_ms_[traced][j] = std::min(read_best_ms_[traced][j], ms);
  if (traced) snapshot_us_.push_back(static_cast<double>(snap_ns) / 1e3);
  // Every read is checked against the history applied so far.
  const RefStore ref = truth_.Subject(t.s, mirror_);
  const std::string why = CheckAnswer(q, Evaluate(ref, q), ResultRows(*rs));
  if (!why.empty()) out_->Wrong("live read `" + text + "`: " + why);
}

void DurablePhase::EndReplay() {
  Step(events_.size());
  // The final epoch holds exactly the applied history.
  {
    const std::string why = truth_.CompareFullScan(*store_->Snapshot());
    if (!why.empty()) out_->Wrong("final epoch: " + why);
  }
  tail_writes_ = acked_ - last_checkpoint_at_;
  wal_bytes_ = FileBytes(dir_, "wal-");
  snapshot_bytes_ = FileBytes(dir_, "snapshot");
  index_bytes_ = store_->Snapshot()->MemoryUsage() + mirror_.MemoryUsage();
  store_.reset();

  // Recovery of the directory the replay left: snapshot plus WAL tail.
  // Every recovered store must account for every acknowledged write;
  // the first and the last are also scanned in full against the
  // applied history.
  replay_recovery_s_.clear();
  for (size_t r = 0; r < kRecoveries; ++r) {
    const int rspan = tracer_->Begin("storage.recover", static_cast<uint32_t>(r));
    const int64_t r0 = NowNs();
    auto again = LiveStore::OpenOrRecover(dir_, options_);
    const double secs = static_cast<double>(NowNs() - r0) / 1e9 * pace_->Factor();
    tracer_->End(rspan);
    pace_->MaybeProbe();
    if (!again.ok()) {
      out_->Wrong("recovery failed: " + again.status().ToString());
      break;
    }
    replay_recovery_s_.push_back(secs);
    const std::string lsn_why =
        CheckRecoveredLsn((*again)->last_durable_lsn(), terms_.size(), acked_);
    if (!lsn_why.empty()) out_->Wrong(lsn_why);
    if (r == 0 || r + 1 == kRecoveries) {
      const std::string why = truth_.CompareFullScan(*(*again)->Snapshot());
      if (!why.empty()) out_->Wrong("recovered store: " + why);
    }
  }

  recovery_s_.Offer(Percentile(replay_recovery_s_, 50));
  ++replays_;
}

void DurablePhase::Finish() {
  // Rates, percentiles and the checkpoint total count each operation
  // with its fastest replay (see README).
  const std::vector<double> writes = Finite(write_best_us_[0]);
  const std::vector<double> reads = Finite(read_best_ms_[0]);
  const bool with_reads = cfg_.read_every > 0;
  Outcome* out = out_;
  if (!tracer_->on()) {
    if (with_reads) {
      out->Add("setup_s", setup_s_, "s");
      out->Add("query_qps", static_cast<double>(reads.size()) / (Sum(reads) / 1e3), "queries/s");
      out->Add("query_p50_ms", Percentile(reads, 50), "ms");
      out->Add("query_p95_ms", Percentile(reads, 95), "ms");
      out->Add("index_bytes", static_cast<double>(index_bytes_), "bytes");
    }
    out->Add("write_per_s", static_cast<double>(writes.size()) / (Sum(writes) / 1e6), "writes/s");
    out->Add("write_p50_us", Percentile(writes, 50), "us");
    out->Add("write_p95_us", Percentile(writes, 95), "us");
    out->Add("checkpoint_s", Sum(Finite(checkpoint_best_s_)), "s");
    out->Add("recovery_s", recovery_s_.value(), "s");
    out->Add("disk_bytes", static_cast<double>(wal_bytes_ + snapshot_bytes_), "bytes");
    return;
  }
  if (with_reads) {
    layers_.traced_ms = Finite(read_best_ms_[1]);
    layers_.untraced_ms = reads;
    layers_.Emit(true, out);
    out->Add("setup.load_s", 0, "s");
    out->Add("setup.stats_s", 0, "s");
    out->Add("optimizer.histogram_bytes", 0, "bytes");
    out->Add("dict.bytes", static_cast<double>(mirror_.MemoryUsage()), "bytes");
  }
  out->Add("epoch.snapshot_us", Mean(snapshot_us_), "us");
  out->Add("live.delta_backlog", Mean(backlog_), "count");
  out->Add("live.intern_us", Mean(intern_us_), "us");
  out->Add("wal.bytes_per_write",
           tail_writes_ > 0 ? static_cast<double>(wal_bytes_) / static_cast<double>(tail_writes_)
                            : 0,
           "bytes");
  out->Add("storage.checkpoint_ms", Mean(checkpoint_ms_), "ms");
  out->Add("storage.snapshot_bytes", static_cast<double>(snapshot_bytes_), "bytes");
  const double recovery_s = recovery_s_.value();
  out->Add("storage.replay_records_per_s",
           recovery_s > 0 ? static_cast<double>(tail_writes_) / recovery_s : 0, "records/s");
  out->Add("trace.write_p50_us", Percentile(Finite(write_best_us_[1]), 50), "us");
  out->Add("trace.untraced_write_p50_us", Percentile(writes, 50), "us");
}

}  // namespace e2e
