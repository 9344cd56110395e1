// The durable write path, driven through LiveStore: time-ordered
// Assert/Retract writes replayed from a generated history, optional
// reads on the current epoch, explicit checkpoints, and recovery of the
// directory the run leaves. live-ingest is this phase with reads; the
// query workloads run a shorter one without reads on their own data.
#ifndef E2EBENCH_INGEST_H_
#define E2EBENCH_INGEST_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/live_store.h"
#include "engine/executor.h"
#include "layers.h"
#include "pace.h"
#include "query_model.h"
#include "rdf/store_interface.h"
#include "reference.h"
#include "workload/dataset.h"

namespace e2e {

struct IngestConfig {
  /// Writes replayed, taken from the start of the history.
  size_t writes = 0;
  /// One read after every `read_every` writes; 0 = no reads. With
  /// reads the phase also reports setup_s and the query metrics.
  size_t read_every = 0;
  /// An explicit Checkpoint() after every `checkpoint_every` writes but
  /// the last `checkpoint_every`, which stay in the WAL.
  size_t checkpoint_every = 0;
};

/// What the benchmark applied to a live store: each triple's runs, the
/// last one open while the triple is live. Keyed by store term ids.
class Truth {
 public:
  void Apply(const rdftx::Triple& t, bool is_assert, Day at);
  /// Reference store of one subject's triples (enough for the
  /// subject-bound reads); terms decoded through `dict`.
  RefStore Subject(rdftx::TermId s, const rdftx::Dictionary& dict) const;
  /// Empty when a full scan of `store` returns exactly the applied
  /// history, else what differs.
  std::string CompareFullScan(const rdftx::TemporalStore& store) const;

 private:
  static uint64_t Key(const rdftx::Triple& t);
  std::unordered_map<uint64_t, Runs> runs_;
  std::unordered_map<rdftx::TermId, std::vector<rdftx::Triple>> by_subject_;
};

/// Empty when a recovered store's last durable LSN accounts for every
/// interned term and every acknowledged write, else the reason.
std::string CheckRecoveredLsn(uint64_t lsn, size_t terms, uint64_t acked);

/// The durable write path of one run, replayed into a fresh store once
/// per BeginReplay()/EndReplay() pair. BeginReplay() opens the store
/// and interns the terms (the first one is the set-up); Step(n) applies
/// the next n writes of the history with the reads and checkpoints the
/// config asks for, so a caller can spread a replay over its own loop;
/// EndReplay() applies the rest, checks the final epoch, closes the
/// store and times its recovery. Finish() appends the metrics: rates,
/// percentiles and the checkpoint total from each operation's fastest
/// replay, recovery from the fastest replay's median.
class DurablePhase {
 public:
  /// One write of the replayed history, terms as indices into the
  /// run's term list (first-use order).
  struct Event {
    Day time = 0;
    bool is_assert = true;
    uint32_t s = 0, p = 0, o = 0;
  };

  /// Builds the write history from `dataset` (terms decoded through
  /// `dict`); the store lives in a fresh directory under opt.work_dir.
  /// Latencies are stated at the reference pace of `pace`.
  DurablePhase(const rdftx::workload::Dataset& dataset, const rdftx::Dictionary& dict,
                const IngestConfig& config, const RunOptions& opt, Pace* pace, Tracer* tracer,
                Outcome* out);
  ~DurablePhase();
  DurablePhase(const DurablePhase&) = delete;
  DurablePhase& operator=(const DurablePhase&) = delete;

  bool BeginReplay();
  void Step(size_t n);
  void EndReplay();
  void Finish();
  size_t writes() const { return events_.size(); }

 private:
  void Read(const Event& e, const rdftx::Triple& t);

  const IngestConfig cfg_;
  Pace* pace_;
  Tracer* tracer_;
  Outcome* out_;
  const std::string dir_;
  std::vector<std::string> terms_;
  std::vector<Event> events_;
  rdftx::LiveStoreOptions options_;  // sync_writes + group_commit on
  rdftx::engine::EngineOptions eopts_;
  std::unique_ptr<rdftx::LiveStore> store_;
  rdftx::Dictionary mirror_;
  std::vector<rdftx::TermId> ids_;
  Truth truth_;
  QueryLayers layers_;
  // State of the current replay.
  size_t next_ = 0, reads_ = 0, replays_ = 0;
  uint64_t acked_ = 0, last_checkpoint_at_ = 0;
  // This replay's recoveries; EndReplay folds their median into the results.
  std::vector<double> replay_recovery_s_;
  // Results. Per operation, the fastest of the replays, kept apart for
  // the traced and the untraced runs of the operation ([1] and [0]);
  // per checkpoint of a replay, its fastest run.
  std::vector<double> write_best_us_[2], read_best_ms_[2], checkpoint_best_s_;
  // The fastest replay's median recovery.
  Best recovery_s_;
  double setup_s_ = 0;
  std::vector<double> intern_us_, snapshot_us_, checkpoint_ms_, backlog_;
  // What the last replay left on disk.
  uint64_t tail_writes_ = 0, wal_bytes_ = 0, snapshot_bytes_ = 0, index_bytes_ = 0;
};

}  // namespace e2e

#endif  // E2EBENCH_INGEST_H_
