//===- serve/ServeEngine.h - Session-multiplexed tuning service *- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process core of `alic_serve`: many concurrent *tuning sessions*
/// — each an ActiveLearner plus an append-only observation log —
/// multiplexed onto one work-stealing Scheduler.
///
/// A session speaks the request/response shape of the learning loop:
/// suggest() returns the configuration(s) the learner wants measured next
/// plus a ticket, the client measures them however it likes (a real
/// compile-and-run, or a virtual profiler in the examples and benches),
/// and observe(ticket, costs) folds the measurements in.  Before the
/// first costs arrive the learner serves its sampling-plan seed
/// configurations without consulting any model (explore-only serving).
///
/// **Crash safety.**  Every session keeps a journal (support/Journal.h),
/// the same durable append-only record file as the campaign ledger, at
/// `<state-dir>/sess-<id>.alsv`.  Its first record holds the session id
/// and spec; each checkpoint then appends one record per observe not yet
/// on disk.  The learner's full state is a pure function of (spec,
/// the sequence of observed cost vectors) — see core/ActiveLearner.h — so
/// restore *replays* the log through suggest()/observe() and lands
/// bit-identically where the killed process stood: the next suggestion
/// after a restore is byte-identical to the one an uninterrupted engine
/// would have issued, at any scheduler worker count.  A journal cut
/// anywhere restores the observes whose records are complete.
/// serve_test pins both.
///
/// **Thread-safety.**  All public methods are safe to call concurrently
/// from any number of threads.  The engine holds one mutex over the
/// session table and one per session; sessions are reference-counted, so
/// a closeSession() racing an in-flight call on the same session cannot
/// destroy state the other thread still holds (the in-flight call simply
/// observes the session as closed).  A session's learner additionally
/// fans its internal work out across the shared scheduler (nested
/// parallelism — safe because inner shards never take session locks).
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SERVE_SERVEENGINE_H
#define ALIC_SERVE_SERVEENGINE_H

#include "core/ActiveLearner.h"
#include "exp/Runner.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace alic {

/// Everything that defines a tuning session's behaviour.  Two sessions
/// with equal specs (and the same observed costs) evolve identically —
/// the spec plus the observation log *is* the session state.
struct SessionSpec {
  /// SPAPT benchmark whose configuration space is tuned (spapt/Suite
  /// names); must be one of spaptBenchmarkNames().
  std::string Benchmark = "gemver";
  /// Surrogate family driving selection.
  ModelKind Model = ModelKind::DynaTree;
  /// Candidate-scoring criterion.
  ScorerKind Scorer = ScorerKind::Alc;
  /// Observation plan (the paper's sequential plan by default).
  SamplingPlan Plan = SamplingPlan::sequential(35);
  /// Examples labelled per suggest/observe round trip.
  unsigned BatchSize = 1;
  /// Root seed of the learner's random streams.
  uint64_t Seed = 1;
  /// Seed of the shared dataset's sampling streams; sessions sharing
  /// (Benchmark, Scale, DatasetSeed) share one in-memory dataset.
  uint64_t DatasetSeed = 0xa11cebe7;
  /// Query policy deciding whether each model-guided pick is measured or
  /// skipped (core/QueryPolicy.h).  Chosen at `open`; skip decisions are
  /// visible in suggest replies and replay deterministically on restore.
  QueryPolicyConfig Query;
  /// Size parameters (pool size, ninit, nmax, nc, particle count, ...).
  ExperimentScale Scale = ExperimentScale::fromEnv();
};

/// Engine construction knobs.
struct ServeOptions {
  /// Directory for session journals (created on demand).  Empty
  /// disables checkpointing and restoreSessions().
  std::string StateDir;
  /// Dataset blob cache handed to loadOrBuildDataset; empty disables the
  /// on-disk layer (the in-memory layer always applies).
  std::string DatasetCacheDir;
  /// Scheduler workers shared by every session's learner.  0 runs all
  /// learner-internal work inline with no scheduler at all; results are
  /// bit-identical either way (the scheduler determinism contract).
  unsigned Threads = 0;
  /// Victim-selection seed for the scheduler (stress-test knob; results
  /// never depend on it).
  uint64_t StealSeed = 0x57ea1ull;
  /// Checkpoint once k observes are pending (1 = every observe): each
  /// checkpoint appends every pending observe's record to the session
  /// journal.  Restores replay only what was checkpointed, so larger
  /// values trade crash freshness for fsyncs.
  unsigned CheckpointEveryObserves = 1;
};

/// A point-in-time summary of one session, as reported by sessionInfo().
struct SessionInfo {
  /// Lifecycle phase the session's next suggestion is (or would be) in.
  SuggestPhase Phase = SuggestPhase::Explore;
  /// The learner's progress counters.
  LearnerStats Stats;
  /// Sum of every cost the client has reported, in seconds.
  double TotalCostSeconds = 0.0;
  /// Number of observe() calls absorbed so far.
  size_t Observes = 0;
  /// True once the completion criterion is met.
  bool Done = false;
  /// True when a due checkpoint failed (disk full, injected fault, ...)
  /// and its records are still only in memory.  The session keeps
  /// serving; the next observe on the checkpoint cadence — or a
  /// snapshotAll() — retries the append.
  bool SnapshotDirty = false;
};

/// The session multiplexer.  One instance per daemon (or per test);
/// construct, optionally restoreSessions(), then serve.
class ServeEngine {
public:
  /// Starts the engine (and its scheduler, when Opts.Threads > 0).
  explicit ServeEngine(ServeOptions Opts);
  /// Drops all sessions (journals stay on disk) and joins the scheduler.
  ~ServeEngine();

  ServeEngine(const ServeEngine &) = delete;            ///< non-copyable
  ServeEngine &operator=(const ServeEngine &) = delete; ///< non-copyable

  /// Creates session \p Id from \p Spec.  Ids are 1-64 characters from
  /// [A-Za-z0-9._-] (they name journal files).  Fails — returning false
  /// and setting \p Err — on a malformed id, a duplicate id, or an
  /// unknown benchmark.  On success the session is immediately
  /// serveable and (with a StateDir) a fresh journal holding only the
  /// header record is persisted.
  bool openSession(const std::string &Id, const SessionSpec &Spec,
                   std::string &Err);

  /// Copies session \p Id's next suggestion into \p Out: the first call
  /// returns the seed configurations (explore phase), later calls run
  /// model-guided selection, and a completed session returns an empty
  /// suggestion with SuggestPhase::Done.  With a non-Always query policy
  /// a suggestion may carry skipped configs (Suggestion::Skipped) or be
  /// all-skip (SuggestPhase::Skip, observed with zero costs).  Idempotent
  /// while a suggestion is outstanding — a client that lost the reply can
  /// re-ask and receives the identical ticket, configs, and skips.
  bool suggest(const std::string &Id, Suggestion &Out, std::string &Err);

  /// Reports measured costs for the outstanding suggestion of session
  /// \p Id.  \p Costs holds ObservationsPerConfig values per suggested
  /// configuration, grouped by configuration.  Fails on an unknown
  /// session, a ticket that is not the outstanding one, or a wrong cost
  /// count, or a non-finite cost; the session is unchanged on failure.
  /// On success the event is appended to the session log and, on the
  /// configured cadence, the pending records to the session journal.
  bool observe(const std::string &Id, uint64_t Ticket,
               const std::vector<double> &Costs, std::string &Err);

  /// Predicts over the session's held-out test subset and returns the
  /// RMSE — the paper's accuracy metric, queryable mid-session.  Fails
  /// before the first fit (explore phase).
  bool evaluate(const std::string &Id, double &Rmse, std::string &Err);

  /// Fills \p Out with session \p Id's current phase and counters.
  bool sessionInfo(const std::string &Id, SessionInfo &Out,
                   std::string &Err) const;

  /// Drops session \p Id from memory and deletes its journal.  False
  /// when the id is unknown.
  bool closeSession(const std::string &Id);

  /// Loads every `sess-*.alsv` journal under StateDir and replays each
  /// observation log through a fresh learner, reconstructing all session
  /// states bit-identically (see file comment).  A record applies only
  /// as the next observe in sequence; replay skips every other line (a
  /// sealed remnant, a repeat, a record after a gap).  A journal without
  /// a header is skipped — a crash cannot take the daemon down — and
  /// counted in \p Skipped.  Returns the number of sessions restored.
  /// Call once, before serving.
  size_t restoreSessions(size_t *Skipped = nullptr);

  /// Checkpoints every live session with records not yet on disk,
  /// whatever the cadence.  Returns the number of sessions whose journal
  /// is now current.  The daemon's SIGTERM drain calls this so a
  /// graceful shutdown never loses observations.
  size_t snapshotAll();

  /// Ids of all live sessions, sorted.
  std::vector<std::string> sessionIds() const;

  /// Number of live sessions.
  size_t sessionCount() const;

  /// The shared scheduler, or nullptr when Threads was 0.
  Scheduler *scheduler() { return Sched.get(); }

private:
  struct Session;

  bool validId(const std::string &Id) const;
  std::string journalPath(const std::string &Id) const;
  std::shared_ptr<const Dataset> datasetFor(const SessionSpec &Spec);
  std::shared_ptr<Session> buildSession(const SessionSpec &Spec,
                                        std::string &Err);
  /// Journal records of \p S not yet on disk (0 without a StateDir).
  size_t pendingRecords(const Session &S) const;
  /// Appends the pending records of session \p Id.  Callers hold the
  /// session mutex, or have not published the session yet.
  void checkpoint(const std::string &Id, Session &S);
  /// Resolves session \p Id into \p S and locks its mutex into \p Lock.
  /// \p S is a reference-counted handle copied under EngineMutex, so the
  /// session outlives a concurrent closeSession(); declare it before
  /// \p Lock so the mutex is released before the handle.  False, with
  /// \p Err set, when the id is unknown or the session was closed.
  bool lockSession(const std::string &Id, std::shared_ptr<Session> &S,
                   std::unique_lock<std::mutex> &Lock,
                   std::string &Err) const;

  ServeOptions Opts;
  std::unique_ptr<Scheduler> Sched;

  mutable std::mutex EngineMutex;
  /// Ordered so sessionIds() is deterministic.
  std::map<std::string, std::shared_ptr<Session>> Sessions;
  /// In-memory dataset cache keyed by (benchmark, scale, dataset seed);
  /// 10k sessions over one benchmark share one dataset.
  std::map<std::string, std::shared_ptr<const Dataset>> Datasets;
};

} // namespace alic

#endif // ALIC_SERVE_SERVEENGINE_H
