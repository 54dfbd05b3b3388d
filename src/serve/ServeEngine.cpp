//===- serve/ServeEngine.cpp ----------------------------------*- C++ -*-===//

#include "serve/ServeEngine.h"

#include "exp/Campaign.h"
#include "spapt/Suite.h"
#include "stats/Metrics.h"
#include "support/Error.h"
#include "support/FailPoint.h"
#include "support/Format.h"
#include "support/Journal.h"
#include "support/Json.h"
#include "support/Scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <type_traits>

using namespace alic;

namespace {

/// Format version in a session journal's header record.  The binary
/// snapshots of versions 1-2 do not parse as JSON, so restore skips them
/// like any bad header and never misparses them.
constexpr int JournalVersion = 3;

/// Calls \p Visit(name, field) for every numeric SessionSpec field the
/// journal header carries, so its writer and reader cannot drift apart.
/// Benchmark, model, scorer, plan and policy kind travel as tokens.
template <typename SpecT, typename VisitorT>
void visitNumericFields(SpecT &Spec, VisitorT &&Visit) {
  Visit("mellowness", Spec.Query.Mellowness);
  Visit("range_c1", Spec.Query.RangeC1);
  Visit("abs_floor", Spec.Query.AbsFloor);
  Visit("rel_floor", Spec.Query.RelFloor);
  Visit("batch", Spec.BatchSize);
  Visit("seed", Spec.Seed);
  Visit("dataset_seed", Spec.DatasetSeed);
  auto &S = Spec.Scale;
  Visit("num_configs", S.NumConfigs);
  Visit("train_fraction", S.TrainFraction);
  Visit("mean_observations", S.MeanObservations);
  Visit("num_initial", S.NumInitial);
  Visit("init_observations", S.InitObservations);
  Visit("max_examples", S.MaxTrainingExamples);
  Visit("candidates", S.CandidatesPerIteration);
  Visit("reference_set", S.ReferenceSetSize);
  Visit("particles", S.Particles);
  Visit("repetitions", S.Repetitions);
  Visit("eval_every", S.EvalEvery);
  Visit("test_subset", S.TestSubset);
  Visit("observation_cap", S.ObservationCap);
}

/// The journal's first record: the session id and its whole spec.
/// Integers travel as decimal strings: a JSON number is a double, which
/// rounds 64-bit values above 2^53.
std::string headerRecord(const std::string &Id, const SessionSpec &Spec) {
  JsonWriter W;
  W.beginObject().key("alsv").integer(JournalVersion).key("id").string(Id);
  W.key("benchmark").string(Spec.Benchmark);
  W.key("model").string(modelToken(Spec.Model));
  W.key("scorer").string(scorerToken(Spec.Scorer));
  W.key("plan").string(planToken(Spec.Plan));
  // The token names the policy kind; its rounded numbers are overwritten
  // by the exact fields below on restore.
  W.key("policy").string(queryPolicyToken(Spec.Query));
  visitNumericFields(Spec, [&](const char *Name, auto Value) {
    if constexpr (std::is_same_v<decltype(Value), double>)
      W.key(Name).number(Value);
    else
      W.key(Name).string(std::to_string(Value));
  });
  return W.endObject().take() + "\n";
}

bool parseHeaderRecord(const std::string &Line, std::string &Id,
                       SessionSpec &Spec) {
  JsonValue Root;
  if (!parseJson(Line.c_str(), Root))
    return false;
  unsigned Version = 0;
  std::string Model, Scorer, Plan, Policy;
  JsonReader Fields(Root);
  Fields.integer("alsv", Version).string("id", Id);
  Fields.string("benchmark", Spec.Benchmark).string("model", Model);
  Fields.string("scorer", Scorer).string("plan", Plan);
  Fields.string("policy", Policy);
  bool Ok = Fields.ok() && Version == JournalVersion &&
            parseModelToken(Model, Spec.Model) &&
            parseScorerToken(Scorer, Spec.Scorer) &&
            parsePlanToken(Plan, Spec.Plan) &&
            parseQueryPolicy(Policy, Spec.Query);
  visitNumericFields(Spec, [&](const char *Name, auto &Value) {
    using T = std::remove_reference_t<decltype(Value)>;
    std::string Digits;
    uint64_t Parsed = 0;
    if constexpr (std::is_same_v<T, double>) {
      Fields.number(Name, Value);
    } else {
      Ok = Ok && Fields.string(Name, Digits).ok() &&
           parseDecimal(Digits, std::numeric_limits<T>::max(), Parsed);
      Value = T(Parsed);
    }
  });
  return Ok && Fields.ok();
}

/// One observe's record: its 0-based index in the session and its costs.
std::string eventRecord(size_t N, const std::vector<double> &Costs) {
  JsonWriter W;
  W.beginObject().key("n").integer(N).key("costs").numbers(Costs);
  return W.endObject().take() + "\n";
}

bool parseEventRecord(const std::string &Line, size_t &N,
                      std::vector<double> &Costs) {
  JsonValue Root;
  return parseJson(Line.c_str(), Root) &&
         JsonReader(Root).integer("n", N).numbers("costs", Costs).ok();
}

/// Raw bits of a double, for cache keys (0.75 and 0.7500001 must not
/// collide into one key through decimal formatting).
uint64_t doubleBits(double Value) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Value), "double is not 64-bit");
  __builtin_memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

} // namespace

struct ServeEngine::Session {
  SessionSpec Spec;
  std::unique_ptr<SpaptBenchmark> Bench;
  std::shared_ptr<const Dataset> Data;
  std::unique_ptr<SurrogateModel> Model;
  std::unique_ptr<ActiveLearner> Learner;
  /// Append-only observation log; with Spec, the whole session state.
  std::vector<std::vector<double>> Events;
  double TotalCostSeconds = 0.0;
  /// Records durably in the journal: the header, then one per event in
  /// order.  0 means the header has not landed yet, so the journal is
  /// started afresh.  A failed append leaves it behind, so the next
  /// checkpoint retries every pending record (degrade, never abort).
  size_t Durable = 0;
  /// Set (under M) by closeSession.  An in-flight call that resolved the
  /// session just before it left the table sees this after locking M and
  /// reports the session as unknown instead of mutating a closed one.
  bool Closed = false;
  std::mutex M;
};

ServeEngine::ServeEngine(ServeOptions Opts) : Opts(std::move(Opts)) {
  if (this->Opts.Threads > 0) {
    Scheduler::Options SO;
    SO.Threads = this->Opts.Threads;
    SO.StealSeed = this->Opts.StealSeed;
    Sched = std::make_unique<Scheduler>(SO);
  }
  if (!this->Opts.StateDir.empty())
    std::filesystem::create_directories(this->Opts.StateDir);
  if (this->Opts.CheckpointEveryObserves == 0)
    this->Opts.CheckpointEveryObserves = 1;
}

ServeEngine::~ServeEngine() = default;

bool ServeEngine::validId(const std::string &Id) const {
  if (Id.empty() || Id.size() > 64)
    return false;
  for (char C : Id) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-';
    if (!Ok)
      return false;
  }
  return true;
}

std::string ServeEngine::journalPath(const std::string &Id) const {
  return Opts.StateDir + "/sess-" + Id + ".alsv";
}

std::shared_ptr<const Dataset>
ServeEngine::datasetFor(const SessionSpec &Spec) {
  // Keyed on everything buildDataset consumes; called under EngineMutex.
  const ExperimentScale &S = Spec.Scale;
  std::string Key = Spec.Benchmark + "|" + std::to_string(S.NumConfigs) +
                    "|" + std::to_string(doubleBits(S.TrainFraction)) + "|" +
                    std::to_string(S.MeanObservations) + "|" +
                    std::to_string(Spec.DatasetSeed);
  auto It = Datasets.find(Key);
  if (It != Datasets.end())
    return It->second;
  auto B = createSpaptBenchmark(Spec.Benchmark);
  auto D = std::make_shared<Dataset>(
      loadOrBuildDataset(*B, S.NumConfigs, S.TrainFraction,
                         S.MeanObservations, Spec.DatasetSeed,
                         Opts.DatasetCacheDir));
  Datasets.emplace(Key, D);
  return D;
}

std::shared_ptr<ServeEngine::Session>
ServeEngine::buildSession(const SessionSpec &Spec, std::string &Err) {
  const std::vector<std::string> &Names = spaptBenchmarkNames();
  if (std::find(Names.begin(), Names.end(), Spec.Benchmark) == Names.end()) {
    Err = "unknown benchmark '" + Spec.Benchmark + "'";
    return nullptr;
  }
  auto S = std::make_shared<Session>();
  S->Spec = Spec;
  S->Bench = createSpaptBenchmark(Spec.Benchmark);
  S->Data = datasetFor(Spec);
  S->Model = makeSurrogateModel(Spec.Model, Spec.Scale, Spec.Seed);

  ActiveLearnerConfig Cfg;
  Spec.Scale.applyTo(Cfg);
  Cfg.Scorer = Spec.Scorer;
  Cfg.BatchSize = std::max(1u, Spec.BatchSize);
  Cfg.Seed = Spec.Seed;
  Cfg.Query = Spec.Query;
  S->Learner = std::make_unique<ActiveLearner>(
      *S->Bench, *S->Model, S->Data->Norm, S->Data->TrainPool, Spec.Plan,
      Cfg, Sched.get());
  return S;
}

size_t ServeEngine::pendingRecords(const Session &S) const {
  return Opts.StateDir.empty() ? 0 : S.Events.size() + 1 - S.Durable;
}

void ServeEngine::checkpoint(const std::string &Id, Session &S) {
  if (!pendingRecords(S))
    return;
  std::string Records;
  if (S.Durable == 0) {
    // A fresh journal: whatever sits at the path (a failed header, a
    // journal restore skipped) is replaced, never extended.
    std::error_code Ec;
    std::filesystem::remove(journalPath(Id), Ec);
    Records = headerRecord(Id, S.Spec);
  }
  for (size_t N = S.Durable ? S.Durable - 1 : 0; N != S.Events.size(); ++N)
    Records += eventRecord(N, S.Events[N]);
  Status St = appendJournal(journalPath(Id), Records, "snapshot.write");
  if (!St.ok()) {
    // Degrade: the session keeps serving from memory, and the records
    // stay pending, so the next checkpoint (or snapshotAll) retries.
    std::fprintf(stderr,
                 "alic_serve: checkpoint of session '%s' failed: %s "
                 "(errno %d); serving from memory, will retry\n",
                 Id.c_str(), St.message().c_str(), St.errnoValue());
    return;
  }
  S.Durable = S.Events.size() + 1;
}

bool ServeEngine::lockSession(const std::string &Id,
                              std::shared_ptr<Session> &S,
                              std::unique_lock<std::mutex> &Lock,
                              std::string &Err) const {
  {
    std::lock_guard<std::mutex> TableLock(EngineMutex);
    auto It = Sessions.find(Id);
    S = It == Sessions.end() ? nullptr : It->second;
  }
  if (S)
    Lock = std::unique_lock<std::mutex>(S->M);
  if (S && !S->Closed)
    return true;
  Err = "unknown session '" + Id + "'";
  return false;
}

bool ServeEngine::openSession(const std::string &Id, const SessionSpec &Spec,
                              std::string &Err) {
  if (!validId(Id)) {
    Err = "invalid session id (want 1-64 chars of [A-Za-z0-9._-])";
    return false;
  }
  std::lock_guard<std::mutex> Lock(EngineMutex);
  if (Sessions.count(Id)) {
    Err = "session '" + Id + "' already exists";
    return false;
  }
  std::shared_ptr<Session> S = buildSession(Spec, Err);
  if (!S)
    return false;
  checkpoint(Id, *S);
  Sessions.emplace(Id, std::move(S));
  return true;
}

bool ServeEngine::suggest(const std::string &Id, Suggestion &Out,
                          std::string &Err) {
  std::shared_ptr<Session> S;
  std::unique_lock<std::mutex> Lock;
  if (!lockSession(Id, S, Lock, Err))
    return false;
  Out = S->Learner->suggest();
  return true;
}

bool ServeEngine::observe(const std::string &Id, uint64_t Ticket,
                          const std::vector<double> &Costs,
                          std::string &Err) {
  std::shared_ptr<Session> S;
  std::unique_lock<std::mutex> Lock;
  if (!lockSession(Id, S, Lock, Err))
    return false;
  if (!S->Learner->suggestionOutstanding()) {
    Err = "no suggestion outstanding (call suggest first)";
    return false;
  }
  const Suggestion &Want = S->Learner->suggest();
  if (Ticket != Want.Ticket) {
    Err = "stale ticket " + std::to_string(Ticket) + " (outstanding is " +
          std::to_string(Want.Ticket) + ")";
    return false;
  }
  size_t WantCosts = Want.Configs.size() * Want.ObservationsPerConfig;
  if (Costs.size() != WantCosts) {
    Err = "expected " + std::to_string(WantCosts) + " cost(s), got " +
          std::to_string(Costs.size());
    return false;
  }
  // The journal stores costs as JSON numbers, which have no NaN or inf.
  for (double C : Costs)
    if (!std::isfinite(C)) {
      Err = "costs must be finite";
      return false;
    }
  if (!S->Learner->observe(Ticket, Costs)) {
    Err = "learner rejected the observation";
    return false;
  }
  S->Events.push_back(Costs);
  for (double C : Costs)
    S->TotalCostSeconds += C;
  if (pendingRecords(*S) >= Opts.CheckpointEveryObserves)
    checkpoint(Id, *S);
  return true;
}

bool ServeEngine::evaluate(const std::string &Id, double &Rmse,
                           std::string &Err) {
  std::shared_ptr<Session> S;
  std::unique_lock<std::mutex> Lock;
  if (!lockSession(Id, S, Lock, Err))
    return false;
  if (!S->Learner->seeded()) {
    Err = "session has no model yet (still exploring)";
    return false;
  }
  const Dataset &D = *S->Data;
  size_t NumEval = std::min(S->Spec.Scale.TestSubset, D.TestFeatures.size());
  if (NumEval == 0) {
    Err = "empty test subset";
    return false;
  }
  std::vector<double> Pred(NumEval), Actual(NumEval);
  for (size_t I = 0; I != NumEval; ++I) {
    Pred[I] = S->Model->predict(D.TestFeatures[I]).Mean;
    Actual[I] = D.TestMeans[I];
  }
  Rmse = rootMeanSquaredError(Pred, Actual);
  return true;
}

bool ServeEngine::sessionInfo(const std::string &Id, SessionInfo &Out,
                              std::string &Err) const {
  std::shared_ptr<Session> S;
  std::unique_lock<std::mutex> Lock;
  if (!lockSession(Id, S, Lock, Err))
    return false;
  Out.Stats = S->Learner->stats();
  Out.TotalCostSeconds = S->TotalCostSeconds;
  Out.Observes = S->Events.size();
  Out.Done = S->Learner->done();
  // Dirty: a checkpoint was due (or the header never landed) and failed.
  size_t Pending = pendingRecords(*S);
  Out.SnapshotDirty =
      Pending >= Opts.CheckpointEveryObserves || (Pending && S->Durable == 0);
  if (Out.Done)
    Out.Phase = SuggestPhase::Done;
  else if (!S->Learner->seeded())
    Out.Phase = SuggestPhase::Explore;
  else if (const Suggestion *Cur = S->Learner->outstanding())
    // Surface an all-skip round as such: the client's next move is an
    // empty observe, not a measurement.
    Out.Phase = Cur->Phase;
  else
    Out.Phase = SuggestPhase::Refine;
  return true;
}

bool ServeEngine::closeSession(const std::string &Id) {
  std::shared_ptr<Session> Doomed;
  std::unique_lock<std::mutex> Lock;
  std::string Err;
  if (!lockSession(Id, Doomed, Lock, Err))
    return false;
  // Any in-flight call on the session finished before this lock (its
  // checkpoint landed before the remove below) or will see Closed and
  // bail; the shared_ptr it holds keeps the Session alive either way.
  Doomed->Closed = true;
  if (!Opts.StateDir.empty()) {
    std::error_code Ec;
    std::filesystem::remove(journalPath(Id), Ec);
  }
  Lock.unlock();
  // The id leaves the table only now, so an openSession reusing it
  // cannot write its journal before the remove above.
  std::lock_guard<std::mutex> TableLock(EngineMutex);
  Sessions.erase(Id);
  return true;
}

size_t ServeEngine::restoreSessions(size_t *Skipped) {
  size_t Bad = 0, Restored = 0;
  std::vector<std::string> Names;
  std::error_code Ec; // an empty or missing StateDir lists nothing
  for (const auto &Entry :
       std::filesystem::directory_iterator(Opts.StateDir, Ec)) {
    std::string Name = Entry.path().filename().string();
    if (Name.rfind("sess-", 0) == 0 && Name.size() > 10 &&
        Name.substr(Name.size() - 5) == ".alsv")
      Names.push_back(Name);
  }
  // Deterministic restore order (directory iteration order is not).
  std::sort(Names.begin(), Names.end());

  for (const std::string &Name : Names) {
    std::vector<std::string> Records;
    std::string Id;
    SessionSpec Spec;
    bool Readable = !ALIC_FAILPOINT("snapshot.restore").Fire && // injected
                    readJournal(Opts.StateDir + "/" + Name, Records).ok();
    // The first record that parses as a header names the session: a
    // header append that tore and was retried leaves its sealed remnant
    // in front.  The id must match the file the header sits in, which is
    // where the session's later records will be appended.
    size_t Header = 0;
    while (Readable && Header != Records.size() &&
           !parseHeaderRecord(Records[Header], Id, Spec))
      ++Header;
    if (Header == Records.size() || !validId(Id) ||
        Name != "sess-" + Id + ".alsv") {
      ++Bad;
      continue;
    }
    std::lock_guard<std::mutex> Lock(EngineMutex);
    std::string Err;
    std::shared_ptr<Session> S =
        Sessions.count(Id) ? nullptr : buildSession(Spec, Err);
    if (!S) {
      ++Bad;
      continue;
    }
    // Replay: state is a pure function of (spec, cost sequence), so
    // driving the recorded costs through the deterministic loop lands
    // exactly where the previous process stood.  A record applies only
    // as the next observe in sequence; every other line is skipped: a
    // sealed remnant or a repeated header, a repeat of an applied record
    // (a retried append whose first write landed), and a record the
    // learner rejects or any record after the gap it leaves.  A torn tail
    // never reaches here.  Replaying a prefix always lands in the same
    // state, so records appended after this restore continue from it.
    for (size_t R = Header + 1; R != Records.size(); ++R) {
      size_t N = 0;
      std::vector<double> Costs;
      if (!parseEventRecord(Records[R], N, Costs) || N != S->Events.size() ||
          S->Learner->suggest().Phase == SuggestPhase::Done ||
          !S->Learner->observe(S->Learner->suggest().Ticket, Costs))
        continue;
      for (double C : Costs)
        S->TotalCostSeconds += C;
      S->Events.push_back(std::move(Costs));
    }
    S->Durable = S->Events.size() + 1;
    Sessions.emplace(Id, std::move(S));
    ++Restored;
  }
  if (Skipped)
    *Skipped = Bad;
  return Restored;
}

size_t ServeEngine::snapshotAll() {
  if (Opts.StateDir.empty())
    return 0;
  std::vector<std::pair<std::string, std::shared_ptr<Session>>> Live;
  {
    std::lock_guard<std::mutex> Lock(EngineMutex);
    for (const auto &[Id, S] : Sessions)
      Live.emplace_back(Id, S);
  }
  size_t Clean = 0;
  for (auto &[Id, S] : Live) {
    std::lock_guard<std::mutex> Lock(S->M);
    if (S->Closed)
      continue;
    checkpoint(Id, *S);
    if (!pendingRecords(*S))
      ++Clean;
  }
  return Clean;
}

std::vector<std::string> ServeEngine::sessionIds() const {
  std::lock_guard<std::mutex> Lock(EngineMutex);
  std::vector<std::string> Ids;
  Ids.reserve(Sessions.size());
  for (const auto &[Id, S] : Sessions)
    Ids.push_back(Id);
  return Ids;
}

size_t ServeEngine::sessionCount() const {
  std::lock_guard<std::mutex> Lock(EngineMutex);
  return Sessions.size();
}
