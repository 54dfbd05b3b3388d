//===- tests/serve_test.cpp - serve engine + wire tests -------*- C++ -*-===//
//
// Pins the serving contract: the suggest/observe split is bit-identical
// to the batch step() loop; a killed-and-restored engine resumes every
// session with byte-identical suggestions, at any worker count and steal
// seed; suggest is idempotent while a ticket is outstanding; corrupt
// snapshots are skipped, never fatal; and the NDJSON wire layer maps
// requests to engine calls and errors to ok:false replies.
//
//===----------------------------------------------------------------------===//

#include "exp/Dataset.h"
#include "serve/ServeEngine.h"
#include "serve/Wire.h"
#include "spapt/Suite.h"
#include "support/FailPoint.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace alic;

namespace {

/// A seconds-cheap session: a few dozen iterations over a small pool.
SessionSpec tinySpec(uint64_t Seed = 3) {
  SessionSpec Spec;
  Spec.Benchmark = "atax";
  Spec.Scale = ExperimentScale::preset(ScaleKind::Smoke);
  Spec.Scale.NumConfigs = 200;
  Spec.Scale.MaxTrainingExamples = 14;
  Spec.Scale.CandidatesPerIteration = 12;
  Spec.Scale.ReferenceSetSize = 15;
  Spec.Scale.Particles = 30;
  Spec.Scale.TestSubset = 40;
  Spec.Seed = Seed;
  return Spec;
}

ServeOptions engineOptions(const std::string &StateDir, unsigned Threads,
                           uint64_t StealSeed = 0x57ea1ull) {
  ServeOptions Opts;
  Opts.StateDir = StateDir;
  Opts.Threads = Threads;
  Opts.StealSeed = StealSeed;
  return Opts;
}

/// Fresh per-test state directory under the gtest temp root.
std::string freshStateDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "alic_serve_" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// Exact byte-level identity of a suggestion (configs are ordinals, so
/// string rendering is lossless).
std::string fingerprint(const Suggestion &S) {
  std::string F = std::to_string(S.Ticket) + "|" +
                  std::to_string(int(S.Phase)) + "|" +
                  std::to_string(S.ObservationsPerConfig);
  for (const Config &C : S.Configs) {
    F += "|";
    for (uint16_t V : C)
      F += std::to_string(V) + ",";
  }
  // Declined configs are part of the replay contract too: a restored
  // session must reproduce every skip decision bit-identically.
  F += "|skipped:";
  for (const Config &C : S.Skipped) {
    F += "|";
    for (uint16_t V : C)
      F += std::to_string(V) + ",";
  }
  return F;
}

/// The client side of a session: measures suggested configs with its own
/// virtual profiler (state survives server restarts, like a real user's
/// machine does).
struct Client {
  explicit Client(const std::string &Benchmark)
      : Bench(createSpaptBenchmark(Benchmark)), Lab(*Bench, 0xc11e47) {}

  std::vector<double> measure(const Suggestion &S) {
    std::vector<double> Costs;
    for (const Config &C : S.Configs) {
      std::vector<double> Obs = Lab.measure(C, S.ObservationsPerConfig);
      Costs.insert(Costs.end(), Obs.begin(), Obs.end());
    }
    return Costs;
  }

  std::unique_ptr<SpaptBenchmark> Bench;
  Profiler Lab;
};

/// Runs suggest/measure/observe rounds until the session completes or
/// \p MaxRounds is hit, appending each round's suggestion fingerprint.
void drain(ServeEngine &Engine, const std::string &Id, Client &C,
           std::vector<std::string> &Fingerprints,
           size_t MaxRounds = size_t(-1)) {
  for (size_t Round = 0; Round != MaxRounds; ++Round) {
    Suggestion S;
    std::string Err;
    ASSERT_TRUE(Engine.suggest(Id, S, Err)) << Err;
    if (S.Phase == SuggestPhase::Done)
      return;
    Fingerprints.push_back(fingerprint(S));
    ASSERT_TRUE(Engine.observe(Id, S.Ticket, C.measure(S), Err)) << Err;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The split loop is the batch loop
//===----------------------------------------------------------------------===//

// Drives one learner with step() and its twin with suggest/observe plus
// an external profiler on the same stream seed; every counter and every
// model prediction must match bitwise.
TEST(ServeSplit, SuggestObserveMatchesBatchStep) {
  auto Bench = createSpaptBenchmark("mvt");
  Dataset Data = buildDataset(*Bench, 150, 0.75, 5, 11);

  ExperimentScale Scale = ExperimentScale::preset(ScaleKind::Smoke);
  Scale.Particles = 30;
  ActiveLearnerConfig Cfg;
  Scale.applyTo(Cfg);
  Cfg.MaxTrainingExamples = 12;
  Cfg.CandidatesPerIteration = 10;
  Cfg.ReferenceSetSize = 12;
  Cfg.Seed = 5;

  for (SamplingPlan Plan :
       {SamplingPlan::sequential(4), SamplingPlan::fixed(3)}) {
    auto ModelA = makeSurrogateModel(ModelKind::DynaTree, Scale, Cfg.Seed);
    auto ModelB = makeSurrogateModel(ModelKind::DynaTree, Scale, Cfg.Seed);
    ActiveLearner A(*Bench, *ModelA, Data.Norm, Data.TrainPool, Plan, Cfg);
    ActiveLearner B(*Bench, *ModelB, Data.Norm, Data.TrainPool, Plan, Cfg);

    // B's "client" measures with the learner-internal profiler's exact
    // stream seed, so both learners see identical observations.
    Profiler Lab(*Bench, hashCombine({Cfg.Seed, 0x50524f46ull}));

    while (A.step()) {
    }
    while (true) {
      const Suggestion &S = B.suggest();
      if (S.Phase == SuggestPhase::Done)
        break;
      std::vector<double> Costs;
      for (const Config &C : S.Configs) {
        std::vector<double> Obs = Lab.measure(C, S.ObservationsPerConfig);
        Costs.insert(Costs.end(), Obs.begin(), Obs.end());
      }
      ASSERT_TRUE(B.observe(S.Ticket, Costs));
    }

    EXPECT_EQ(A.stats().Iterations, B.stats().Iterations);
    EXPECT_EQ(A.stats().DistinctExamples, B.stats().DistinctExamples);
    EXPECT_EQ(A.stats().Revisits, B.stats().Revisits);
    EXPECT_EQ(A.stats().Observations, B.stats().Observations);
    for (size_t I = 0; I != std::min<size_t>(25, Data.TestFeatures.size());
         ++I) {
      Prediction PA = ModelA->predict(Data.TestFeatures[I]);
      Prediction PB = ModelB->predict(Data.TestFeatures[I]);
      ASSERT_EQ(PA.Mean, PB.Mean);
      ASSERT_EQ(PA.Variance, PB.Variance);
    }
  }
}

//===----------------------------------------------------------------------===//
// Restart invisibility
//===----------------------------------------------------------------------===//

// Kills the engine after k observes, restores from snapshots, and pins
// that every remaining suggestion is byte-identical to an uninterrupted
// session — across worker counts and steal seeds.
TEST(ServeEngineTest, RestartInvisibleAtAnyWorkerCount) {
  // Uninterrupted reference session.
  std::vector<std::string> Reference;
  {
    ServeEngine Engine(engineOptions("", 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("ref", tinySpec(), Err)) << Err;
    Client C("atax");
    drain(Engine, "ref", C, Reference);
    ASSERT_GT(Reference.size(), 8u);
  }

  struct Variant {
    unsigned Threads;
    uint64_t StealSeed;
    const char *Name;
  };
  const Variant Variants[] = {
      {0, 0x57ea1ull, "w0"},
      {1, 0x57ea1ull, "w1"},
      {8, 0x57ea1ull, "w8"},
      {8, 0xfeedull, "w8-steal"},
  };
  const size_t KillAfter = 6;

  for (const Variant &V : Variants) {
    SCOPED_TRACE(V.Name);
    std::string Dir = freshStateDir(std::string("restart_") + V.Name);
    Client C("atax");
    std::vector<std::string> Seen;
    {
      ServeEngine Engine(engineOptions(Dir, V.Threads, V.StealSeed));
      std::string Err;
      ASSERT_TRUE(Engine.openSession("s", tinySpec(), Err)) << Err;
      drain(Engine, "s", C, Seen, KillAfter);
      // Engine dropped here with the session mid-flight: the only state
      // that survives is the snapshot directory, exactly like SIGKILL
      // (every observe snapshotted, so nothing is newer than disk).
    }
    {
      ServeEngine Engine(engineOptions(Dir, V.Threads, V.StealSeed));
      size_t Skipped = 99;
      ASSERT_EQ(Engine.restoreSessions(&Skipped), 1u);
      EXPECT_EQ(Skipped, 0u);
      drain(Engine, "s", C, Seen);

      SessionInfo Info;
      std::string Err;
      ASSERT_TRUE(Engine.sessionInfo("s", Info, Err));
      EXPECT_TRUE(Info.Done);
    }
    EXPECT_EQ(Seen, Reference);
    std::filesystem::remove_all(Dir);
  }
}

// A snapshot cadence above 1 restores to the last multiple of the
// cadence; the client's stale ticket is then rejected and a re-suggest
// resynchronizes.
TEST(ServeEngineTest, CheckpointCadenceRestoresToLastSnapshot) {
  std::string Dir = freshStateDir("cadence");
  ServeOptions Opts = engineOptions(Dir, 0);
  Opts.CheckpointEveryObserves = 3;
  Client C("atax");
  {
    ServeEngine Engine(Opts);
    std::string Err;
    ASSERT_TRUE(Engine.openSession("s", tinySpec(), Err)) << Err;
    std::vector<std::string> Seen;
    drain(Engine, "s", C, Seen, 8); // snapshots after observes 3 and 6
  }
  {
    ServeEngine Engine(Opts);
    ASSERT_EQ(Engine.restoreSessions(), 1u);
    SessionInfo Info;
    std::string Err;
    ASSERT_TRUE(Engine.sessionInfo("s", Info, Err));
    EXPECT_EQ(Info.Observes, 6u);
  }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Ticket lifecycle and error paths
//===----------------------------------------------------------------------===//

TEST(ServeEngineTest, SuggestIsIdempotentWhileOutstanding) {
  ServeEngine Engine(engineOptions("", 0));
  std::string Err;
  ASSERT_TRUE(Engine.openSession("s", tinySpec(), Err)) << Err;

  Suggestion First, Again;
  ASSERT_TRUE(Engine.suggest("s", First, Err));
  ASSERT_TRUE(Engine.suggest("s", Again, Err));
  EXPECT_EQ(fingerprint(First), fingerprint(Again));
  EXPECT_EQ(First.Phase, SuggestPhase::Explore);

  // Wrong ticket, wrong cost count, then success, then stale ticket.
  std::vector<double> Costs(First.Configs.size() *
                                First.ObservationsPerConfig,
                            0.5);
  EXPECT_FALSE(Engine.observe("s", First.Ticket + 7, Costs, Err));
  EXPECT_FALSE(Engine.observe("s", First.Ticket,
                              std::vector<double>(3, 0.5), Err));
  EXPECT_TRUE(Engine.observe("s", First.Ticket, Costs, Err)) << Err;
  EXPECT_FALSE(Engine.observe("s", First.Ticket, Costs, Err));

  // The next suggestion is a fresh ticket in the refine phase.
  ASSERT_TRUE(Engine.suggest("s", Again, Err));
  EXPECT_EQ(Again.Ticket, First.Ticket + 1);
  EXPECT_EQ(Again.Phase, SuggestPhase::Refine);
}

TEST(ServeEngineTest, ErrorPaths) {
  ServeEngine Engine(engineOptions("", 0));
  std::string Err;
  Suggestion S;
  EXPECT_FALSE(Engine.suggest("nope", S, Err));
  EXPECT_FALSE(Engine.observe("nope", 1, {0.5}, Err));
  SessionInfo Info;
  EXPECT_FALSE(Engine.sessionInfo("nope", Info, Err));
  EXPECT_FALSE(Engine.closeSession("nope"));

  EXPECT_FALSE(Engine.openSession("bad id!", tinySpec(), Err));
  EXPECT_FALSE(Engine.openSession("", tinySpec(), Err));
  SessionSpec Unknown = tinySpec();
  Unknown.Benchmark = "no-such-kernel";
  EXPECT_FALSE(Engine.openSession("s", Unknown, Err));

  ASSERT_TRUE(Engine.openSession("s", tinySpec(), Err)) << Err;
  EXPECT_FALSE(Engine.openSession("s", tinySpec(), Err)); // duplicate

  // Evaluation needs a fitted model; the fresh session is still explore.
  double Rmse = 0.0;
  EXPECT_FALSE(Engine.evaluate("s", Rmse, Err));

  EXPECT_TRUE(Engine.closeSession("s"));
  EXPECT_EQ(Engine.sessionCount(), 0u);
}

// closeSession racing in-flight calls on the same session: the callers
// hold a reference-counted handle, so under ASan/TSan this pins that no
// call ever touches a destroyed session (failed "unknown session" replies
// are the expected outcome, crashes and races are not).  Observes append
// to the session journal, and a closed session leaves no journal behind.
TEST(ServeEngineTest, CloseRacingInFlightCallsIsSafe) {
  std::string Dir = freshStateDir("close_race");
  ServeEngine Engine(engineOptions(Dir, 0));
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Hammers;
  for (int T = 0; T != 2; ++T)
    Hammers.emplace_back([&Engine, &Stop] {
      while (!Stop.load(std::memory_order_relaxed)) {
        Suggestion S;
        SessionInfo Info;
        std::string Err;
        if (Engine.suggest("raced", S, Err) &&
            S.Phase != SuggestPhase::Done)
          Engine.observe("raced", S.Ticket,
                         std::vector<double>(S.Configs.size() *
                                                 S.ObservationsPerConfig,
                                             0.5),
                         Err);
        Engine.sessionInfo("raced", Info, Err);
      }
    });
  std::string Err;
  for (int Round = 0; Round != 50; ++Round) {
    ASSERT_TRUE(Engine.openSession("raced", tinySpec(Round + 1), Err))
        << Err;
    EXPECT_TRUE(Engine.closeSession("raced"));
  }
  Stop = true;
  for (std::thread &H : Hammers)
    H.join();
  EXPECT_EQ(Engine.sessionCount(), 0u);
  EXPECT_FALSE(std::filesystem::exists(Dir + "/sess-raced.alsv"));
  std::filesystem::remove_all(Dir);
}

TEST(ServeEngineTest, CorruptSnapshotsAreSkippedNotFatal) {
  std::string Dir = freshStateDir("corrupt");
  {
    ServeEngine Engine(engineOptions(Dir, 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("good", tinySpec(), Err)) << Err;
    Client C("atax");
    std::vector<std::string> Seen;
    drain(Engine, "good", C, Seen, 4);
  }
  // A non-snapshot file and a truncated real snapshot in the state dir.
  {
    std::ofstream Bad(Dir + "/sess-bad.alsv", std::ios::binary);
    Bad << "this is not a snapshot";
  }
  {
    std::ifstream Good(Dir + "/sess-good.alsv", std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(Good)),
                      std::istreambuf_iterator<char>());
    std::ofstream Trunc(Dir + "/sess-trunc.alsv", std::ios::binary);
    Trunc.write(Bytes.data(), std::streamsize(Bytes.size() / 2));
  }
  {
    ServeEngine Engine(engineOptions(Dir, 0));
    size_t Skipped = 0;
    EXPECT_EQ(Engine.restoreSessions(&Skipped), 1u);
    EXPECT_EQ(Skipped, 2u);
    EXPECT_EQ(Engine.sessionIds(), std::vector<std::string>{"good"});
  }
  std::filesystem::remove_all(Dir);
}

TEST(ServeEngineTest, SnapshotFailureDegradesAndRetryRecovers) {
  std::string Dir = freshStateDir("dirty");
  ServeEngine Engine(engineOptions(Dir, 0));
  std::string Err;
  ASSERT_TRUE(Engine.openSession("s", tinySpec(), Err)) << Err;
  Client C("atax");
  std::vector<std::string> Seen;
  drain(Engine, "s", C, Seen, 2);

  // Every snapshot write now fails: observes must keep succeeding (the
  // session serves from memory) with the session reported dirty.
  FailSpec Fault;
  Fault.Errno = ENOSPC;
  armFailPoint("snapshot.write", Fault);
  drain(Engine, "s", C, Seen, 2);
  SessionInfo Info;
  ASSERT_TRUE(Engine.sessionInfo("s", Info, Err)) << Err;
  EXPECT_TRUE(Info.SnapshotDirty);
  disarmAllFailPoints();

  // The next observe on the cadence retries and recovers...
  drain(Engine, "s", C, Seen, 1);
  ASSERT_TRUE(Engine.sessionInfo("s", Info, Err)) << Err;
  EXPECT_FALSE(Info.SnapshotDirty);

  // ...and so does snapshotAll (the SIGTERM drain path).
  armFailPoint("snapshot.write", Fault);
  drain(Engine, "s", C, Seen, 1);
  ASSERT_TRUE(Engine.sessionInfo("s", Info, Err)) << Err;
  EXPECT_TRUE(Info.SnapshotDirty);
  disarmAllFailPoints();
  EXPECT_EQ(Engine.snapshotAll(), 1u);
  ASSERT_TRUE(Engine.sessionInfo("s", Info, Err)) << Err;
  EXPECT_FALSE(Info.SnapshotDirty);

  // The recovered snapshot is current: a restored engine's next
  // suggestion is byte-identical to the live engine's.
  Suggestion Live;
  ASSERT_TRUE(Engine.suggest("s", Live, Err)) << Err;
  ServeEngine Restored(engineOptions(Dir, 0));
  ASSERT_EQ(Restored.restoreSessions(), 1u);
  Suggestion FromDisk;
  ASSERT_TRUE(Restored.suggest("s", FromDisk, Err)) << Err;
  EXPECT_EQ(fingerprint(FromDisk), fingerprint(Live));
  std::filesystem::remove_all(Dir);
}

TEST(ServeEngineTest, InjectedRestoreFaultSkipsNotFatal) {
  std::string Dir = freshStateDir("restorefault");
  {
    ServeEngine Engine(engineOptions(Dir, 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("a", tinySpec(1), Err)) << Err;
    ASSERT_TRUE(Engine.openSession("b", tinySpec(2), Err)) << Err;
  }
  // The first snapshot read fails (as an unreadable file would); the
  // daemon must skip it and still restore the other session.
  FailSpec Fault;
  Fault.Errno = EIO;
  Fault.Count = 1;
  armFailPoint("snapshot.restore", Fault);
  ServeEngine Engine(engineOptions(Dir, 0));
  size_t Skipped = 0;
  EXPECT_EQ(Engine.restoreSessions(&Skipped), 1u);
  EXPECT_EQ(Skipped, 1u);
  EXPECT_EQ(Engine.sessionIds(), std::vector<std::string>{"b"});
  disarmAllFailPoints();
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Session journals: truncation, sealed retries, exact specs
//===----------------------------------------------------------------------===//

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream(Path, std::ios::binary) << Bytes;
}

/// A session with a two-example explore phase, so its journal records
/// are short and a byte-by-byte truncation sweep stays cheap.
SessionSpec smallRecordSpec() {
  SessionSpec Spec = tinySpec();
  Spec.Scale.NumInitial = 2;
  Spec.Scale.InitObservations = 2;
  return Spec;
}

/// Observes \p S with costs that depend only on their position.
void observeFixed(ServeEngine &Engine, const std::string &Id) {
  Suggestion S;
  std::string Err;
  ASSERT_TRUE(Engine.suggest(Id, S, Err)) << Err;
  std::vector<double> Costs(S.Configs.size() * S.ObservationsPerConfig);
  for (size_t I = 0; I != Costs.size(); ++I)
    Costs[I] = 0.25 + 0.125 * double(I);
  ASSERT_TRUE(Engine.observe(Id, S.Ticket, Costs, Err)) << Err;
}

std::string nextFingerprint(ServeEngine &Engine, const std::string &Id) {
  Suggestion S;
  std::string Err;
  EXPECT_TRUE(Engine.suggest(Id, S, Err)) << Err;
  return fingerprint(S);
}

} // namespace

// Every cut of a real journal restores exactly its complete records: the
// restored session's next suggestion is byte-identical to the live
// engine's after that many observes.  A cut inside the header skips the
// session.
TEST(ServeJournalTest, EveryTruncationRestoresTheCompleteRecordPrefix) {
  const size_t Rounds = 4;
  std::string Dir = freshStateDir("truncate");
  ServeOptions Opts = engineOptions(Dir, 0);
  Opts.DatasetCacheDir = Dir + "/datasets";
  std::vector<std::string> Live; // Live[k]: the suggestion after k observes
  {
    ServeEngine Engine(Opts);
    std::string Err;
    ASSERT_TRUE(Engine.openSession("s", smallRecordSpec(), Err)) << Err;
    Client C("atax");
    drain(Engine, "s", C, Live, Rounds);
    Live.push_back(nextFingerprint(Engine, "s"));
  }
  const std::string Path = Dir + "/sess-s.alsv";
  const std::string Journal = readFile(Path);
  // At --checkpoint-every=1: the header plus one record per observe.
  ASSERT_EQ(size_t(std::count(Journal.begin(), Journal.end(), '\n')),
            Rounds + 1);
  const size_t HeaderEnd = Journal.find('\n') + 1;

  for (size_t Cut = 0; Cut <= Journal.size(); ++Cut) {
    SCOPED_TRACE("journal cut at byte " + std::to_string(Cut));
    writeFile(Path, Journal.substr(0, Cut));
    ServeEngine Engine(Opts);
    size_t Skipped = 0;
    size_t Restored = Engine.restoreSessions(&Skipped);
    if (Cut < HeaderEnd) {
      EXPECT_EQ(Restored, 0u);
      EXPECT_EQ(Skipped, 1u);
      continue;
    }
    ASSERT_EQ(Restored, 1u);
    size_t Complete =
        size_t(std::count(Journal.begin(), Journal.begin() + Cut, '\n')) - 1;
    SessionInfo Info;
    std::string Err;
    ASSERT_TRUE(Engine.sessionInfo("s", Info, Err)) << Err;
    ASSERT_EQ(Info.Observes, Complete);
    EXPECT_EQ(nextFingerprint(Engine, "s"), Live[Complete]);
  }
  std::filesystem::remove_all(Dir);
}

// A retried append can leave a byte-identical repeat of a record and a
// sealed torn remnant; restore skips both, and the next append seals a
// torn tail instead of gluing onto it.
TEST(ServeJournalTest, SealedDuplicatesAndRemnantsAreSkipped) {
  const size_t Rounds = 3;
  std::string Reference;
  {
    ServeEngine Engine(engineOptions("", 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("s", smallRecordSpec(), Err)) << Err;
    Client C("atax");
    std::vector<std::string> Seen;
    drain(Engine, "s", C, Seen, Rounds);
    observeFixed(Engine, "s");
    Reference = nextFingerprint(Engine, "s");
  }

  std::string Dir = freshStateDir("duplicates");
  const std::string Path = Dir + "/sess-s.alsv";
  {
    ServeEngine Engine(engineOptions(Dir, 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("s", smallRecordSpec(), Err)) << Err;
    Client C("atax");
    std::vector<std::string> Seen;
    drain(Engine, "s", C, Seen, Rounds);
  }
  // Repeat record n=1 behind a sealed remnant, and leave a torn tail.
  std::string Journal = readFile(Path);
  size_t Second = Journal.find('\n', Journal.find('\n') + 1) + 1;
  size_t Third = Journal.find('\n', Second) + 1;
  std::string Record1 = Journal.substr(Second, Third - Second);
  ASSERT_EQ(Record1.rfind("{\"n\":1,", 0), 0u) << Record1;
  Journal.insert(Third, "{\"n\":2,\"co\n" + Record1);
  writeFile(Path, Journal + "{\"n\":3,\"costs\":[0.");

  {
    ServeEngine Engine(engineOptions(Dir, 0));
    ASSERT_EQ(Engine.restoreSessions(), 1u);
    SessionInfo Info;
    std::string Err;
    ASSERT_TRUE(Engine.sessionInfo("s", Info, Err)) << Err;
    EXPECT_EQ(Info.Observes, Rounds);
    observeFixed(Engine, "s");
  }
  ServeEngine Engine(engineOptions(Dir, 0));
  ASSERT_EQ(Engine.restoreSessions(), 1u);
  EXPECT_EQ(nextFingerprint(Engine, "s"), Reference);
  std::filesystem::remove_all(Dir);
}

// An open whose first header append tears (a short write) and is
// retried leaves a sealed remnant in front of the header.  The header is
// the first record that parses, so the session and its observes restore.
TEST(ServeJournalTest, TornHeaderAttemptStillRestores) {
  std::string Dir = freshStateDir("torn_header");
  std::vector<std::string> Live;
  FailSpec Fault;
  Fault.Mode = FailMode::Torn;
  Fault.TornBytes = 6;
  Fault.Count = 1;
  armFailPoint("snapshot.write", Fault);
  {
    ServeEngine Engine(engineOptions(Dir, 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("s", smallRecordSpec(), Err)) << Err;
    disarmAllFailPoints();
    SessionInfo Info;
    ASSERT_TRUE(Engine.sessionInfo("s", Info, Err)) << Err;
    EXPECT_FALSE(Info.SnapshotDirty);
    Client C("atax");
    drain(Engine, "s", C, Live, 2);
    Live.push_back(nextFingerprint(Engine, "s"));
  }
  const std::string Journal = readFile(Dir + "/sess-s.alsv");
  EXPECT_EQ(Journal.rfind("{\"alsv\n{\"alsv\":", 0), 0u) << Journal;
  ServeEngine Engine(engineOptions(Dir, 0));
  ASSERT_EQ(Engine.restoreSessions(), 1u);
  SessionInfo Info;
  std::string Err;
  ASSERT_TRUE(Engine.sessionInfo("s", Info, Err)) << Err;
  EXPECT_EQ(Info.Observes, 2u);
  EXPECT_EQ(nextFingerprint(Engine, "s"), Live.back());
  std::filesystem::remove_all(Dir);
}

// Every spec field survives the journal bit-exactly: policy doubles whose
// shortest decimal form is long, and a seed above 2^53 that a JSON
// number would round.  An out-of-sequence record is skipped, and the
// records appended after the restore follow it and replay in turn.
TEST(ServeJournalTest, ExactSpecFieldsRestoreTheIdenticalStream) {
  SessionSpec Spec = tinySpec();
  Spec.Seed = (uint64_t(1) << 63) + 12345;
  Spec.DatasetSeed = ~uint64_t(0) - 7;
  Spec.Query.Kind = QueryPolicyKind::CostRange;
  Spec.Query.Mellowness = 0.1234567890123;
  Spec.Query.RangeC1 = 0.1 + 1e-15;

  std::vector<std::string> Reference;
  {
    ServeEngine Engine(engineOptions("", 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("ref", Spec, Err)) << Err;
    Client C("atax");
    drain(Engine, "ref", C, Reference);
  }
  std::string Dir = freshStateDir("exact_spec");
  const std::string Path = Dir + "/sess-s.alsv";
  Client C("atax");
  std::vector<std::string> Seen;
  {
    ServeEngine Engine(engineOptions(Dir, 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("s", Spec, Err)) << Err;
    drain(Engine, "s", C, Seen, 3);
  }
  const std::string Journal = readFile(Path);
  const std::string Header = Journal.substr(0, Journal.find('\n') + 1);
  EXPECT_NE(Header.find("\"seed\":\"9223372036854788153\""), std::string::npos)
      << Header;
  EXPECT_NE(Header.find("\"mellowness\":0.1234567890123,"), std::string::npos)
      << Header;
  const std::string Stray = "{\"n\":7,\"costs\":[1]}\n";
  writeFile(Path, Journal + Stray);
  {
    ServeEngine Engine(engineOptions(Dir, 0));
    ASSERT_EQ(Engine.restoreSessions(), 1u);
    SessionInfo Info;
    std::string Err;
    ASSERT_TRUE(Engine.sessionInfo("s", Info, Err)) << Err;
    EXPECT_EQ(Info.Observes, 3u);
    EXPECT_FALSE(Info.SnapshotDirty);
    drain(Engine, "s", C, Seen);
  }
  EXPECT_EQ(Seen, Reference);
  EXPECT_EQ(readFile(Path).rfind(Journal + Stray + "{\"n\":3,", 0), 0u);
  ServeEngine Engine(engineOptions(Dir, 0));
  ASSERT_EQ(Engine.restoreSessions(), 1u);
  SessionInfo Info;
  std::string Err;
  ASSERT_TRUE(Engine.sessionInfo("s", Info, Err)) << Err;
  EXPECT_TRUE(Info.Done);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

namespace {

/// Dispatches one request and parses the reply object.
JsonValue roundTrip(ServeEngine &Engine, const std::string &Request,
                    bool *WantShutdown = nullptr) {
  std::string Reply;
  bool Shutdown = handleRequestLine(Engine, Request, Reply);
  if (WantShutdown)
    *WantShutdown = Shutdown;
  JsonValue Root;
  EXPECT_TRUE(parseJson(Reply.c_str(), Root)) << Reply;
  EXPECT_EQ(Root.K, JsonValue::Kind::Object) << Reply;
  return Root;
}

bool replyOk(const JsonValue &Reply) {
  const JsonValue *Ok = Reply.field("ok");
  return Ok && Ok->K == JsonValue::Kind::Bool && Ok->BoolValue;
}

} // namespace

TEST(ServeWireTest, FullExchange) {
  // The wire spec's scale comes from the environment; pin it small.
  ::setenv("ALIC_SCALE", "smoke", 1);
  ServeEngine Engine(engineOptions("", 0));

  EXPECT_TRUE(replyOk(roundTrip(Engine, "{\"op\":\"ping\"}")));

  JsonValue Opened = roundTrip(
      Engine, "{\"op\":\"open\",\"session\":\"w\",\"spec\":{"
              "\"benchmark\":\"atax\",\"model\":\"dynatree\","
              "\"scorer\":\"alm\",\"plan\":\"seq:4\",\"seed\":9,"
              "\"max_examples\":6}}");
  ASSERT_TRUE(replyOk(Opened));

  // Suggest returns the explore-phase seed configs and a ticket.
  JsonValue Suggested =
      roundTrip(Engine, "{\"op\":\"suggest\",\"session\":\"w\"}");
  ASSERT_TRUE(replyOk(Suggested));
  std::string Phase;
  ASSERT_TRUE(JsonReader(Suggested).string("phase", Phase).ok());
  EXPECT_EQ(Phase, "explore");
  double Ticket = 0, PerConfig = 0;
  ASSERT_TRUE(JsonReader(Suggested).number("ticket", Ticket).ok());
  ASSERT_TRUE(
      JsonReader(Suggested).number("observations_per_config", PerConfig).ok());
  const JsonValue *Configs = Suggested.field("configs");
  ASSERT_TRUE(Configs && Configs->K == JsonValue::Kind::Array);
  ASSERT_FALSE(Configs->Items.empty());

  // Re-suggest returns the identical ticket (idempotency on the wire).
  JsonValue Again = roundTrip(Engine, "{\"op\":\"suggest\",\"session\":\"w\"}");
  double Ticket2 = -1;
  ASSERT_TRUE(JsonReader(Again).number("ticket", Ticket2).ok());
  EXPECT_EQ(Ticket, Ticket2);

  // Observe with the right number of costs.
  size_t NumCosts = Configs->Items.size() * size_t(PerConfig);
  std::string Observe = "{\"op\":\"observe\",\"session\":\"w\",\"ticket\":" +
                        std::to_string(uint64_t(Ticket)) + ",\"costs\":[";
  for (size_t I = 0; I != NumCosts; ++I)
    Observe += (I ? ",0.5" : "0.5");
  Observe += "]}";
  EXPECT_TRUE(replyOk(roundTrip(Engine, Observe)));

  // A stale ticket is refused without advancing the session.
  EXPECT_FALSE(replyOk(roundTrip(Engine, Observe)));

  JsonValue Info = roundTrip(Engine, "{\"op\":\"info\",\"session\":\"w\"}");
  ASSERT_TRUE(replyOk(Info));
  double Observes = 0;
  ASSERT_TRUE(JsonReader(Info).number("observes", Observes).ok());
  EXPECT_EQ(Observes, 1.0);
  JsonValue Eval = roundTrip(Engine, "{\"op\":\"eval\",\"session\":\"w\"}");
  ASSERT_TRUE(replyOk(Eval));
  double Rmse = -1;
  ASSERT_TRUE(JsonReader(Eval).number("rmse", Rmse).ok());
  EXPECT_GE(Rmse, 0.0);

  EXPECT_TRUE(replyOk(roundTrip(Engine, "{\"op\":\"close\",\"session\":\"w\"}")));
  EXPECT_EQ(Engine.sessionCount(), 0u);
}

TEST(ServeWireTest, ErrorsAndShutdown) {
  ServeEngine Engine(engineOptions("", 0));

  EXPECT_FALSE(replyOk(roundTrip(Engine, "not json at all")));
  EXPECT_FALSE(replyOk(roundTrip(Engine, "{\"session\":\"x\"}")));
  EXPECT_FALSE(replyOk(roundTrip(Engine, "{\"op\":\"sugest\",\"session\":\"x\"}")));
  EXPECT_FALSE(replyOk(roundTrip(Engine, "{\"op\":\"suggest\",\"session\":\"x\"}")));
  EXPECT_FALSE(replyOk(roundTrip(
      Engine, "{\"op\":\"open\",\"session\":\"x\",\"spec\":{\"model\":\"svm\"}}")));
  EXPECT_FALSE(replyOk(roundTrip(
      Engine,
      "{\"op\":\"open\",\"session\":\"x\",\"spec\":{\"plan\":\"always\"}}")));

  // Every error above left the engine untouched.
  EXPECT_EQ(Engine.sessionCount(), 0u);

  bool Shutdown = false;
  EXPECT_TRUE(replyOk(roundTrip(Engine, "{\"op\":\"shutdown\"}", &Shutdown)));
  EXPECT_TRUE(Shutdown);
}

// Spec errors name the accepted token forms, byte for byte; the token
// codec behind them is the campaign's (exp/Campaign.h).
TEST(ServeWireTest, SpecTokenErrorsAreExact) {
  ServeEngine Engine(engineOptions("", 0));
  const std::pair<const char *, const char *> Cases[] = {
      {"\"model\":\"svm\"", "unknown model 'svm' (want dynatree|gp|gp_sor)"},
      {"\"scorer\":\"ucb\"", "unknown scorer 'ucb' (want alc|alm|random)"},
      {"\"plan\":\"seq:5x\"",
       "unknown plan 'seq:5x' (want seq:<cap>|fixed:<obs>)"},
      {"\"policy\":\"maybe\"",
       "unknown policy 'maybe' (want always|alm[:abs[:rel]]|cost[:c0[:c1]])"},
      {"\"model\":3", "field 'model' must be a string"},
      {"\"policy\":\"alm:inf\"",
       "unknown policy 'alm:inf' (want always|alm[:abs[:rel]]|cost[:c0[:c1]])"},
      {"\"policy\":\"cost:nan\"",
       "unknown policy 'cost:nan' (want always|alm[:abs[:rel]]|cost[:c0[:c1]])"},
  };
  for (const auto &[Field, Want] : Cases) {
    std::string Reply;
    handleRequestLine(Engine,
                      std::string("{\"op\":\"open\",\"session\":\"x\","
                                  "\"spec\":{") +
                          Field + "}}",
                      Reply);
    EXPECT_EQ(Reply, errorReply(Want));
  }
  EXPECT_EQ(errorReply("a \"quoted\" word"),
            "{\"ok\":false,\"error\":\"a \\\"quoted\\\" word\"}");
  EXPECT_EQ(Engine.sessionCount(), 0u);
}

// Integer fields are exact: a value a double rounds, truncates or wraps
// (2^32 into 0, 2.7 into 2, 2^53 + 1 into 2^53) is refused with one
// ok:false reply that leaves the engine untouched.
TEST(ServeWireTest, SpecIntegersAreExactAndInRange) {
  ::setenv("ALIC_SCALE", "smoke", 1);
  ServeEngine Engine(engineOptions("", 0));
  const char *U32 = "must be an integer from 0 to 4294967295";
  const char *Exact = "must be an integer from 0 to 9007199254740991";
  const std::pair<const char *, std::string> Cases[] = {
      {"\"max_examples\":4294967296",
       std::string("field 'max_examples' ") + U32},
      {"\"max_examples\":0", "field 'max_examples' must be positive"},
      {"\"batch\":4294967297", std::string("field 'batch' ") + U32},
      {"\"batch\":2.7", std::string("field 'batch' ") + U32},
      {"\"batch\":\"2\"", std::string("field 'batch' ") + U32},
      {"\"seed\":1e30", std::string("field 'seed' ") + Exact},
      {"\"seed\":9007199254740993", std::string("field 'seed' ") + Exact},
      {"\"seed\":-1", std::string("field 'seed' ") + Exact},
      {"\"dataset_seed\":0.5", std::string("field 'dataset_seed' ") + Exact},
  };
  for (const auto &[Field, Want] : Cases) {
    std::string Reply;
    handleRequestLine(Engine,
                      std::string("{\"op\":\"open\",\"session\":\"x\","
                                  "\"spec\":{\"benchmark\":\"atax\",") +
                          Field + "}}",
                      Reply);
    EXPECT_EQ(Reply, errorReply(Want)) << Field;
  }
  EXPECT_EQ(Engine.sessionCount(), 0u);

  // The largest exact seed is accepted.
  ASSERT_TRUE(replyOk(roundTrip(
      Engine, "{\"op\":\"open\",\"session\":\"t\",\"spec\":{"
              "\"benchmark\":\"atax\",\"seed\":9007199254740991,"
              "\"max_examples\":4}}")));
  JsonValue Suggested =
      roundTrip(Engine, "{\"op\":\"suggest\",\"session\":\"t\"}");
  ASSERT_TRUE(replyOk(Suggested));
  // A fractional ticket is refused, not truncated to ticket 0.
  for (const char *Ticket : {"0.5", "1.5", "-1", "1e30"}) {
    std::string Reply;
    handleRequestLine(Engine,
                      std::string("{\"op\":\"observe\",\"session\":\"t\","
                                  "\"ticket\":") +
                          Ticket + ",\"costs\":[]}",
                      Reply);
    EXPECT_EQ(Reply, errorReply(std::string("field 'ticket' ") + Exact))
        << Ticket;
  }
  SessionInfo Info;
  std::string Err;
  ASSERT_TRUE(Engine.sessionInfo("t", Info, Err)) << Err;
  EXPECT_EQ(Info.Observes, 0u);
  JsonValue Again = roundTrip(Engine, "{\"op\":\"suggest\",\"session\":\"t\"}");
  double Ticket = 0, Ticket2 = -1;
  ASSERT_TRUE(JsonReader(Suggested).number("ticket", Ticket).ok());
  ASSERT_TRUE(JsonReader(Again).number("ticket", Ticket2).ok());
  EXPECT_EQ(Ticket, Ticket2);
}

//===----------------------------------------------------------------------===//
// Query policies over the serve path
//===----------------------------------------------------------------------===//

// A cost-range session killed mid-flight must replay every skip decision
// bit-identically on restore — the skipped configs are in the
// fingerprint — across worker counts and steal seeds.
TEST(ServeEngineTest, PolicySkipsReplayIdenticallyAcrossRestarts) {
  SessionSpec Spec = tinySpec();
  Spec.Query.Kind = QueryPolicyKind::CostRange;
  // Aggressive constants: at this tiny stream length the defaults'
  // regret budget is still loose, and this test needs skips to happen.
  Spec.Query.Mellowness = 0.001;
  Spec.Query.RangeC1 = 0.1;

  std::vector<std::string> Reference;
  {
    ServeEngine Engine(engineOptions("", 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("ref", Spec, Err)) << Err;
    Client C("atax");
    drain(Engine, "ref", C, Reference);
    ASSERT_GT(Reference.size(), 4u);
  }
  // The policy must have declined something, or this pins nothing.
  size_t WithSkips = 0;
  for (const std::string &F : Reference)
    if (F.find("skipped:|") != std::string::npos)
      ++WithSkips;
  ASSERT_GT(WithSkips, 0u);

  struct Variant {
    unsigned Threads;
    uint64_t StealSeed;
    const char *Name;
  };
  const Variant Variants[] = {
      {0, 0x57ea1ull, "w0"},
      {1, 0x57ea1ull, "w1"},
      {8, 0x57ea1ull, "w8"},
      {8, 0xfeedull, "w8-steal"},
  };
  const size_t KillAfter = 3;

  for (const Variant &V : Variants) {
    SCOPED_TRACE(V.Name);
    std::string Dir = freshStateDir(std::string("policy_restart_") + V.Name);
    Client C("atax");
    std::vector<std::string> Seen;
    {
      ServeEngine Engine(engineOptions(Dir, V.Threads, V.StealSeed));
      std::string Err;
      ASSERT_TRUE(Engine.openSession("s", Spec, Err)) << Err;
      drain(Engine, "s", C, Seen, KillAfter);
    }
    {
      ServeEngine Engine(engineOptions(Dir, V.Threads, V.StealSeed));
      size_t Skipped = 99;
      ASSERT_EQ(Engine.restoreSessions(&Skipped), 1u);
      EXPECT_EQ(Skipped, 0u);
      drain(Engine, "s", C, Seen);
    }
    EXPECT_EQ(Seen, Reference);
    std::filesystem::remove_all(Dir);
  }
}

TEST(ServeWireTest, PolicyFieldsOnTheWire) {
  ::setenv("ALIC_SCALE", "smoke", 1);
  ServeEngine Engine(engineOptions("", 0));

  // An unknown policy token is refused and opens nothing.
  EXPECT_FALSE(replyOk(roundTrip(
      Engine,
      "{\"op\":\"open\",\"session\":\"q\",\"spec\":{\"policy\":\"maybe\"}}")));
  EXPECT_EQ(Engine.sessionCount(), 0u);

  ASSERT_TRUE(replyOk(roundTrip(
      Engine, "{\"op\":\"open\",\"session\":\"q\",\"spec\":{"
              "\"benchmark\":\"atax\",\"plan\":\"seq:4\",\"seed\":9,"
              "\"max_examples\":6,\"policy\":\"cost:0.1:0.03\"}}")));

  // Suggest replies always carry the skipped array (empty pre-refine).
  JsonValue Suggested =
      roundTrip(Engine, "{\"op\":\"suggest\",\"session\":\"q\"}");
  ASSERT_TRUE(replyOk(Suggested));
  const JsonValue *Skipped = Suggested.field("skipped");
  ASSERT_TRUE(Skipped && Skipped->K == JsonValue::Kind::Array);
  EXPECT_TRUE(Skipped->Items.empty());

  // Info splits the consumed refine picks into queries + skips.
  JsonValue Info = roundTrip(Engine, "{\"op\":\"info\",\"session\":\"q\"}");
  ASSERT_TRUE(replyOk(Info));
  double Queries = -1, Skips = -1;
  ASSERT_TRUE(JsonReader(Info).number("queries", Queries).ok());
  ASSERT_TRUE(JsonReader(Info).number("skips", Skips).ok());
  EXPECT_EQ(Queries, 0.0);
  EXPECT_EQ(Skips, 0.0);
}
