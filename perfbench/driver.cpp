//===- perfbench/driver.cpp - In-process runs for the repo benchmark ------===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
//
// The benchmark's own C++ half (run.py drives it).  It calls only the
// library's public API and records timing spans *around* those calls, so
// the program under test carries no tracing of its own:
//
//   datasets  --cache=DIR --kernels=a,b
//       loadOrBuildDataset for every kernel (the campaigns' set-up step).
//   cells     --cache=DIR --kernels=a,b --model=dynatree|gp --scorers=LIST
//             --threads=N --lines=FILE --plain-lines=FILE --spans=FILE
//       Every run cell of the matching alic_campaign spec, twice: once
//       through runLearning (untraced), once through a mirror of its loop
//       over forwarding decorators that time each model and oracle call.
//       Both write ledger-format lines so run.py can byte-compare them
//       with the campaign ledger.
//   serve-replay --state-dir=DIR --threads=N --requests=FILE
//                --replies=FILE --times=FILE
//       Replays recorded wire requests through handleRequestLine on one
//       in-process ServeEngine, timing each dispatch.
//   restore   --state-dir=DIR --threads=N
//       Times ServeEngine::restoreSessions on a snapshot directory.
//
// Every subcommand prints one JSON object on stdout.
//
//===----------------------------------------------------------------------===//

#include "exp/Campaign.h"
#include "serve/ServeEngine.h"
#include "serve/Wire.h"
#include "spapt/Suite.h"
#include "stats/Metrics.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Scheduler.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <sys/stat.h>
#include <vector>

using namespace alic;

namespace {

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

double seconds(uint64_t Ns) { return double(Ns) * 1e-9; }

//===----------------------------------------------------------------------===//
// Spans: kept in memory, written out once the run ends.
//===----------------------------------------------------------------------===//

// Span kinds, in the order of SpanNames (run.py reads the names).
enum SpanKind : unsigned {
  Cell, Step, Eval, Fit, Update, Predict, PredictBatch, Alm, Alc, Oracle,
};
const char *const SpanNames[] = {"cell",   "step",    "eval",
                                 "fit",    "update",  "predict",
                                 "predict_batch", "alm", "alc", "oracle"};

struct Span {
  unsigned Kind;
  uint64_t Id, Parent, T0, T1, Rows;
};

std::mutex SpanMutex;
std::vector<Span> Spans;
std::atomic<uint64_t> NextSpanId{1};
// The innermost open span on the cell thread.  Model internals may call
// back from scheduler workers (the oracle inside batched measurement);
// those spans have no open span of their own thread and attach here.
std::atomic<uint64_t> CellThreadSpan{0};
thread_local bool IsCellThread = false;
thread_local uint64_t OpenSpan = 0;

class ScopedSpan {
public:
  explicit ScopedSpan(SpanKind Kind, uint64_t Rows = 0)
      : Kind(Kind), Id(NextSpanId.fetch_add(1, std::memory_order_relaxed)),
        Rows(Rows), Saved(OpenSpan) {
    Parent = OpenSpan ? OpenSpan
                      : (IsCellThread ? 0 : CellThreadSpan.load());
    OpenSpan = Id;
    if (IsCellThread)
      CellThreadSpan.store(Id);
    T0 = nowNs();
  }
  ~ScopedSpan() {
    uint64_t T1 = nowNs();
    OpenSpan = Saved;
    if (IsCellThread)
      CellThreadSpan.store(Saved);
    std::lock_guard<std::mutex> Lock(SpanMutex);
    Spans.push_back({Kind, Id, Parent, T0, T1, Rows});
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  unsigned Kind;
  uint64_t Id, Parent = 0, T0 = 0, Rows;
  uint64_t Saved;
};

//===----------------------------------------------------------------------===//
// Forwarding decorators.  Each forwards every virtual, so the wrapped
// object sees exactly the calls it would see undecorated.
//===----------------------------------------------------------------------===//

class TracedModel final : public SurrogateModel {
public:
  explicit TracedModel(std::unique_ptr<SurrogateModel> Inner)
      : Inner(std::move(Inner)) {}

  void fit(const FlatRows &X, const std::vector<double> &Y) override {
    ScopedSpan S(Fit, X.size());
    Inner->fit(X, Y);
  }
  void update(RowRef X, double Y) override {
    ScopedSpan S(Update, 1);
    Inner->update(X, Y);
  }
  Prediction predict(RowRef X) const override {
    ScopedSpan S(Predict, 1);
    return Inner->predict(X);
  }
  void predictBatch(const FlatRows &X, size_t Count,
                    Prediction *Out) const override {
    ScopedSpan S(PredictBatch, Count);
    Inner->predictBatch(X, Count, Out);
  }
  std::vector<double> almScores(const FlatRows &Candidates,
                                const ScoreContext &Ctx) const override {
    ScopedSpan S(Alm, Candidates.size());
    return Inner->almScores(Candidates, Ctx);
  }
  std::vector<double> alcScores(const FlatRows &Candidates,
                                const FlatRows &Reference,
                                const ScoreContext &Ctx) const override {
    ScopedSpan S(Alc, Candidates.size());
    return Inner->alcScores(Candidates, Reference, Ctx);
  }
  size_t numObservations() const override { return Inner->numObservations(); }
  void setScheduler(Scheduler *Workers) override {
    Inner->setScheduler(Workers);
  }

private:
  std::unique_ptr<SurrogateModel> Inner;
};

class TracedOracle final : public WorkloadOracle {
public:
  explicit TracedOracle(const WorkloadOracle &Inner) : Inner(Inner) {}

  const ParamSpace &space() const override { return Inner.space(); }
  double meanRuntimeSeconds(const Config &C) const override {
    ScopedSpan S(Oracle, 1);
    return Inner.meanRuntimeSeconds(C);
  }
  double compileSeconds(const Config &C) const override {
    ScopedSpan S(Oracle, 1);
    return Inner.compileSeconds(C);
  }
  const NoiseProfile &noise() const override { return Inner.noise(); }

private:
  const WorkloadOracle &Inner;
};

//===----------------------------------------------------------------------===//
// Campaign cells
//===----------------------------------------------------------------------===//

/// runLearning's loop over the traced decorators.  runLearning wraps the
/// benchmark in a noise-scaling oracle; at scale 1 that oracle returns
/// the benchmark's own values, so the decorator wraps the benchmark.
RunResult runTracedCell(const SpaptBenchmark &B, const Dataset &D,
                        const CampaignCell &Cell, const ExperimentScale &S,
                        uint64_t Seed, Scheduler *Workers) {
  TracedOracle TOracle(B);
  TracedModel Model(makeSurrogateModel(Cell.Model, S, Seed));

  ActiveLearnerConfig Cfg;
  Cfg.Scorer = Cell.Scorer;
  Cfg.BatchSize = Cell.BatchSize;
  Cfg.Query = Cell.Policy;
  S.applyTo(Cfg);
  Cfg.Seed = Seed;
  ActiveLearner Learner(TOracle, Model, D.Norm, D.TrainPool, Cell.Plan, Cfg,
                        Workers);

  size_t NumEval = std::min(S.TestSubset, D.TestFeatures.size());
  auto evalRmse = [&]() {
    ScopedSpan Span(Eval);
    std::vector<Prediction> Preds(NumEval);
    Model.predictBatch(D.TestFeatures, NumEval, Preds.data());
    std::vector<double> Pred(NumEval), Actual(NumEval);
    for (size_t I = 0; I != NumEval; ++I) {
      Pred[I] = Preds[I].Mean;
      Actual[I] = D.TestMeans[I];
    }
    return rootMeanSquaredError(Pred, Actual);
  };
  auto step = [&]() {
    ScopedSpan Span(Step);
    return Learner.step();
  };

  RunResult Result;
  step();
  Result.Curve.push_back({0, Learner.cumulativeCostSeconds(), evalRmse()});
  while (step()) {
    size_t Iter = Learner.stats().Iterations;
    if (Iter % S.EvalEvery == 0 || Learner.done())
      Result.Curve.push_back(
          {Iter, Learner.cumulativeCostSeconds(), evalRmse()});
  }
  if (Result.Curve.back().Iteration != Learner.stats().Iterations)
    Result.Curve.push_back({Learner.stats().Iterations,
                            Learner.cumulativeCostSeconds(), evalRmse()});
  Result.Stats = Learner.stats();
  Result.FinalRmse = Result.Curve.back().Rmse;
  Result.TotalCostSeconds = Learner.cumulativeCostSeconds();
  return Result;
}

/// The campaign ledger's line format for a run cell.
std::string ledgerLine(const std::string &Key, const RunResult &R) {
  std::string Line = "{\"cell\":\"" + Key + "\"";
  Line += formatString(",\"iterations\":%zu,\"distinct\":%zu,"
                       "\"revisits\":%zu,\"observations\":%zu",
                       R.Stats.Iterations, R.Stats.DistinctExamples,
                       R.Stats.Revisits, R.Stats.Observations);
  if (R.Stats.Skips)
    Line += formatString(",\"skips\":%zu", R.Stats.Skips);
  Line += ",\"final_rmse\":" + formatJsonDouble(R.FinalRmse);
  Line += ",\"total_cost_seconds\":" + formatJsonDouble(R.TotalCostSeconds);
  Line += ",\"curve\":[";
  for (size_t I = 0; I != R.Curve.size(); ++I) {
    const CurvePoint &Point = R.Curve[I];
    if (I)
      Line += ",";
    Line += formatString("[%zu,", Point.Iteration);
    Line += formatJsonDouble(Point.CostSeconds) + ",";
    Line += formatJsonDouble(Point.Rmse) + "]";
  }
  return Line + "]}\n";
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

std::vector<std::string> splitList(const std::string &Csv) {
  std::vector<std::string> Parts;
  size_t Pos = 0;
  while (Pos <= Csv.size()) {
    size_t Comma = Csv.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Csv.size();
    if (Comma > Pos)
      Parts.push_back(Csv.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Parts;
}

[[noreturn]] void fail(const std::string &Message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", Message.c_str());
  std::exit(2);
}

std::map<std::string, std::string> parseFlags(int Argc, char **Argv) {
  std::map<std::string, std::string> Flags;
  for (int I = 2; I < Argc; ++I) {
    const char *Arg = Argv[I];
    const char *Eq = std::strchr(Arg, '=');
    if (std::strncmp(Arg, "--", 2) != 0 || !Eq)
      fail(std::string("bad argument ") + Arg);
    Flags[std::string(Arg + 2, Eq)] = Eq + 1;
  }
  return Flags;
}

std::string need(const std::map<std::string, std::string> &Flags,
                 const char *Name) {
  auto It = Flags.find(Name);
  if (It == Flags.end())
    fail(std::string("missing --") + Name);
  return It->second;
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F || std::fwrite(Bytes.data(), 1, Bytes.size(), F) != Bytes.size())
    fail("cannot write " + Path);
  std::fclose(F);
}

int cmdDatasets(const std::map<std::string, std::string> &Flags) {
  ExperimentScale S = ExperimentScale::fromEnv();
  std::string Cache = need(Flags, "cache");
  uint64_t T0 = nowNs();
  for (const std::string &Name : splitList(need(Flags, "kernels"))) {
    auto B = createSpaptBenchmark(Name);
    loadOrBuildDataset(*B, S.NumConfigs, S.TrainFraction, S.MeanObservations,
                       CampaignDatasetSeed, Cache);
  }
  std::printf("{\"seconds\":%.9f}\n", seconds(nowNs() - T0));
  return 0;
}

int cmdCells(const std::map<std::string, std::string> &Flags) {
  // The spec alic_campaign builds for the same flags (--seeds=1
  // --no-noise), so cell keys and seeds match its ledger.
  CampaignSpec Spec;
  Spec.Scale = ExperimentScale::fromEnv();
  Spec.ScaleName = scaleName(getScaleKind());
  Spec.Plans = defaultCampaignPlans(Spec.Scale);
  Spec.Benchmarks = splitList(need(Flags, "kernels"));
  std::string ModelName = need(Flags, "model");
  if (ModelName != "dynatree" && ModelName != "gp")
    fail("unknown model " + ModelName);
  Spec.Models = {ModelName == "gp" ? ModelKind::Gp : ModelKind::DynaTree};
  Spec.Scorers.clear();
  for (const std::string &Name : splitList(need(Flags, "scorers")))
    Spec.Scorers.push_back(Name == "alm" ? ScorerKind::Alm : ScorerKind::Alc);
  Spec.Repetitions = 1;
  Spec.NoiseCells = false;

  unsigned Threads = unsigned(std::stoul(need(Flags, "threads")));
  std::unique_ptr<Scheduler> Pool;
  if (Threads)
    Pool = std::make_unique<Scheduler>(Threads);

  std::string Cache = need(Flags, "cache");
  std::map<std::string, Dataset> Datasets;
  for (const std::string &Name : Spec.Benchmarks) {
    auto B = createSpaptBenchmark(Name);
    Datasets.emplace(Name, loadOrBuildDataset(
                               *B, Spec.Scale.NumConfigs,
                               Spec.Scale.TrainFraction,
                               Spec.Scale.MeanObservations, Spec.DatasetSeed,
                               Cache));
  }

  IsCellThread = true;
  std::string TracedLines, PlainLines;
  uint64_t TracedNs = 0, PlainNs = 0;
  std::vector<CampaignCell> Cells = expandCells(Spec);
  for (size_t I = 0; I != Cells.size(); ++I) {
    const CampaignCell &Cell = Cells[I];
    auto B = createSpaptBenchmark(Cell.Benchmark);
    const Dataset &D = Datasets.at(Cell.Benchmark);
    uint64_t Seed = hashCombine({Spec.BaseRunSeed, uint64_t(Cell.Rep)});
    std::string Key = Cell.key(Spec);

    auto runPlain = [&] {
      RunOptions Options;
      Options.Model = Cell.Model;
      Options.Learner.Scorer = Cell.Scorer;
      Options.Learner.BatchSize = Cell.BatchSize;
      Options.Learner.Query = Cell.Policy;
      Options.Workers = Pool.get();
      uint64_t T0 = nowNs();
      RunResult R = runLearning(*B, D, Cell.Plan, Spec.Scale, Seed, Options);
      PlainNs += nowNs() - T0;
      PlainLines += ledgerLine(Key, R);
    };
    auto runTraced = [&] {
      uint64_t T0 = nowNs();
      RunResult R;
      {
        ScopedSpan Span(SpanKind::Cell);
        R = runTracedCell(*B, D, Cell, Spec.Scale, Seed, Pool.get());
      }
      TracedNs += nowNs() - T0;
      TracedLines += ledgerLine(Key, R);
    };
    // Alternate which side runs first so drift on the host hits both.
    if (I % 2) {
      runTraced();
      runPlain();
    } else {
      runPlain();
      runTraced();
    }
  }
  writeFile(need(Flags, "lines"), TracedLines);
  writeFile(need(Flags, "plain-lines"), PlainLines);

  std::string Out;
  for (const Span &S : Spans)
    Out += formatString("%s %llu %llu %llu %llu %llu\n", SpanNames[S.Kind],
                        (unsigned long long)S.Id, (unsigned long long)S.Parent,
                        (unsigned long long)S.T0, (unsigned long long)S.T1,
                        (unsigned long long)S.Rows);
  writeFile(need(Flags, "spans"), Out);

  std::printf("{\"cells\":%zu,\"traced_cell_s\":%.9f,\"plain_cell_s\":%.9f}\n",
              Cells.size(), seconds(TracedNs), seconds(PlainNs));
  return 0;
}

ServeOptions serveOptions(const std::map<std::string, std::string> &Flags) {
  // The options alic_serve derives from --state-dir/--threads with
  // --checkpoint-every=1.
  ServeOptions Opts;
  Opts.StateDir = need(Flags, "state-dir");
  Opts.DatasetCacheDir = Opts.StateDir + "/datasets";
  Opts.Threads = unsigned(std::stoul(need(Flags, "threads")));
  Opts.CheckpointEveryObserves = 1;
  return Opts;
}

off_t fileSize(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? St.st_size : 0;
}

int cmdServeReplay(const std::map<std::string, std::string> &Flags) {
  ServeOptions Opts = serveOptions(Flags);
  ServeEngine Engine(Opts);
  std::ifstream In(need(Flags, "requests"));
  if (!In)
    fail("cannot read requests");
  std::string Replies, Times;
  uint64_t WriteBytes = 0, Requests = 0;
  std::string Line;
  uint64_t LoopStart = nowNs();
  while (std::getline(In, Line)) {
    std::string Reply;
    uint64_t T0 = nowNs();
    handleRequestLine(Engine, Line, Reply);
    uint64_t T1 = nowNs();
    ++Requests;
    Replies += Reply + "\n";
    Times += std::to_string(T1 - T0) + "\n";
    // open and observe rewrite the session's whole snapshot.
    JsonValue Request;
    if (parseJson(Line.c_str(), Request)) {
      const JsonValue *Op = Request.field("op");
      const JsonValue *Id = Request.field("session");
      if (Op && Id && (Op->Str == "observe" || Op->Str == "open"))
        WriteBytes += uint64_t(
            fileSize(Opts.StateDir + "/sess-" + Id->Str + ".alsv"));
    }
  }
  uint64_t LoopNs = nowNs() - LoopStart;
  writeFile(need(Flags, "replies"), Replies);
  writeFile(need(Flags, "times"), Times);
  uint64_t SnapshotBytes = 0;
  for (const std::string &Id : Engine.sessionIds())
    SnapshotBytes += uint64_t(fileSize(Opts.StateDir + "/sess-" + Id + ".alsv"));
  std::printf("{\"requests\":%llu,\"loop_s\":%.9f,"
              "\"snapshot_write_bytes\":%llu,\"snapshot_bytes\":%llu}\n",
              (unsigned long long)Requests, seconds(LoopNs),
              (unsigned long long)WriteBytes,
              (unsigned long long)SnapshotBytes);
  return 0;
}

int cmdRestore(const std::map<std::string, std::string> &Flags) {
  ServeEngine Engine(serveOptions(Flags));
  size_t Skipped = 0;
  uint64_t T0 = nowNs();
  size_t Restored = Engine.restoreSessions(&Skipped);
  uint64_t T1 = nowNs();
  std::printf("{\"restore_s\":%.9f,\"sessions\":%zu,\"skipped\":%zu}\n",
              seconds(T1 - T0), Restored, Skipped);
  return Skipped ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    fail("usage: perfbench_driver datasets|cells|serve-replay|restore "
         "--flag=value...");
  std::string Cmd = Argv[1];
  std::map<std::string, std::string> Flags = parseFlags(Argc, Argv);
  if (Cmd == "datasets")
    return cmdDatasets(Flags);
  if (Cmd == "cells")
    return cmdCells(Flags);
  if (Cmd == "serve-replay")
    return cmdServeReplay(Flags);
  if (Cmd == "restore")
    return cmdRestore(Flags);
  fail("unknown subcommand " + Cmd);
}
