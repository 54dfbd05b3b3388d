//===- exp/Campaign.cpp ---------------------------------------*- C++ -*-===//

#include "exp/Campaign.h"

#include "exp/Dataset.h"
#include "exp/ShardLease.h"
#include "measure/Profiler.h"
#include "spapt/Suite.h"
#include "stats/Metrics.h"
#include "stats/OnlineStats.h"
#include "support/Error.h"
#include "support/FailPoint.h"
#include "support/Format.h"
#include "support/Journal.h"
#include "support/Json.h"
#include "support/Scheduler.h"
#include "support/Serialize.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <unordered_set>

using namespace alic;

//===----------------------------------------------------------------------===//
// Tokens, keys, fingerprints
//===----------------------------------------------------------------------===//

const char *alic::modelToken(ModelKind Kind) {
  switch (Kind) {
  case ModelKind::DynaTree:
    return "dynatree";
  case ModelKind::Gp:
    return "gp";
  case ModelKind::GpSor:
    return "gp_sor";
  }
  alic_unreachable("unknown model kind");
}

const char *alic::scorerToken(ScorerKind Kind) {
  switch (Kind) {
  case ScorerKind::Alc:
    return "alc";
  case ScorerKind::Alm:
    return "alm";
  case ScorerKind::Random:
    return "random";
  }
  alic_unreachable("unknown scorer kind");
}

std::string alic::planToken(const SamplingPlan &Plan) {
  if (Plan.PlanKind == SamplingPlan::Kind::Fixed)
    return "fixed:" + std::to_string(Plan.FixedObservations);
  return "seq:" + std::to_string(Plan.MaxObservationsPerExample);
}

bool alic::parseModelToken(const std::string &Token, ModelKind &Out) {
  for (ModelKind Kind : {ModelKind::DynaTree, ModelKind::Gp, ModelKind::GpSor})
    if (Token == modelToken(Kind)) {
      Out = Kind;
      return true;
    }
  return false;
}

bool alic::parseScorerToken(const std::string &Token, ScorerKind &Out) {
  for (ScorerKind Kind : {ScorerKind::Alc, ScorerKind::Alm, ScorerKind::Random})
    if (Token == scorerToken(Kind)) {
      Out = Kind;
      return true;
    }
  return false;
}

bool alic::parsePlanToken(const std::string &Token, SamplingPlan &Out) {
  size_t Colon = Token.find(':');
  std::string Kind = Token.substr(0, Colon);
  uint64_t Count = 0;
  if ((Kind != "seq" && Kind != "fixed") || Colon == std::string::npos ||
      !parseDecimal(Token.substr(Colon + 1), UINT32_MAX, Count))
    return false;
  Out = Kind == "seq" ? SamplingPlan::sequential(unsigned(Count))
                      : SamplingPlan::fixed(unsigned(Count));
  return true;
}

std::vector<SamplingPlan> alic::defaultCampaignPlans(const ExperimentScale &S) {
  return {SamplingPlan::fixed(35), SamplingPlan::fixed(1),
          SamplingPlan::sequential(S.ObservationCap)};
}

std::string alic::defaultCampaignStateDir(const std::string &ScaleName) {
  return "alic-campaign-" + ScaleName;
}

std::vector<std::string> CampaignSpec::benchmarkList() const {
  return Benchmarks.empty() ? spaptBenchmarkNames() : Benchmarks;
}

std::vector<QueryPolicyConfig> CampaignSpec::policyList() const {
  return Policies.empty() ? std::vector<QueryPolicyConfig>{QueryPolicyConfig()}
                          : Policies;
}

bool CampaignSpec::defaultPolicyAxis() const {
  std::vector<QueryPolicyConfig> List = policyList();
  return List.size() == 1 && List[0].Kind == QueryPolicyKind::Always;
}

unsigned CampaignSpec::repetitions() const {
  unsigned Reps = Repetitions ? Repetitions : Scale.Repetitions;
  return Reps ? Reps : 1;
}

namespace {

/// Hashes every parameter a cell's result depends on besides the cell
/// coordinates themselves, so one ledger can host many scales.
uint64_t scaleFingerprint(const CampaignSpec &Spec) {
  const ExperimentScale &S = Spec.Scale;
  uint64_t FractionBits;
  std::memcpy(&FractionBits, &S.TrainFraction, sizeof(FractionBits));
  return hashCombine(
      {uint64_t(S.NumConfigs), FractionBits, uint64_t(S.MeanObservations),
       uint64_t(S.NumInitial), uint64_t(S.InitObservations),
       uint64_t(S.MaxTrainingExamples), uint64_t(S.CandidatesPerIteration),
       uint64_t(S.ReferenceSetSize), uint64_t(S.Particles),
       uint64_t(S.EvalEvery), uint64_t(S.TestSubset),
       uint64_t(S.ObservationCap), Spec.DatasetSeed, Spec.BaseRunSeed});
}

} // namespace

std::string CampaignCell::key(const CampaignSpec &Spec) const {
  std::string Fp =
      formatString("fp=%016llx", (unsigned long long)scaleFingerprint(Spec));
  if (CellKind == Kind::Noise)
    return "noise|" + Benchmark + "|" + Fp;
  // Always cells keep the pre-policy key so ledgers written before the
  // policy axis stay valid and policy sweeps share their baseline cells.
  std::string PolicySegment = Policy.Kind == QueryPolicyKind::Always
                                  ? ""
                                  : "q=" + queryPolicyToken(Policy) + "|";
  return "run|" + Benchmark + "|" + modelToken(Model) + "|" +
         scorerToken(Scorer) + "|b" + std::to_string(BatchSize) + "|" +
         planToken(Plan) + "|" + PolicySegment + "r" + std::to_string(Rep) +
         "|" + Fp;
}

const RunResult *ComboResult::planResult(const CampaignSpec &Spec,
                                         const SamplingPlan &Plan) const {
  std::string Token = planToken(Plan);
  for (size_t I = 0; I != Spec.Plans.size() && I != PlanResults.size(); ++I)
    if (planToken(Spec.Plans[I]) == Token)
      return &PlanResults[I];
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Cell expansion
//===----------------------------------------------------------------------===//

std::vector<CampaignCell> alic::expandCells(const CampaignSpec &Spec) {
  std::vector<CampaignCell> Cells;
  unsigned Reps = Spec.repetitions();
  std::vector<QueryPolicyConfig> Policies = Spec.policyList();
  for (const std::string &Benchmark : Spec.benchmarkList()) {
    for (ModelKind Model : Spec.Models)
      for (ScorerKind Scorer : Spec.Scorers)
        for (unsigned Batch : Spec.BatchSizes)
          for (const SamplingPlan &Plan : Spec.Plans)
            for (const QueryPolicyConfig &Policy : Policies)
              for (unsigned Rep = 0; Rep != Reps; ++Rep) {
                CampaignCell C;
                C.CellKind = CampaignCell::Kind::Run;
                C.Benchmark = Benchmark;
                C.Model = Model;
                C.Scorer = Scorer;
                C.BatchSize = Batch;
                C.Plan = Plan;
                C.Policy = Policy;
                C.Rep = Rep;
                Cells.push_back(std::move(C));
              }
  }
  if (Spec.NoiseCells)
    for (const std::string &Benchmark : Spec.benchmarkList()) {
      CampaignCell C;
      C.CellKind = CampaignCell::Kind::Noise;
      C.Benchmark = Benchmark;
      Cells.push_back(std::move(C));
    }
  return Cells;
}

//===----------------------------------------------------------------------===//
// Ledger serialization (JSON machinery lives in support/Json)
//===----------------------------------------------------------------------===//

namespace {

/// One learning-curve point as [iteration, cumulative cost, rmse], the
/// form of both the ledger's full curves and the aggregate's decimated
/// ones.
void writeCurvePoint(JsonWriter &W, const CurvePoint &Point) {
  W.beginArray()
      .integer(Point.Iteration)
      .number(Point.CostSeconds)
      .number(Point.Rmse)
      .endArray();
}

} // namespace

std::string alic::cellLine(const std::string &Key, CampaignCell::Kind Kind,
                           const CellResult &Result) {
  JsonWriter W;
  W.beginObject().key("cell").string(Key);
  if (Kind == CampaignCell::Kind::Noise) {
    W.key("noise").numbers(Result.NoiseStats);
    return W.endObject().take() + "\n";
  }
  const RunResult &R = Result.Run;
  W.key("iterations").integer(R.Stats.Iterations);
  W.key("distinct").integer(R.Stats.DistinctExamples);
  W.key("revisits").integer(R.Stats.Revisits);
  W.key("observations").integer(R.Stats.Observations);
  // Only policy cells skip; omitting the zero keeps pre-policy ledger
  // lines (and Always cells' fresh lines) byte-identical.
  if (R.Stats.Skips)
    W.key("skips").integer(R.Stats.Skips);
  W.key("final_rmse").number(R.FinalRmse);
  W.key("total_cost_seconds").number(R.TotalCostSeconds);
  W.key("curve").beginArray();
  for (const CurvePoint &Point : R.Curve)
    writeCurvePoint(W, Point);
  W.endArray();
  return W.endObject().take() + "\n";
}

bool alic::parseCellLine(const std::string &Line, std::string &Key,
                         CellResult &Result) {
  JsonValue Root;
  if (!parseJson(Line.c_str(), Root))
    return false;
  JsonReader Fields(Root);
  if (Root.field("noise")) {
    Fields.string("cell", Key).numbers("noise", Result.NoiseStats);
    return Fields.ok() && Result.NoiseStats.size() == 9;
  }

  RunResult &R = Result.Run;
  R.Stats.Skips = 0; // absent in pre-policy ledgers and 0-skip cells
  Fields.string("cell", Key);
  Fields.integer("iterations", R.Stats.Iterations);
  Fields.integer("distinct", R.Stats.DistinctExamples);
  Fields.integer("revisits", R.Stats.Revisits);
  Fields.integer("observations", R.Stats.Observations);
  Fields.integer("skips", R.Stats.Skips, JsonReader::Optional);
  Fields.number("final_rmse", R.FinalRmse);
  Fields.number("total_cost_seconds", R.TotalCostSeconds);
  const JsonValue *Curve = Root.field("curve");
  if (!Fields.ok() || !Curve)
    return false;
  R.Curve.clear();
  std::vector<double> Point; // [iteration, cumulative cost, rmse]
  uint64_t Iteration = 0;
  for (const JsonValue &Item : Curve->Items) {
    if (!jsonNumbers(Item, Point) || Point.size() != 3 ||
        !jsonInteger(Item.Items[0], SIZE_MAX, Iteration))
      return false;
    R.Curve.push_back({size_t(Iteration), Point[1], Point[2]});
  }
  return !R.Curve.empty(); // also refuses a curve that is not an array
}

namespace {

/// Reads the ledgers at \p Paths, skipping unparsable lines (a crash can
/// leave one torn trailing record; its cell simply reruns on resume).
/// Cells are deterministic, so a key read twice — a retried append, or
/// two workers' ledgers — maps to interchangeable results.
std::unordered_map<std::string, CellResult>
loadLedger(const std::vector<std::string> &Paths) {
  std::unordered_map<std::string, CellResult> Ledger;
  std::vector<std::string> Lines;
  for (const std::string &Path : Paths) {
    (void)readJournal(Path, Lines); // a missing ledger is an empty one
    for (const std::string &Line : Lines) {
      std::string Key;
      CellResult Result;
      if (parseCellLine(Line, Key, Result))
        Ledger[Key] = std::move(Result);
    }
  }
  return Ledger;
}

//===----------------------------------------------------------------------===//
// Cell execution
//===----------------------------------------------------------------------===//

CellResult computeNoiseCell(const CampaignSpec &Spec,
                            const std::string &Benchmark) {
  auto B = createSpaptBenchmark(Benchmark);
  const ExperimentScale &S = Spec.Scale;
  // The Table 2 measurement: per-configuration runtime variance and the
  // paper's Section 4.3 CI/mean validation statistic for 35- and 5-sample
  // plans, summarized as min/mean/max across sampled configurations.
  size_t NumConfigs = std::min<size_t>(S.NumConfigs / 4, 600);
  Rng R(hashCombine({Spec.DatasetSeed, 0x7ab1e2ull}));
  std::vector<Config> Configs = B->space().sampleDistinct(R, NumConfigs);
  Profiler Prof(*B, 0x5eed);

  OnlineStats Var, Ci35, Ci5;
  for (const Config &C : Configs) {
    OnlineStats Runs, Five;
    std::vector<double> Obs = Prof.measure(C, 35);
    for (size_t I = 0; I != Obs.size(); ++I) {
      Runs.add(Obs[I]);
      // Streams are counter-based, so the first five observations are
      // exactly what a fresh 5-sample plan would draw.
      if (I < 5)
        Five.add(Obs[I]);
    }
    Var.add(Runs.variance());
    Ci35.add(Runs.ciOverMean());
    Ci5.add(Five.ciOverMean());
  }
  CellResult Result;
  Result.NoiseStats = {Var.min(),  Var.mean(),  Var.max(),
                       Ci35.min(), Ci35.mean(), Ci35.max(),
                       Ci5.min(),  Ci5.mean(),  Ci5.max()};
  return Result;
}

CellResult computeRunCell(const CampaignSpec &Spec, const CampaignCell &Cell,
                          const Dataset &D, Scheduler *Workers) {
  auto B = createSpaptBenchmark(Cell.Benchmark);
  RunOptions Options;
  Options.Model = Cell.Model;
  Options.Learner.Scorer = Cell.Scorer;
  Options.Learner.BatchSize = Cell.BatchSize;
  Options.Learner.Query = Cell.Policy;
  // Nested parallelism: this cell already runs as a scheduler task, and
  // its learner forks particle shards, scoring shards, and batched
  // profiler draws back onto the same pool — TaskGroup::wait helps
  // instead of blocking, so idle workers steal the inner shards at the
  // campaign tail.  Results are bit-identical with or without Workers.
  Options.Workers = Workers;
  uint64_t Seed = hashCombine({Spec.BaseRunSeed, uint64_t(Cell.Rep)});
  CellResult Result;
  Result.Run = runLearning(*B, D, Cell.Plan, Spec.Scale, Seed, Options);
  return Result;
}

/// Runs \p Fn(I) for every index either inline or across \p Pool.
void forEachIndex(Scheduler *Pool, size_t N,
                  const std::function<void(size_t)> &Fn) {
  if (!Pool) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }
  Pool->parallelFor(N, Fn);
}

//===----------------------------------------------------------------------===//
// Shared orchestration pieces (single- and multi-process modes)
//===----------------------------------------------------------------------===//

/// Every worker ledger under \p StateDir — the canonical cells.jsonl plus
/// any per-worker cells.<worker>.jsonl — sorted by name so reads are
/// deterministic.
std::vector<std::string> shardLedgerPaths(const std::string &StateDir) {
  std::vector<std::string> Paths;
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator(StateDir, Ec)) {
    std::string Name = Entry.path().filename().string();
    if (Name.rfind("cells", 0) == 0 && Name.size() > 6 &&
        Name.compare(Name.size() - 6, 6, ".jsonl") == 0)
      Paths.push_back(StateDir + "/" + Name);
  }
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

/// Creates Options.StateDir, fsyncing its parent on first creation so
/// the new directory entry itself survives a crash (the
/// writeFileDurable discipline, applied to the campaign's root).
Status prepareStateDir(const CampaignOptions &Options) {
  std::error_code Ec;
  bool Created = std::filesystem::create_directories(Options.StateDir, Ec);
  if (Ec)
    return Status::failure("create state dir " + Options.StateDir,
                           Ec.value());
  if (Created)
    (void)syncParentDir(Options.StateDir); // best-effort (EINVAL-tolerant)
  return Status::success();
}

/// Memoizes datasets for any of \p Benchmarks not yet in \p Datasets
/// (the blob cache makes this a deserialize everywhere after the first
/// build on the machine).
void ensureDatasets(const CampaignSpec &Spec, const CampaignOptions &Options,
                    Scheduler *Pool,
                    const std::vector<std::string> &Benchmarks,
                    std::unordered_map<std::string, Dataset> &Datasets) {
  std::vector<std::string> Needed;
  for (const std::string &Name : Benchmarks)
    if (!Datasets.count(Name) &&
        std::find(Needed.begin(), Needed.end(), Name) == Needed.end())
      Needed.push_back(Name);
  if (Needed.empty())
    return;
  std::mutex DatasetMutex;
  const ExperimentScale &S = Spec.Scale;
  forEachIndex(Pool, Needed.size(), [&](size_t I) {
    const std::string &Name = Needed[I];
    auto B = createSpaptBenchmark(Name);
    Dataset D = loadOrBuildDataset(*B, S.NumConfigs, S.TrainFraction,
                                   S.MeanObservations, Spec.DatasetSeed,
                                   Options.datasetCacheDir());
    std::lock_guard<std::mutex> Lock(DatasetMutex);
    Datasets.emplace(Name, std::move(D));
  });
}

/// One cell, either kind.
CellResult computeCell(const CampaignSpec &Spec, const CampaignCell &Cell,
                       const std::unordered_map<std::string, Dataset> &Datasets,
                       Scheduler *CellWorkers) {
  return Cell.CellKind == CampaignCell::Kind::Noise
             ? computeNoiseCell(Spec, Cell.Benchmark)
             : computeRunCell(Spec, Cell, Datasets.at(Cell.Benchmark),
                              CellWorkers);
}

/// The spec's cells deduplicated by key, in canonical expandCells order,
/// with their keys — the list every range source splits, so all workers
/// agree on range boundaries without talking to each other.
void uniqueCells(const CampaignSpec &Spec,
                 const std::vector<CampaignCell> &Cells,
                 std::vector<const CampaignCell *> &Unique,
                 std::vector<std::string> &Keys) {
  std::unordered_set<std::string> Seen;
  for (const CampaignCell &Cell : Cells) {
    std::string Key = Cell.key(Spec);
    if (Seen.insert(Key).second) {
      Unique.push_back(&Cell);
      Keys.push_back(std::move(Key));
    }
  }
}

//===----------------------------------------------------------------------===//
// Range sources: the one thing the campaign modes do differently
//===----------------------------------------------------------------------===//

/// Where the executor's work comes from: contiguous ranges of the unique
/// cell list.  Unsharded, all cells are one range done-checked against
/// the canonical ledger; a static --shard=i/N worker owns range i of an
/// N-way split, done-checked against the union of worker ledgers; a
/// lease worker sees every range of --lease-range-cells cells and claims
/// each through ShardLease before running it.
struct RangeSource {
  std::vector<ShardRange> Ranges;
  /// Done-ness is the union of every worker ledger, not the canonical one
  /// (a rebalanced or re-split fleet may have run our cells elsewhere).
  bool FromUnion = false;
  /// Lease mode only: the claim protocol; its holder rescans the union
  /// after each range.
  std::optional<ShardLease> Leases;
  /// First range of the cyclic scan (lease mode spreads workers out).
  size_t ScanStart = 0;
};

RangeSource rangeSource(const CampaignOptions &Options, size_t NumCells) {
  RangeSource Src;
  Src.FromUnion = Options.sharded();
  if (!Options.LeaseClaim) {
    Src.Ranges = {Options.ShardCount
                      ? splitRanges(NumCells, Options.ShardCount)
                            [Options.ShardIndex % Options.ShardCount]
                      : ShardRange{0, 0, NumCells}};
    return Src;
  }
  Src.Ranges = splitRangesByCells(
      NumCells, Options.LeaseRangeCells ? Options.LeaseRangeCells : 16);
  LeaseOptions LOpts;
  LOpts.Dir = Options.leaseDir();
  LOpts.OwnerToken = makeLeaseOwnerToken(Options.workerTag());
  LOpts.TtlMs = Options.LeaseTtlMs ? Options.LeaseTtlMs : 2000;
  LOpts.HeartbeatMs = Options.LeaseHeartbeatMs;
  // Start the cyclic claim scan at a token-derived offset so K workers
  // spread across the range list instead of all contending for range 0.
  uint64_t TokenHash = 0;
  for (char C : LOpts.OwnerToken)
    TokenHash = TokenHash * 131 + uint8_t(C);
  if (!Src.Ranges.empty())
    Src.ScanStart = size_t(TokenHash % Src.Ranges.size());
  Src.Leases.emplace(std::move(LOpts));
  return Src;
}

} // namespace

std::string CampaignOptions::workerTag() const {
  if (!WorkerId.empty())
    return WorkerId;
  if (ShardCount)
    return "shard" + std::to_string(ShardIndex) + "of" +
           std::to_string(ShardCount);
  return LeaseClaim ? "w" + std::to_string(int(::getpid())) : "";
}

//===----------------------------------------------------------------------===//
// Orchestration
//===----------------------------------------------------------------------===//

CampaignProgress alic::runCampaignCells(const CampaignSpec &Spec,
                                        const CampaignOptions &Options) {
  std::vector<CampaignCell> Cells = expandCells(Spec);
  std::vector<const CampaignCell *> Unique;
  std::vector<std::string> Keys;
  uniqueCells(Spec, Cells, Unique, Keys);
  RangeSource Src = rangeSource(Options, Unique.size());
  const std::string LedgerPath = Options.ledgerPath();
  const std::string Label =
      Options.sharded() ? "campaign[" + Options.workerTag() + "]"
                        : "campaign";
  const char *Tag = Label.c_str();

  CampaignProgress Progress;
  Progress.TotalCells = Unique.size();
  for (const ShardRange &Range : Src.Ranges)
    Progress.ShardCells += Range.size();

  // Settled[I]: cell I needs nothing more from this invocation — it is in
  // the ledger(s), or this invocation quarantined it.
  std::vector<char> Settled(Unique.size(), 0);
  auto Refresh = [&] {
    std::unordered_map<std::string, CellResult> Done =
        loadLedger(Src.FromUnion ? shardLedgerPaths(Options.StateDir)
                                 : std::vector<std::string>{LedgerPath});
    for (size_t I = 0; I != Keys.size(); ++I)
      if (Done.count(Keys[I]))
        Settled[I] = 1;
  };

  Status Prepared = prepareStateDir(Options);
  if (Prepared.ok() && Src.Leases)
    Prepared = Src.Leases->init();
  if (Prepared.ok()) {
    Refresh();
    for (const ShardRange &Range : Src.Ranges)
      for (size_t I = Range.Begin; I != Range.End; ++I)
        Progress.AlreadyDone += Settled[I];
    // With work to do, an empty append creates the ledger and seals any
    // crash remnant, so a ledger that cannot be written fails here,
    // before a cell is computed.  A rerun on a complete ledger writes
    // nothing.
    if (Progress.AlreadyDone != Progress.ShardCells)
      Prepared = appendJournal(LedgerPath, "", "ledger.append", "ledger.sync");
  }
  if (!Prepared.ok()) {
    // Nothing was lost (the cells are simply not in the ledger): a
    // re-launch retries exactly the quarantined cells.
    std::fprintf(stderr, "%s: %s — quarantining all missing cells\n", Tag,
                 Prepared.message().c_str());
    for (const ShardRange &Range : Src.Ranges)
      for (size_t I = Range.Begin; I != Range.End; ++I)
        if (!Settled[I])
          Progress.QuarantinedCells.push_back(Keys[I]);
    std::sort(Progress.QuarantinedCells.begin(),
              Progress.QuarantinedCells.end());
    return Progress;
  }

  // Built for the first range with work, so a rerun on a complete ledger
  // starts no scheduler and loads no dataset.
  std::unique_ptr<Scheduler> Pool;
  std::unordered_map<std::string, Dataset> Datasets;

  std::mutex WriteMutex;
  size_t Completed = 0, Appended = 0;
  size_t Budget = Options.MaxCells ? Options.MaxCells : SIZE_MAX;
  bool Stopped = false; // the --max-cells budget is spent
  while (!Stopped) {
    bool Ran = false, Waiting = false;
    for (size_t Off = 0; Off != Src.Ranges.size() && !Ran && !Stopped;
         ++Off) {
      const ShardRange &Range =
          Src.Ranges[(Src.ScanStart + Off) % Src.Ranges.size()];
      std::vector<size_t> Missing;
      for (size_t I = Range.Begin; I != Range.End; ++I)
        if (!Settled[I])
          Missing.push_back(I);
      if (Missing.empty())
        continue;
      if (!Budget) {
        Stopped = true;
        break;
      }
      RangeLease Lease;
      if (Src.Leases &&
          Src.Leases->tryClaim(Range.Index, Lease) !=
              ShardLease::Claim::Acquired) {
        Waiting = true; // live owner, or we lost a claim/steal race
        continue;
      }
      Ran = true;
      if (Src.Leases && !Options.Quiet)
        std::fprintf(stderr, "  %s leased range %zu (%zu missing cell(s))\n",
                     Tag, Range.Index, Missing.size());

      if (Options.ShuffleSeed) {
        Rng Shuffler(Options.ShuffleSeed);
        Shuffler.shuffle(Missing);
      }
      if (Missing.size() > Budget)
        Missing.resize(Budget);
      if (!Pool && Options.Threads) {
        Scheduler::Options SchedOptions;
        SchedOptions.Threads = Options.Threads;
        if (Options.StealSeed)
          SchedOptions.StealSeed = Options.StealSeed;
        Pool = std::make_unique<Scheduler>(SchedOptions);
        Progress.WorkersUsed = Pool->numThreads();
      }
      std::vector<std::string> Benchmarks;
      for (size_t I : Missing)
        if (Unique[I]->CellKind == CampaignCell::Kind::Run)
          Benchmarks.push_back(Unique[I]->Benchmark);
      ensureDatasets(Spec, Options, Pool.get(), Benchmarks, Datasets);

      std::optional<LeaseHeartbeat> Heartbeat;
      if (Lease.held())
        Heartbeat.emplace(Lease, Src.Leases->options());
      size_t CompletedBefore = Completed;
      forEachIndex(Pool.get(), Missing.size(), [&](size_t J) {
        // A lost heartbeat means the range was stolen: abandon the rest
        // (the thief recomputes them — safe, just duplicated work).
        if (Heartbeat && Heartbeat->lost())
          return;
        size_t I = Missing[J];
        const CampaignCell &Cell = *Unique[I];
        CellResult Result = computeCell(Spec, Cell, Datasets, Pool.get());
        std::string Line = cellLine(Keys[I], Cell.CellKind, Result);

        std::lock_guard<std::mutex> Lock(WriteMutex);
        // One synced journal record per cell: a crash loses at most the
        // in-flight line, which the parser skips on resume.  An append
        // that still fails after the journal's retries quarantines this
        // cell — the rest of the campaign keeps running, and a re-launch
        // retries exactly the quarantined keys.
        Status St =
            appendJournal(LedgerPath, Line, "ledger.append", "ledger.sync");
        Settled[I] = 1;
        ++Completed;
        if (St.ok()) {
          ++Appended;
          if (!Options.Quiet)
            std::fprintf(stderr, "  %s [%zu/%zu] %s\n", Tag,
                         Progress.AlreadyDone + Completed,
                         Progress.ShardCells, Keys[I].c_str());
        } else {
          Progress.QuarantinedCells.push_back(Keys[I]);
          std::fprintf(stderr, "  %s [%zu/%zu] QUARANTINED %s: %s\n", Tag,
                       Progress.AlreadyDone + Completed, Progress.ShardCells,
                       Keys[I].c_str(), St.message().c_str());
        }
      });
      Heartbeat.reset(); // stopped (joined) before the lease is released
      Budget -= Completed - CompletedBefore; // cells actually started
    }
    if (!Ran && !Stopped) {
      if (!Waiting)
        break; // nothing left that this invocation can run
      // The remaining ranges are leased by (apparently) live owners: wait
      // one heartbeat and rescan.  A dead owner's lease expires TtlMs
      // after its last renewal and the next scan steals it.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(Src.Leases->options().heartbeatMs()));
    }
    // Lease workers rescan the union after every range: cheap at campaign
    // scales, and it skips ranges another worker finished meanwhile.
    if (Src.Leases)
      Refresh();
  }
  if (Pool) {
    SchedulerStats Stats = Pool->stats();
    Progress.TasksExecuted = Stats.Executed;
    Progress.Steals = Stats.Steals;
  }
  Progress.NewlyRun = Appended;
  // Completion order varies across worker counts; report deterministically.
  std::sort(Progress.QuarantinedCells.begin(),
            Progress.QuarantinedCells.end());
  Progress.Complete = !Stopped && Progress.QuarantinedCells.empty();
  return Progress;
}

bool alic::aggregateCampaign(const CampaignSpec &Spec,
                             const CampaignOptions &Options,
                             CampaignResult &Out) {
  Out = CampaignResult();
  std::unordered_map<std::string, CellResult> Ledger =
      loadLedger({Options.ledgerPath()});
  for (const CampaignCell &Cell : expandCells(Spec))
    if (!Ledger.count(Cell.key(Spec)))
      return false;

  unsigned Reps = Spec.repetitions();
  std::vector<QueryPolicyConfig> Policies = Spec.policyList();
  std::vector<double> Speedups;
  std::vector<std::string> RunBenchmarks =
      Spec.Plans.empty() ? std::vector<std::string>() : Spec.benchmarkList();
  for (const std::string &Benchmark : RunBenchmarks)
    for (ModelKind Model : Spec.Models)
      for (ScorerKind Scorer : Spec.Scorers)
        for (unsigned Batch : Spec.BatchSizes)
          for (const QueryPolicyConfig &Policy : Policies) {
            ComboResult Combo;
            Combo.Benchmark = Benchmark;
            Combo.Model = Model;
            Combo.Scorer = Scorer;
            Combo.BatchSize = Batch;
            Combo.Policy = Policy;
            for (const SamplingPlan &Plan : Spec.Plans) {
              std::vector<RunResult> Runs;
              Runs.reserve(Reps);
              for (unsigned Rep = 0; Rep != Reps; ++Rep) {
                CampaignCell Cell;
                Cell.CellKind = CampaignCell::Kind::Run;
                Cell.Benchmark = Benchmark;
                Cell.Model = Model;
                Cell.Scorer = Scorer;
                Cell.BatchSize = Batch;
                Cell.Plan = Plan;
                Cell.Policy = Policy;
                Cell.Rep = Rep;
                Runs.push_back(Ledger.at(Cell.key(Spec)).Run);
              }
              Combo.PlanResults.push_back(averageRuns(Runs));
            }
            // Table 1 semantics: first fixed plan is the baseline, first
            // sequential plan is "ours".
            int BaselineIdx = -1, OursIdx = -1;
            for (size_t I = 0; I != Spec.Plans.size(); ++I) {
              if (Spec.Plans[I].PlanKind == SamplingPlan::Kind::Fixed &&
                  BaselineIdx < 0)
                BaselineIdx = int(I);
              if (Spec.Plans[I].PlanKind == SamplingPlan::Kind::Sequential &&
                  OursIdx < 0)
                OursIdx = int(I);
            }
            if (BaselineIdx >= 0 && OursIdx >= 0) {
              Combo.Speedup = compareCurves(Combo.PlanResults[BaselineIdx],
                                            Combo.PlanResults[OursIdx]);
              if (Combo.Speedup.Speedup > 0.0)
                Speedups.push_back(Combo.Speedup.Speedup);
            }
            Out.Combos.push_back(std::move(Combo));
          }

  if (Spec.NoiseCells)
    for (const std::string &Benchmark : Spec.benchmarkList()) {
      CampaignCell Cell;
      Cell.CellKind = CampaignCell::Kind::Noise;
      Cell.Benchmark = Benchmark;
      const std::vector<double> &Stats =
          Ledger.at(Cell.key(Spec)).NoiseStats;
      if (Stats.size() != 9)
        return false;
      NoiseSummary Summary;
      Summary.Benchmark = Benchmark;
      Summary.VarMin = Stats[0];
      Summary.VarMean = Stats[1];
      Summary.VarMax = Stats[2];
      Summary.Ci35Min = Stats[3];
      Summary.Ci35Mean = Stats[4];
      Summary.Ci35Max = Stats[5];
      Summary.Ci5Min = Stats[6];
      Summary.Ci5Mean = Stats[7];
      Summary.Ci5Max = Stats[8];
      Out.Noise.push_back(std::move(Summary));
    }

  if (!Speedups.empty())
    Out.GeomeanSpeedup = geometricMean(Speedups);
  return true;
}

Status alic::mergeLedgers(const CampaignSpec &Spec,
                          const CampaignOptions &Options,
                          LedgerMergeReport &Report) {
  Report = LedgerMergeReport();
  std::vector<std::string> Inputs = shardLedgerPaths(Options.StateDir);
  if (Inputs.empty())
    return Status::failure("no cells*.jsonl ledgers under " + Options.StateDir,
                           ENOENT);

  // Key -> exact line bytes (newline excluded).  The comparison is on
  // bytes, not parsed values: equal parses with different bytes would
  // still break the byte-identical-aggregate contract downstream.
  std::unordered_map<std::string, std::string> LineByKey;
  std::vector<std::string> Conflicts;
  for (const std::string &Path : Inputs) {
    ++Report.InputFiles;
    FailOutcome F = ALIC_FAILPOINT("merge.read");
    if (F.Fire)
      return Status::failure("read shard ledger " + Path + " (injected)",
                             F.Errno);
    std::vector<std::string> Lines;
    bool TornTail = false;
    Status Read = readJournal(Path, Lines, &TornTail);
    if (!Read.ok())
      return Status::failure("read shard ledger " + Path, Read.errnoValue());
    Report.TornTails += TornTail; // an unterminated tail: sealed (dropped)
    for (const std::string &Line : Lines) {
      std::string Key;
      CellResult Parsed;
      if (!parseCellLine(Line, Key, Parsed)) {
        ++Report.SkippedGarbage; // a sealed crash remnant
        continue;
      }
      ++Report.Lines;
      auto Inserted = LineByKey.emplace(Key, Line);
      if (Inserted.second)
        continue;
      if (Inserted.first->second == Line)
        ++Report.DuplicateCells; // determinism made the rerun identical
      else
        Conflicts.push_back(Key); // same key, different bytes: corruption
    }
  }
  Report.UniqueCells = LineByKey.size();

  std::sort(Conflicts.begin(), Conflicts.end());
  Conflicts.erase(std::unique(Conflicts.begin(), Conflicts.end()),
                  Conflicts.end());
  Report.ConflictKeys = std::move(Conflicts);
  if (!Report.ConflictKeys.empty())
    return Status::success(); // quarantined: report set, nothing written

  // Canonical order: the spec's cells exactly as one inline process would
  // have appended them (so the merged ledger is byte-identical to a
  // single-process run), then foreign cells — other scales or specs
  // sharing the state dir — in key order.
  std::string Merged;
  std::unordered_set<std::string> Emitted;
  for (const CampaignCell &Cell : expandCells(Spec)) {
    std::string Key = Cell.key(Spec);
    auto It = LineByKey.find(Key);
    if (It == LineByKey.end() || !Emitted.insert(Key).second)
      continue;
    Merged += It->second;
    Merged += '\n';
  }
  std::vector<std::string> Foreign;
  for (const auto &Entry : LineByKey)
    if (!Emitted.count(Entry.first))
      Foreign.push_back(Entry.first);
  std::sort(Foreign.begin(), Foreign.end());
  Report.ForeignCells = Foreign.size();
  for (const std::string &Key : Foreign) {
    Merged += LineByKey[Key];
    Merged += '\n';
  }

  FailOutcome F = ALIC_FAILPOINT("merge.append");
  if (F.Fire)
    return Status::failure("write merged ledger " +
                               Options.canonicalLedgerPath() + " (injected)",
                           F.Errno);
  // Atomic + durable publish: a crash mid-merge leaves the previous
  // canonical ledger (or its absence) intact, never a half-merged one.
  ByteWriter Writer;
  Writer.writeRaw(Merged);
  Status St = Writer.writeFileDurable(Options.canonicalLedgerPath());
  if (St.ok())
    Report.Wrote = true;
  return St;
}

bool alic::runCampaign(const CampaignSpec &Spec,
                       const CampaignOptions &Options, CampaignResult &Out) {
  CampaignProgress Progress = runCampaignCells(Spec, Options);
  if (!Progress.Complete)
    return false;
  if (!aggregateCampaign(Spec, Options, Out))
    fatalError("campaign ledger %s lost cells between run and aggregate",
               Options.ledgerPath().c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// Canonical aggregate JSON
//===----------------------------------------------------------------------===//

namespace {

/// Evenly decimates a curve to at most ~33 points (always keeping the
/// final one) so the aggregate stays reviewable; renderers that need full
/// curves read CampaignResult directly.
void appendCurveJson(std::string &Json, const std::vector<CurvePoint> &Curve) {
  JsonWriter W;
  W.beginArray();
  size_t Stride = std::max<size_t>(1, Curve.size() / 32);
  for (size_t I = 0; I < Curve.size(); I += Stride)
    writeCurvePoint(W, Curve[I]);
  if (!Curve.empty() && (Curve.size() - 1) % Stride != 0)
    writeCurvePoint(W, Curve.back());
  Json += W.endArray().text();
}

} // namespace

std::string alic::campaignJson(const CampaignSpec &Spec,
                               const CampaignResult &Result) {
  std::string Json = "{\n";
  Json += "  \"schema\": \"alic-campaign-v1\",\n";
  Json += "  \"scale\": \"" + Spec.ScaleName + "\",\n";
  Json += formatString("  \"repetitions\": %u,\n", Spec.repetitions());
  Json += "  \"benchmarks\": [";
  std::vector<std::string> Names = Spec.benchmarkList();
  for (size_t I = 0; I != Names.size(); ++I)
    Json += (I ? ", \"" : "\"") + Names[I] + "\"";
  Json += "],\n";
  size_t NumCells = Names.size() * Spec.Models.size() * Spec.Scorers.size() *
                        Spec.BatchSizes.size() * Spec.Plans.size() *
                        Spec.policyList().size() * Spec.repetitions() +
                    (Spec.NoiseCells ? Names.size() : 0);
  Json += formatString("  \"cells\": %zu,\n", NumCells);

  // Policy fields appear only when the spec sweeps a non-default policy
  // axis, so the default (Always-only) aggregate stays byte-identical to
  // aggregates written before the axis existed.
  bool EmitPolicy = !Spec.defaultPolicyAxis();

  Json += "  \"combos\": [\n";
  for (size_t C = 0; C != Result.Combos.size(); ++C) {
    const ComboResult &Combo = Result.Combos[C];
    Json += "    {\"benchmark\": \"" + Combo.Benchmark + "\", \"model\": \"" +
            modelToken(Combo.Model) + "\", \"scorer\": \"" +
            scorerToken(Combo.Scorer) + "\"";
    Json += formatString(", \"batch\": %u", Combo.BatchSize);
    if (EmitPolicy)
      Json += ", \"policy\": \"" + queryPolicyToken(Combo.Policy) + "\"";
    Json += ",\n";
    Json += "     \"plans\": [\n";
    for (size_t P = 0; P != Combo.PlanResults.size(); ++P) {
      const RunResult &Run = Combo.PlanResults[P];
      Json += "      {\"plan\": \"" + planToken(Spec.Plans[P]) + "\"";
      Json += ", \"final_rmse\": " + formatJsonDouble(Run.FinalRmse);
      Json +=
          ", \"total_cost_seconds\": " + formatJsonDouble(Run.TotalCostSeconds);
      Json += formatString(", \"iterations\": %zu, \"observations\": %zu",
                           Run.Stats.Iterations, Run.Stats.Observations);
      if (EmitPolicy)
        Json += formatString(", \"skips\": %zu", Run.Stats.Skips);
      Json += ",\n       \"curve\": ";
      appendCurveJson(Json, Run.Curve);
      Json += P + 1 == Combo.PlanResults.size() ? "}\n" : "},\n";
    }
    Json += "     ],\n";
    Json += "     \"lowest_common_rmse\": " +
            formatJsonDouble(Combo.Speedup.LowestCommonRmse);
    Json += ", \"baseline_cost_seconds\": " +
            formatJsonDouble(Combo.Speedup.BaselineCostSeconds);
    Json += ", \"ours_cost_seconds\": " +
            formatJsonDouble(Combo.Speedup.OursCostSeconds);
    Json += ", \"speedup\": " + formatJsonDouble(Combo.Speedup.Speedup);
    Json += C + 1 == Result.Combos.size() ? "}\n" : "},\n";
  }
  Json += "  ],\n";

  Json += "  \"noise\": [\n";
  for (size_t N = 0; N != Result.Noise.size(); ++N) {
    const NoiseSummary &Noise = Result.Noise[N];
    Json += "    {\"benchmark\": \"" + Noise.Benchmark + "\"";
    Json += ", \"var\": [" + formatJsonDouble(Noise.VarMin) + "," +
            formatJsonDouble(Noise.VarMean) + "," +
            formatJsonDouble(Noise.VarMax) + "]";
    Json += ", \"ci35\": [" + formatJsonDouble(Noise.Ci35Min) + "," +
            formatJsonDouble(Noise.Ci35Mean) + "," +
            formatJsonDouble(Noise.Ci35Max) + "]";
    Json += ", \"ci5\": [" + formatJsonDouble(Noise.Ci5Min) + "," +
            formatJsonDouble(Noise.Ci5Mean) + "," +
            formatJsonDouble(Noise.Ci5Max) + "]";
    Json += N + 1 == Result.Noise.size() ? "}\n" : "},\n";
  }
  Json += "  ],\n";

  Json += "  \"geomean_speedup\": " + formatJsonDouble(Result.GeomeanSpeedup);
  Json += "\n}\n";
  return Json;
}
