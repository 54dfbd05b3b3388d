//===- exp/Campaign.h - Sharded, checkpointable experiment campaigns -----===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign orchestrator behind the paper's headline results (Table 1,
/// Figure 5, Figure 6): a work-queue that expands a CampaignSpec — the
/// cross-product of benchmarks x surrogate models x scorers x batch sizes
/// x sampling plans x seeds at any ExperimentScale — into independent run
/// cells, forks the cells as top-level tasks of a work-stealing
/// Scheduler, and checkpoints every completed cell to a crash-safe JSONL
/// ledger.  Cells are *nested-parallel*: each cell's learner forks its
/// inner work (DynaTree particle shards, GP/KNN scoring shards, batched
/// profiler draws) onto the same scheduler, so when the campaign tail
/// leaves fewer cells than workers, the idle workers steal the straggler
/// cells' inner shards instead of spinning down.
///
/// Determinism contract (regression-tested):
///  * every cell is a pure function of its key — cells never share mutable
///    state, and every inner shard grid plus its per-shard counter-derived
///    seeds are independent of worker count and steal order, so nested
///    cell parallelism composes with the bit-reproducible runs pinned by
///    PRs 1-2;
///  * aggregation happens only over the parsed checkpoint (doubles round
///    trip through %.17g exactly), in canonical spec order — so the
///    aggregate JSON is byte-identical at any worker thread count, under
///    any cell completion order, and across kill/resume boundaries;
///  * re-launching a spec skips every cell already present in the ledger
///    (keys embed a fingerprint of all scale parameters, so changing the
///    scale never resurrects stale results).
///
/// Expensive buildDataset profiling is memoized per (benchmark, scale,
/// seed) in an on-disk blob cache (support/Serialize); cache hits are
/// bit-identical to a fresh build.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_EXP_CAMPAIGN_H
#define ALIC_EXP_CAMPAIGN_H

#include "exp/Runner.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace alic {

/// Default seeds for campaign datasets and learner runs.  The bench
/// binaries alias these (BenchCommon.h), so alic_campaign and every
/// renderer address the same ledger cells — change them only here.
inline constexpr uint64_t CampaignDatasetSeed = 0xa11cebe7;
inline constexpr uint64_t CampaignRunSeed = 0x0911fe;

/// The cross-product a campaign covers.  Defaults reproduce the paper's
/// comparison: every SPAPT benchmark, the dynamic-tree surrogate, ALC
/// scoring, one-at-a-time labelling, and the three sampling plans of
/// Figure 6 (35 observations, 1 observation, variable).
struct CampaignSpec {
  std::vector<std::string> Benchmarks; ///< empty = all eleven, Table 1 order
  std::vector<ModelKind> Models = {ModelKind::DynaTree};   ///< surrogates
  std::vector<ScorerKind> Scorers = {ScorerKind::Alc};     ///< scorers
  std::vector<unsigned> BatchSizes = {1};                  ///< picks/step
  /// Sampling plans each combo runs.  May be empty (noise-only campaigns,
  /// e.g. the Table 2 renderer).
  std::vector<SamplingPlan> Plans = {SamplingPlan::fixed(35),
                                     SamplingPlan::fixed(1),
                                     SamplingPlan::sequential(35)};
  /// Query policies each combo runs (core/QueryPolicy.h).  The default —
  /// a single Always policy — is the legacy spec shape: its cell keys and
  /// aggregate JSON carry no policy token, so ledgers and committed
  /// BENCH_campaign.json baselines from before the policy axis stay
  /// byte-identical (and Always cells are shared with policy sweeps).
  std::vector<QueryPolicyConfig> Policies = {QueryPolicyConfig()};
  /// Seeds per combo x plan; 0 = Scale.Repetitions.  Cell seeds derive as
  /// hashCombine({BaseRunSeed, rep}), matching runAveraged.
  unsigned Repetitions = 0;
  ExperimentScale Scale;            ///< size/budget preset the cells run at
  std::string ScaleName = "custom"; ///< label only (JSON "scale" field)
  uint64_t DatasetSeed = CampaignDatasetSeed; ///< dataset build seed
  uint64_t BaseRunSeed = CampaignRunSeed;     ///< base of per-cell run seeds
  /// Also run one noise-summary cell per benchmark (the Table 2
  /// measurement: variance and CI/mean spread across configurations).
  bool NoiseCells = true;

  /// Benchmarks with empty defaulted to the full suite.
  std::vector<std::string> benchmarkList() const;
  /// Policies with empty defaulted to the single Always default.
  std::vector<QueryPolicyConfig> policyList() const;
  /// True when the policy axis is the single default Always policy (the
  /// legacy spec shape — no policy tokens in keys or JSON).
  bool defaultPolicyAxis() const;
  /// Repetitions with 0 defaulted to Scale.Repetitions (floor 1).
  unsigned repetitions() const;
};

/// One independent unit of campaign work.
struct CampaignCell {
  /// A cell is either one learning run or one noise summary.
  enum class Kind {
    Run,  ///< single-seed learning run (one point of the cross-product)
    Noise ///< per-benchmark noise-spread measurement (Table 2)
  };
  Kind CellKind = Kind::Run;             ///< which kind this cell is
  std::string Benchmark;                 ///< SPAPT benchmark name
  ModelKind Model = ModelKind::DynaTree; ///< surrogate (Run cells)
  ScorerKind Scorer = ScorerKind::Alc;   ///< scorer (Run cells)
  unsigned BatchSize = 1;                ///< picks per step (Run cells)
  SamplingPlan Plan;                     ///< sampling plan (Run cells)
  /// Query policy the cell's learner runs (Always by default).
  QueryPolicyConfig Policy;
  unsigned Rep = 0; ///< repetition index (seed derives from it)

  /// Canonical ledger key, e.g.
  /// "run|atax|dynatree|alc|b1|seq:35|r0|fp=0123456789abcdef".  A
  /// non-Always query policy adds a "q=<token>" segment before the rep
  /// (Always cells keep the legacy key, so policy sweeps share them with
  /// plain campaigns).  The fingerprint hashes every scale parameter plus
  /// the dataset and run seeds, so a ledger can host cells from many
  /// scales without collisions.
  std::string key(const CampaignSpec &Spec) const;
};

/// Checkpointed result of one cell (run curves or noise summary).
struct CellResult {
  RunResult Run;                   ///< Kind::Run cells
  std::vector<double> NoiseStats;  ///< Kind::Noise cells: 9 values,
                                   ///< {var,ci35,ci5} x {min,mean,max}
};

/// Per-benchmark noise spread (Table 2 semantics).
struct NoiseSummary {
  std::string Benchmark; ///< SPAPT benchmark name
  double VarMin = 0, VarMean = 0, VarMax = 0;    ///< runtime variance spread
  double Ci35Min = 0, Ci35Mean = 0, Ci35Max = 0; ///< CI/mean at 35 samples
  double Ci5Min = 0, Ci5Mean = 0, Ci5Max = 0;    ///< CI/mean at 5 samples
};

/// Seed-averaged curves for one (benchmark, model, scorer, batch, query
/// policy) combo.
struct ComboResult {
  std::string Benchmark;                 ///< SPAPT benchmark name
  ModelKind Model = ModelKind::DynaTree; ///< surrogate of the combo
  ScorerKind Scorer = ScorerKind::Alc;   ///< scorer of the combo
  unsigned BatchSize = 1;                ///< picks per step of the combo
  /// Query policy of every cell in this combo (Always by default).
  QueryPolicyConfig Policy;
  /// One averaged RunResult per spec plan, in spec order.
  std::vector<RunResult> PlanResults;
  /// Lowest-common-error comparison (Table 1 semantics) of the first
  /// fixed plan against the first sequential plan; Speedup == 0 when the
  /// spec lacks either.
  PlanComparison Speedup;

  /// The averaged result for \p Plan, or nullptr if the spec lacks it.
  const RunResult *planResult(const CampaignSpec &Spec,
                              const SamplingPlan &Plan) const;
};

/// Deterministic aggregate of a completed campaign.
struct CampaignResult {
  std::vector<ComboResult> Combos;       ///< canonical spec order
  std::vector<NoiseSummary> Noise;       ///< benchmark order
  /// Geometric mean of all combo speedups > 0 (0 when none).
  double GeomeanSpeedup = 0.0;
};

/// Knobs of one orchestrator invocation (not part of any cell key:
/// changing them never changes results, only how they are produced).
struct CampaignOptions {
  /// Scheduler workers; 0 runs cells inline with no scheduler at all.
  /// Aggregate output is byte-identical at any value.
  unsigned Threads = 0;
  /// Non-zero: overrides the scheduler's victim-selection seed (stress
  /// tests force different steal interleavings; results never depend on
  /// it).
  uint64_t StealSeed = 0;
  /// Ledger + dataset-cache directory; created on demand.
  std::string StateDir = "alic-campaign";
  /// Start at most this many new cells (0 = run to completion) —
  /// deterministic mid-campaign interruption for the resume tests and CI.
  /// Every sharding mode starts exactly min(MaxCells, missing) cells.
  size_t MaxCells = 0;
  /// Non-zero: execute missing cells in a seeded shuffled order instead of
  /// spec order (completion-order-invariance tests).
  uint64_t ShuffleSeed = 0;
  /// Suppress per-cell progress lines on stderr.
  bool Quiet = false;

  // --- scale-out sharding (exp/ShardLease, ARCHITECTURE.md "Scale-out").
  // Sharded invocations append to a per-worker ledger
  // (cells.<worker>.jsonl) and skip nothing else: cells stay pure
  // functions of their keys, so N processes produce the same bytes one
  // process would, and mergeLedgers() proves it.

  /// Static sharding: the total worker count.  Non-zero restricts this
  /// invocation to shard ShardIndex of the canonical cell list, split
  /// into ShardCount contiguous near-equal ranges (every worker computes
  /// the same split locally — no coordination).
  unsigned ShardCount = 0;
  /// Static sharding: this worker's shard in [0, ShardCount).
  unsigned ShardIndex = 0;
  /// Dynamic sharding: claim cell ranges at runtime through lease files
  /// in leaseDir(), stealing ranges whose owner died or wedged (stopped
  /// heartbeating for LeaseTtlMs).  The invocation returns when every
  /// spec cell is in the union of worker ledgers, whoever ran it.
  bool LeaseClaim = false;
  /// Lease expiry: a lease untouched for this long may be stolen.
  uint64_t LeaseTtlMs = 2000;
  /// Lease renewal cadence; 0 derives LeaseTtlMs / 4.
  uint64_t LeaseHeartbeatMs = 0;
  /// Target cells per claimable range in lease mode (floor 1).
  unsigned LeaseRangeCells = 16;
  /// Per-worker ledger tag: appends go to cells.<WorkerId>.jsonl.  Empty
  /// defaults to the canonical ledger (unsharded), a shard<i>of<N> tag
  /// (static sharding), or w<pid> (lease claiming) — see workerTag().
  std::string WorkerId;

  /// True when this invocation runs as one worker of a sharded campaign.
  bool sharded() const { return ShardCount > 0 || LeaseClaim; }

  /// WorkerId, or its per-mode default: "" unsharded, shard<i>of<N> under
  /// static sharding, w<pid> when lease claiming.  A pure function of the
  /// options and the process, so the executor and the CLI always name
  /// the same ledger.
  std::string workerTag() const;

  /// The ledger this invocation appends to: the canonical ledger, or the
  /// per-worker ledger cells.<workerTag()>.jsonl when tagged.
  std::string ledgerPath() const {
    std::string Tag = workerTag();
    return Tag.empty() ? canonicalLedgerPath()
                       : StateDir + "/cells." + Tag + ".jsonl";
  }
  /// The canonical (merged / single-process) ledger path under StateDir.
  std::string canonicalLedgerPath() const { return StateDir + "/cells.jsonl"; }
  /// The lease-file directory under StateDir (lease mode).
  std::string leaseDir() const { return StateDir + "/leases"; }
  /// The dataset blob cache directory under StateDir.
  std::string datasetCacheDir() const { return StateDir + "/datasets"; }
};

/// What one runCampaignCells invocation did.
struct CampaignProgress {
  size_t TotalCells = 0;   ///< cells the spec expands to
  /// Cells this invocation is responsible for: TotalCells unsharded, the
  /// static shard's slice under --shard (lease workers own whatever they
  /// claim, so there it equals TotalCells too).
  size_t ShardCells = 0;
  size_t AlreadyDone = 0;  ///< of ShardCells, found complete in the ledger(s)
  size_t NewlyRun = 0;     ///< computed and durably appended by this invocation
  /// Unsharded / lease mode: every spec cell is now in the (union of)
  /// ledger(s).  Static shard mode: every cell of *this shard's slice*.
  bool Complete = false;
  /// Keys of cells whose ledger append failed even after the bounded
  /// retry/backoff (e.g. the disk filled up).  The campaign *finishes the
  /// remaining cells* instead of aborting; quarantined cells are simply
  /// absent from the ledger, so re-launching the same spec retries
  /// exactly those and the final aggregate is byte-identical to an
  /// uninterrupted run.  Non-empty implies !Complete.
  std::vector<std::string> QuarantinedCells;
  // Scheduler observability (never part of any result).
  unsigned WorkersUsed = 0;  ///< scheduler worker threads (0 = inline)
  uint64_t TasksExecuted = 0; ///< cells + stolen/forked inner shards
  uint64_t Steals = 0;       ///< tasks taken from another worker's deque
};

/// Expands \p Spec into its cells, in canonical (deterministic) order:
/// benchmarks x models x scorers x batches x plans x policies x reps,
/// then noise.
std::vector<CampaignCell> expandCells(const CampaignSpec &Spec);

/// Runs every spec cell missing from the ledger, sharding across
/// Options.Threads workers; each completed cell is appended to the ledger
/// as one synced journal record (support/Journal.h).  Honors MaxCells.
///
/// One executor serves every mode; only its *range source* differs.
/// Unsharded, all cells form one range, done-checked against the
/// canonical ledger.  With ShardCount set, this worker's static slice
/// splitRanges(...)[ShardIndex] is the one range, done-checked against
/// the union of worker ledgers.  With LeaseClaim set, the worker claims
/// ranges dynamically through exp/ShardLease and rescans the union after
/// each one, returning once *every* spec cell is in it.  Sharded workers
/// append to their per-worker ledger and mergeLedgers() folds the shards
/// back into the canonical one.  A rerun with nothing missing starts no
/// scheduler, loads no dataset, and writes nothing.
///
/// Ledger I/O failures *degrade* instead of aborting: the journal
/// retries a failed append (fault-injection sites `ledger.append` /
/// `ledger.sync`), and a cell whose append still fails is quarantined
/// (Progress.QuarantinedCells) while the rest of the campaign completes.
/// A state dir or ledger that cannot be written at all quarantines every
/// missing cell without computing any.
CampaignProgress runCampaignCells(const CampaignSpec &Spec,
                                  const CampaignOptions &Options);

/// What one mergeLedgers invocation saw and did.
struct LedgerMergeReport {
  size_t InputFiles = 0;     ///< cells*.jsonl ledgers read under StateDir
  size_t Lines = 0;          ///< parsed cell lines across all inputs
  size_t UniqueCells = 0;    ///< distinct cell keys in the union
  size_t DuplicateCells = 0; ///< byte-identical duplicate lines dropped
  size_t ForeignCells = 0;   ///< union cells outside this spec (other
                             ///< scales sharing the ledger; kept, after
                             ///< the spec's cells, in key order)
  size_t TornTails = 0;      ///< unterminated trailing lines sealed off
  size_t SkippedGarbage = 0; ///< complete-but-unparsable lines skipped
                             ///< (sealed crash remnants)
  /// Cell keys that appear in two inputs with *different* bytes.  Cells
  /// are deterministic, so this never happens in a healthy fleet — it is
  /// a corruption signal (mixed-up state dirs, bit rot, a tampered
  /// shard).  Non-empty quarantines the merge: the canonical ledger is
  /// not written and the CLI exits 74, the PR 7 quarantine discipline.
  std::vector<std::string> ConflictKeys; ///< sorted, deduplicated
  bool Wrote = false; ///< the canonical ledger was atomically replaced
};

/// Unions every shard ledger (cells*.jsonl, the canonical ledger
/// included — merging is idempotent) under Options.StateDir into the
/// canonical ledger, written atomically and durably (tmp + fsync + rename
/// + dir fsync).  Per input, an unterminated trailing line is sealed off
/// (dropped) and unparsable complete lines are skipped, exactly like
/// ledger loading.  Output order is canonical: the spec's cells in
/// expandCells order first (which makes the merged ledger byte-identical
/// to one produced by a single inline process), then any foreign cells in
/// lexicographic key order.  Duplicate keys are tolerated only when their
/// lines are byte-identical; conflicting duplicates land in
/// Report.ConflictKeys and suppress the write (see LedgerMergeReport).
/// The returned Status is a *read/write I/O* verdict — a conflicted merge
/// returns ok() with ConflictKeys set.  Fault-injection sites: merge.read
/// (per-input open/read), merge.append (the canonical write).
Status mergeLedgers(const CampaignSpec &Spec, const CampaignOptions &Options,
                    LedgerMergeReport &Report);

/// Aggregates a campaign from the ledger alone (never from in-memory
/// results — the single code path that makes resumed and uninterrupted
/// runs byte-identical).  Returns false when any spec cell is missing.
bool aggregateCampaign(const CampaignSpec &Spec,
                       const CampaignOptions &Options, CampaignResult &Out);

/// runCampaignCells + aggregateCampaign.  Returns false when interrupted
/// by MaxCells before completion.
bool runCampaign(const CampaignSpec &Spec, const CampaignOptions &Options,
                 CampaignResult &Out);

/// Renders the canonical BENCH_campaign.json document: per-combo
/// lowest-common-error speedups, final RMSEs, decimated curve summaries,
/// per-benchmark noise spreads, and the geo-mean speedup.  Contains no
/// timestamps or host details; equal results render to equal bytes.
std::string campaignJson(const CampaignSpec &Spec,
                         const CampaignResult &Result);

/// Canonical lower-case tokens used in cell keys, JSON, the serve wire
/// and serve session journals.
const char *modelToken(ModelKind Kind);
const char *scorerToken(ScorerKind Kind);
/// `seq:<cap>` or `fixed:<observations>`: the plan kind and the one count
/// that kind uses.
std::string planToken(const SamplingPlan &Plan);

/// Inverses of the token functions above.  Each returns false, leaving
/// \p Out untouched, on anything but a token its counterpart produces.
bool parseModelToken(const std::string &Token, ModelKind &Out);
bool parseScorerToken(const std::string &Token, ScorerKind &Out);
bool parsePlanToken(const std::string &Token, SamplingPlan &Out);

/// The ledger's line codec: one cell's checkpointed result as a JSON
/// line (newline included), and back.  The parser refuses any line the
/// writer cannot produce (a torn or foreign record), filling \p Key and
/// \p Result only partially in that case.
std::string cellLine(const std::string &Key, CampaignCell::Kind Kind,
                     const CellResult &Result);
bool parseCellLine(const std::string &Line, std::string &Key,
                   CellResult &Result);

/// The default plan list at scale \p S — the three Figure 6 sampling
/// plans with the scale's sequential cap.  The alic_campaign CLI and the
/// bench renderers both build their specs from this (identical plans =>
/// identical cell keys => shared ledger state); never inline a copy.
std::vector<SamplingPlan> defaultCampaignPlans(const ExperimentScale &S);

/// The default state directory for one scale: "alic-campaign-<scale>".
/// Shared by the CLI default and the renderers' ALIC_CAMPAIGN_DIR
/// fallback for the same reason.
std::string defaultCampaignStateDir(const std::string &ScaleName);

} // namespace alic

#endif // ALIC_EXP_CAMPAIGN_H
