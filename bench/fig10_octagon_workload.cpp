//===-- bench/fig10_octagon_workload.cpp - Fig. 10 reproduction -----------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces **Fig. 10** of "Demanded Abstract Interpretation" (PLDI 2021):
/// the scalability study comparing four analysis configurations — Batch,
/// Incremental-only, Demand-driven-only, and Incremental & Demand-driven —
/// on a synthetic workload of random program edits interleaved with
/// analysis queries, over a context-insensitive octagon domain.
///
/// Emits, per configuration:
///   - `SCATTER <config> <edit#> <edges> <ms>` rows (the four scatter plots:
///     per-edit analysis latency vs. program size),
///   - `CDF <config> <ms> <fraction>` rows (the cumulative latency plot),
///   - and a paper-style summary table (mean / p50 / p90 / p95 / p99).
///
/// Additionally writes machine-readable `BENCH_fig10.json` (override with
/// `--json PATH`, disable with `--no-json`): the per-config summary plus a
/// variable-count sweep (`--sizes 8,16,32,48`) of the incr+demand
/// configuration reporting wall time, DBM closure counters, and name-table
/// intern counters per size — cells stored and the peak single-matrix
/// footprint track the half-matrix layout; names_interned / intern_hits /
/// name_table_bytes track the hash-consed name layer — so successive PRs
/// can follow the perf trajectory and *why* it moved (full vs. incremental
/// closure mix; see support/statistics.h).
///
/// The relational domain is an axis: `--domain octagon|zone|staged|both`
/// (default both for the sweep; the Fig. 10 config table itself runs the
/// octagon unless `--domain zone` or `--domain staged`). The sweep emits
/// one sizes-entry per (domain, size) pair: octagon entries carry the
/// dense-DBM counters (cells touched ~n² per sweep size on this mostly-⊤
/// workload), zone entries carry the sparse-graph counters (edges stored,
/// potential repairs, closure vertices visited) — the headline claim being
/// that zone closure work tracks the number of LIVE constraints and grows
/// sub-quadratically in the variable pool where the octagon's cells
/// touched cannot.
///
/// Staged entries (domain/staged.h) run the SAME difference workload on
/// the zone tier (their wall time should track the zone's) and then a
/// SUM-CONSTRAINT QUERY PHASE: escalated queries at sampled locations,
/// with every x + y bound lockstep-compared against a fresh pure-octagon
/// engine on the final program — staged_sum_mismatches counts answers that
/// are not octagon-exact (expected 0; staged_sum_tighter counts sound
/// zone-side prunings, which only tighten). staged_escalated_transfers is
/// the staged gate metric: the octagon work the escalation actually paid.
///
/// After the sweep — once every gate counter window has closed — a
/// PARALLEL PHASE (`--threads 1,2,4`) batch-re-analyzes a call-heavy
/// variant of the largest workload with InterprocEngine::setParallelism(T)
/// and cross-checks every instance's exit summary against the serial
/// engine, emitting `threads` / `speedup` / `parallel_result_mismatches`
/// rows plus `hardware_threads` (speedup on a 1-core runner is necessarily
/// ~1x; the mismatch count is the correctness signal and must be 0).
///
/// Registry-era rows (PR 10) run after the historical sweep loop so every
/// pre-registry counter window closes first and the octagon/zone/staged
/// gate counters stay bit-identical to older baselines:
///   - `--domain dis_interval` sweep rows (domain/dis_interval.h) carry
///     ONLY dis_interval_-prefixed counters; dis_interval_partitions_collapsed
///     is the new gate metric (partition lists force-merged under the K
///     bound — deterministic, like the closure counters).
///   - `--domain arr_interval|arr_zone` rows verify the Section 7.2 array
///     corpus (bench/corpus/array_programs.h) under the array-smashing
///     functor (domain/array_smash.h) with the ArrayBounds check family,
///     reporting registry-reported names and arr_-prefixed verdict tallies.
///   - an ERASURE A/B: the identical largest-size workload through the
///     direct ZoneDomain template vs the type-erased AnyDomain bound to
///     "zone" (domain/registry.h), emitted as a top-level `erasure_ab`
///     object — overhead is measured, not assumed, and the zone counter
///     deltas must match exactly (erasure_counter_mismatches must be 0 or
///     the bench exits nonzero).
///
/// scripts/check_bench_regression.sh compares a fresh JSON against the
/// committed baseline, gating on the deterministic closure-cells-touched
/// (octagon), closure-vertices-visited (zone), escalated-transfers
/// (staged), and partitions-collapsed (dis_interval) counters, and
/// hard-fails on nonzero parallel mismatches.
///
/// Defaults are scaled down from the paper's 3,000 edits × 9 trials so the
/// whole suite runs in CI time; pass `--edits 3000 --trials 9` for paper
/// scale. Same-seed trials issue identical edit/query sequences to every
/// configuration, exactly as in Section 7.3.
///
//===----------------------------------------------------------------------===//

#include "analysis/batch_interpreter.h"
#include "analysis/checker.h"
#include "analysis/checks_db.h"
#include "bench/corpus/array_programs.h"
#include "cfg/lowering.h"
#include "domain/array_smash.h"
#include "domain/dis_interval.h"
#include "domain/interval.h"
#include "domain/octagon.h"
#include "domain/registry.h"
#include "domain/staged.h"
#include "domain/zone.h"
#include "interproc/engine.h"
#include "support/observe.h"
#include "support/statistics.h"
#include "support/task_pool.h"
#include "workload/generator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace dai;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

enum class Config { Batch, Incremental, DemandDriven, IncrementalAndDemand };

const char *configName(Config C) {
  switch (C) {
  case Config::Batch: return "batch";
  case Config::Incremental: return "incremental";
  case Config::DemandDriven: return "demand-driven";
  case Config::IncrementalAndDemand: return "incr+demand";
  }
  return "?";
}

struct Sample {
  unsigned EditIndex;
  size_t ProgramEdges;
  double Ms;
};

enum class DomainChoice {
  Octagon,
  Zone,
  Staged,
  DisInterval, ///< Disjunctive intervals (registry key dis_interval).
  ArrInterval, ///< Array smashing over intervals (corpus verification row).
  ArrZone,     ///< Array smashing over zones (corpus verification row).
  Both,        ///< Every row family (the committed-baseline default).
};

struct Options {
  unsigned Edits = 250;
  unsigned Trials = 3;
  unsigned Queries = 5;
  uint64_t Seed = 42;
  unsigned Vars = 12; ///< Variable pool (octagon closure is O((2v)^3)).
  unsigned ScatterPoints = 120; ///< Downsampling budget per config.
  bool RunBatch = true;
  DomainChoice Domain = DomainChoice::Both; ///< Sweep axis; table runs one.
  std::string JsonPath = "BENCH_fig10.json"; ///< Empty disables JSON.
  std::vector<unsigned> SweepSizes = {8, 16, 32, 48};
  std::vector<unsigned> Threads = {1, 2, 4}; ///< Parallel-phase axis.
  unsigned ParallelReps = 3; ///< Best-of repeats per thread count.
};

/// The incr+demand edit/query loop over a live engine: Opt.Edits random
/// edits with minimal dirtying, each followed by the per-edit query batch
/// (the paper's I&DD configuration). Shared by runTrial and the staged
/// sweep point — which additionally needs the engine alive afterwards for
/// its sum-constraint query phase — so the "identical seeded difference
/// workload" comparability across domains cannot drift between the two.
/// Appends per-edit samples to \p Samples when non-null; returns the
/// summed per-edit analysis latency.
template <typename D>
double runIncrDemandEdits(InterprocEngine<D> &Engine, WorkloadGenerator &Gen,
                          const Options &Opt, std::vector<Sample> *Samples) {
  double AnalysisMs = 0;
  for (unsigned EditIdx = 0; EditIdx < Opt.Edits; ++EditIdx) {
    Program &Current = Engine.program();
    EditRecord Rec = Gen.applyRandomEdit(Current);
    std::vector<Loc> Queries =
        Gen.sampleQueryLocations(Current, Opt.Queries);
    size_t Edges = Current.find("main")->Body.edges().size();
    Clock::time_point Start = Clock::now();
    if (Rec.Kind == EditKind::InsertStmt)
      Engine.applyInsertedStatementEdit("main", Rec.At, Rec.Splice);
    else
      Engine.applyStructuralEdit("main");
    for (Loc Q : Queries)
      (void)Engine.queryMain(Q);
    double Ms = msSince(Start);
    AnalysisMs += Ms;
    if (Samples)
      Samples->push_back(Sample{EditIdx, Edges, Ms});
  }
  return AnalysisMs;
}

/// Runs one trial of one configuration over domain \p D; every
/// configuration sees the identical (seeded) edit and query sequence.
template <typename D>
std::vector<Sample> runTrial(Config C, const Options &Opt, uint64_t Seed) {
  WorkloadOptions WOpts;
  WOpts.Seed = Seed;
  WOpts.QueriesPerEdit = Opt.Queries;
  WOpts.NumVars = Opt.Vars;
  WorkloadGenerator Gen(WOpts);
  Program Initial = Gen.makeInitialProgram();

  std::vector<Sample> Samples;
  Samples.reserve(Opt.Edits);

  // Persistent engine for the three demanded configurations.
  std::unique_ptr<InterprocEngine<D>> Engine;
  // Program evolved locally for the batch configuration.
  Program BatchProgram;
  if (C == Config::Batch)
    BatchProgram = Initial;
  else
    Engine = std::make_unique<InterprocEngine<D>>(std::move(Initial), "main",
                                                  /*K=*/0);

  if (C == Config::IncrementalAndDemand) {
    // Minimal dirtying and demand-driven evaluation (the paper's I&DD).
    runIncrDemandEdits(*Engine, Gen, Opt, &Samples);
    return Samples;
  }

  for (unsigned EditIdx = 0; EditIdx < Opt.Edits; ++EditIdx) {
    Program &Current =
        (C == Config::Batch) ? BatchProgram : Engine->program();
    EditRecord Rec = Gen.applyRandomEdit(Current);
    std::vector<Loc> Queries =
        Gen.sampleQueryLocations(Current, Opt.Queries);
    size_t Edges = Current.find("main")->Body.edges().size();

    Clock::time_point Start = Clock::now();
    switch (C) {
    case Config::Batch: {
      // Classical whole-program analysis from scratch on every edit.
      InterprocEngine<D> Fresh(Current, "main", 0);
      Fresh.analyzeAllFromMain();
      for (Loc Q : Queries)
        (void)Fresh.queryMain(Q);
      break;
    }
    case Config::Incremental:
      // Minimal dirtying, then eager recomputation of everything.
      if (Rec.Kind == EditKind::InsertStmt)
        Engine->applyInsertedStatementEdit("main", Rec.At, Rec.Splice);
      else
        Engine->applyStructuralEdit("main");
      Engine->analyzeAllFromMain();
      for (Loc Q : Queries)
        (void)Engine->queryMain(Q);
      break;
    case Config::DemandDriven:
      // Full dirtying, then compute only what the queries demand.
      Engine->resetAllInstances();
      for (Loc Q : Queries)
        (void)Engine->queryMain(Q);
      break;
    case Config::IncrementalAndDemand:
      break; // handled above (runIncrDemandEdits)
    }
    Samples.push_back(Sample{EditIdx, Edges, msSince(Start)});
  }
  return Samples;
}

/// One entry of the per-size sweep: the incr+demand configuration run at a
/// given variable-pool size over one relational domain, with wall time,
/// closure-counter deltas (dense DBM counters for the octagon, sparse graph
/// counters for the zone), and name-table intern activity.
struct SweepResult {
  const char *Domain;
  unsigned Vars;
  double WallMs;     ///< Total wall time of the trial (incl. bookkeeping).
  double AnalysisMs; ///< Sum of per-edit analysis latencies.
  ThreadCounters Counters;      ///< Per-thread counter deltas of the region.
  NameTableCounters Names;
  uint64_t SumQueries = 0;      ///< Sum-phase bound comparisons performed.
  uint64_t SumMismatches = 0;   ///< Answers that were NOT octagon-exact.
  uint64_t SumTighter = 0;      ///< Sound zone-side prunings (⊥ collapse).
  uint64_t EscalatedLocs = 0;   ///< Query locations holding escalated values.
  double SumQueryMs = 0;        ///< Wall time of the sum-query phase.
};

/// Snapshot of every counter a sweep point reports — the shared take/delta
/// boilerplate of runSweepPoint and the staged sweep.
struct CounterSnapshot {
  ThreadCounters Thread;
  NameTableCounters Names;

  static CounterSnapshot take() {
    // PeakDbmBytes is a gauge; zero it so the region reports its own peak
    // rather than the largest matrix any earlier phase ever allocated.
    closureCounters().PeakDbmBytes = 0;
    return {ThreadCounters::snapshot(), nameTableCounters()};
  }
  /// Writes (now − snapshot) into \p R. Call at the END of the measured
  /// region — anything that runs afterwards (e.g. the staged point's
  /// pure-octagon verification engine) stays out of the reported deltas.
  void deltaInto(SweepResult &R) const {
    R.Counters = ThreadCounters::snapshot().deltaSince(Thread);
    R.Names = nameTableCounters() - Names;
  }
};

/// Appends `, "<Prefix><name>": <value>` for every counter of \p C, in
/// counter-table order.
template <class Fam>
void printCounters(std::FILE *F, const Fam &C, const char *Prefix = "") {
  C.forEachCounter([&](const CounterInfo &I, uint64_t V) {
    std::fprintf(F, ", \"%s%s\": %llu", Prefix, I.Name,
                 static_cast<unsigned long long>(V));
  });
}

template <typename D>
SweepResult runSweepPoint(const Options &Opt, unsigned Vars) {
  Options SizeOpt = Opt;
  SizeOpt.Vars = Vars;
  CounterSnapshot Before = CounterSnapshot::take();
  Clock::time_point Start = Clock::now();
  std::vector<Sample> Samples =
      runTrial<D>(Config::IncrementalAndDemand, SizeOpt, Opt.Seed);
  double WallMs = msSince(Start);
  SweepResult R;
  R.Domain = D::name();
  R.Vars = Vars;
  R.WallMs = WallMs;
  R.AnalysisMs = 0;
  for (const Sample &S : Samples)
    R.AnalysisMs += S.Ms;
  Before.deltaInto(R);
  return R;
}

/// The staged sweep point: the identical seeded difference workload (wall
/// time should track the zone's — escalation never triggers on it), then
/// the SUM-CONSTRAINT QUERY PHASE: escalated queries at freshly sampled
/// locations, each x + y answer lockstep-compared against a pure-octagon
/// engine analyzing the same final program. Timed separately — the phase
/// wall is the price of escalation, not of the incremental edit loop.
SweepResult runStagedSweepPoint(const Options &Opt, unsigned Vars) {
  Options SizeOpt = Opt;
  SizeOpt.Vars = Vars;
  CounterSnapshot Before = CounterSnapshot::take();

  WorkloadOptions WOpts;
  WOpts.Seed = Opt.Seed;
  WOpts.QueriesPerEdit = SizeOpt.Queries;
  WOpts.NumVars = Vars;
  WorkloadGenerator Gen(WOpts);
  Program Initial = Gen.makeInitialProgram();
  InterprocEngine<StagedDomain> Engine(std::move(Initial), "main", /*K=*/0);

  SweepResult R;
  R.Domain = StagedDomain::name();
  R.Vars = Vars;
  Clock::time_point Start = Clock::now();
  R.AnalysisMs = runIncrDemandEdits(Engine, Gen, SizeOpt, nullptr);
  R.WallMs = msSince(Start); // the difference workload only

  // Sum-constraint query phase. The escalation scope keeps escalated cells
  // warm across queries: the first zone-only hit resets the instances and
  // re-demands under full escalation; later queries reuse that slice.
  // Only the STAGED side is inside the timed window — staged_sum_query_ms
  // is the price of escalation, and the pure-octagon reference run below
  // is lockstep-verification overhead a production analysis never pays.
  std::vector<Loc> SumLocs =
      Gen.sampleQueryLocations(Engine.program(), SizeOpt.Queries);
  const std::vector<std::string> &Pool = Gen.varPool();
  std::vector<std::vector<Interval>> StagedAnswers(SumLocs.size());
  Clock::time_point SumStart = Clock::now();
  {
    StagedEscalationScope Scope;
    for (size_t LI = 0; LI < SumLocs.size(); ++LI) {
      Staged SV = queryEscalatedMain(Engine, SumLocs[LI]);
      if (SV.escalated())
        ++R.EscalatedLocs;
      for (size_t I = 0; I + 1 < Pool.size(); I += 2)
        StagedAnswers[LI].push_back(SV.sumBounds(
            internSymbol(Pool[I]), internSymbol(Pool[I + 1])));
    }
  }
  R.SumQueryMs = msSince(SumStart);
  // Close the counter window HERE: the verification engine below is
  // lockstep overhead, not staged analysis work.
  Before.deltaInto(R);

  // Untimed lockstep verification against a fresh pure-octagon engine.
  InterprocEngine<OctagonDomain> Ref(Engine.program(), "main", /*K=*/0);
  for (size_t LI = 0; LI < SumLocs.size(); ++LI) {
    Octagon OV = Ref.queryMain(SumLocs[LI]);
    for (size_t I = 0, P = 0; I + 1 < Pool.size(); I += 2, ++P) {
      const Interval &S1 = StagedAnswers[LI][P];
      Interval S2 = OV.isBottom() ? Interval::empty()
                                  : OV.closedView().sumBounds(
                                        internSymbol(Pool[I]),
                                        internSymbol(Pool[I + 1]));
      ++R.SumQueries;
      if (S1 == S2)
        continue;
      if (S2.subsumes(S1))
        ++R.SumTighter; // zone-side pruning: sound, strictly tighter
      else
        ++R.SumMismatches; // NOT octagon-exact: a real divergence
    }
  }

  return R;
}

//===----------------------------------------------------------------------===//
// Registry-era rows: array-smashing corpus verification & erasure A/B
//===----------------------------------------------------------------------===//

/// One corpus-verification row for an array-smashing functor domain: every
/// program of bench/corpus/array_programs.h is lowered, analyzed at k=2,
/// and checked with the ArrayBounds battery from PR 7 — the workload the
/// smashing functor exists for (one summary cell per array, weak updates).
/// All counter fields are emitted under the registry-reported domain name
/// (arr_interval / arr_zone) so the gate script never conflates them with
/// the unprefixed checker-bench fields.
struct ArrayRow {
  const char *Domain = "";
  unsigned Programs = 0;
  double WallMs = 0;
  uint64_t Checks = 0;
  uint64_t Safe = 0;
  uint64_t Warning = 0;
  uint64_t Error = 0;
  uint64_t Unreachable = 0;
  unsigned UnsafeExpected = 0; ///< Corpus programs marked ExpectSafe=false.
  unsigned UnsafeFlagged = 0;  ///< ...of those, flagged with ≥1 non-Safe
                               ///< verdict (soundness demands all of them).
};

template <typename D> ArrayRow runArrayCorpusRow() {
  constexpr uint32_t Mask = checkMask(CheckKind::UserAssertion) |
                            checkMask(CheckKind::DivByZero) |
                            checkMask(CheckKind::ArrayBounds);
  ArrayRow R;
  R.Domain = D::name();
  Statistics Stats;
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I < corpus::NumArrayPrograms; ++I) {
    const auto &Prog = corpus::ArrayPrograms[I];
    LowerResult LR = frontend(Prog.Source);
    if (!LR.ok()) {
      std::fprintf(stderr, "corpus program %s failed to lower: %s\n",
                   Prog.Name, LR.Error.c_str());
      continue;
    }
    InterprocEngine<D> Engine(std::move(LR.Prog), "main", /*K=*/2);
    if (!Engine.valid()) {
      std::fprintf(stderr, "%s: %s\n", Prog.Name, Engine.error().c_str());
      continue;
    }
    Engine.analyzeAllFromMain();
    ++R.Programs;
    if (!Prog.ExpectSafe)
      ++R.UnsafeExpected;

    std::map<SymbolId, std::vector<Obligation>> ObsByFn;
    for (const auto &[FnName, F] : Engine.program().Functions)
      ObsByFn[internSymbol(FnName)] = collectObligations(F.Body, Mask);

    ChecksDb Db;
    VerdictCounts Counts;
    Engine.forEachInstance([&](const auto &Key, Daig<D> &G) {
      const auto &Obs = ObsByFn[Key.Fn];
      if (Obs.empty())
        return;
      Counts += runChecks<D>(
          Obs, [&](Loc L) { return G.queryLocation(L); },
          [&](Loc L) { return G.locationDegraded(L); }, Db, &Stats);
    });
    R.Safe += Counts.Safe;
    R.Warning += Counts.Warning;
    R.Error += Counts.Error;
    R.Unreachable += Counts.Unreachable;
    if (!Prog.ExpectSafe && Counts.Warning + Counts.Error > 0)
      ++R.UnsafeFlagged;
  }
  R.Checks = Stats.ChecksEvaluated;
  R.WallMs = msSince(T0);
  return R;
}

/// The erasure-overhead A/B: the identical largest-size incr+demand
/// workload through the direct ZoneDomain template and through AnyDomain
/// bound to "zone". Dispatch cost is the only difference allowed — the
/// zone counter deltas of both runs must match exactly (the end-to-end
/// bit-identity lives in tests/domain_registry_test.cpp; the bench repeats
/// the cheap counter half as a production tripwire) — so overhead_pct is a
/// measured number, not an assumption.
struct ErasureAB {
  bool Ran = false;
  unsigned Vars = 0;
  double DirectWallMs = 0;
  double ErasedWallMs = 0;
  double OverheadPct = 0;
  uint64_t CounterMismatches = 0;
};

ErasureAB runErasureAB(const Options &Opt) {
  ErasureAB R;
  if (Opt.SweepSizes.empty())
    return R;
  R.Vars = Opt.SweepSizes.back();
  SweepResult Direct = runSweepPoint<ZoneDomain>(Opt, R.Vars);
  SweepResult Erased;
  {
    AnyDomainDefaultScope Scope("zone");
    Erased = runSweepPoint<AnyDomain>(Opt, R.Vars);
  }
  R.DirectWallMs = Direct.WallMs;
  R.ErasedWallMs = Erased.WallMs;
  R.OverheadPct =
      Direct.WallMs > 0 ? (Erased.WallMs / Direct.WallMs - 1) * 100 : 0;
  std::ostringstream A, B;
  A << Direct.Counters.Zone;
  B << Erased.Counters.Zone;
  R.CounterMismatches = A.str() == B.str() ? 0 : 1;
  R.Ran = true;
  return R;
}

//===----------------------------------------------------------------------===//
// Parallel phase (--threads): engine-internal parallel batch re-analysis
//===----------------------------------------------------------------------===//

/// One row of the parallel phase: setParallelism(Threads) batch analysis
/// of the same call-heavy octagon workload, answers cross-checked against
/// the serial engine.
struct ParallelRow {
  unsigned Threads = 0;
  double WallMs = 0;    ///< Best of Opt.ParallelReps fresh re-analyses.
  double Speedup = 1.0; ///< vs. this phase's threads=1 row.
  uint64_t Mismatches = 0;
  size_t Instances = 0;
};

/// Runs the parallel phase AFTER every sweep counter window has closed, so
/// the gate counters stay bit-identical whether or not --threads is used.
/// The workload is the largest sweep size made call-heavy (k=1, extra
/// helpers) so each quiescence pass has many independent (function,
/// context) instances to schedule.
std::vector<ParallelRow> runParallelPhase(const Options &Opt) {
  unsigned Vars = Opt.SweepSizes.empty() ? Opt.Vars : Opt.SweepSizes.back();
  WorkloadOptions WOpts;
  WOpts.Seed = Opt.Seed;
  WOpts.NumVars = Vars;
  WOpts.PctCallStmt = 18;
  WOpts.HelperCount = 6;
  WorkloadGenerator Gen(WOpts);
  Program P = Gen.makeInitialProgram();
  for (unsigned E = 0; E < Opt.Edits; ++E)
    Gen.applyRandomEdit(P);

  // Serial reference: exit summaries of every instance. Running it first
  // also pre-interns the full name/symbol vocabulary, so the measured
  // parallel runs hit the intern tables read-mostly.
  InterprocEngine<OctagonDomain> Ref(P, "main", /*K=*/1);
  if (!Ref.valid()) {
    std::fprintf(stderr, "parallel phase workload invalid: %s\n",
                 Ref.error().c_str());
    return {};
  }
  Ref.analyzeAllFromMain();
  std::map<std::string, Octagon> Want;
  Ref.forEachInstance([&](const auto &Key, Daig<OctagonDomain> &G) {
    Want.emplace(Key.toString(),
                 G.queryLocation(Ref.cfgOf(Key.Fn)->exit()));
  });

  std::vector<ParallelRow> Rows;
  double BaseMs = 0;
  for (unsigned T : Opt.Threads) {
    ParallelRow Row;
    Row.Threads = T;
    Row.WallMs = -1;
    for (unsigned Rep = 0; Rep < Opt.ParallelReps; ++Rep) {
      InterprocEngine<OctagonDomain> E(P, "main", /*K=*/1);
      E.setParallelism(T);
      Clock::time_point T0 = Clock::now();
      Row.Instances = E.analyzeAllFromMain();
      double Ms = msSince(T0);
      if (Row.WallMs < 0 || Ms < Row.WallMs)
        Row.WallMs = Ms;
      if (Rep != 0)
        continue;
      // Cross-check (first rep only; answers are deterministic): every
      // instance's exit summary must equal the serial engine's.
      uint64_t Bad = 0;
      size_t Seen = 0;
      E.forEachInstance([&](const auto &Key, Daig<OctagonDomain> &G) {
        ++Seen;
        auto It = Want.find(Key.toString());
        if (It == Want.end() ||
            !OctagonDomain::equal(
                G.queryLocation(E.cfgOf(Key.Fn)->exit()), It->second))
          ++Bad;
      });
      if (Want.size() > Seen) // instances the parallel run never created
        Bad += Want.size() - Seen;
      Row.Mismatches = Bad;
    }
    if (BaseMs == 0 || T == 1)
      BaseMs = Row.WallMs;
    Row.Speedup = Row.WallMs > 0 ? BaseMs / Row.WallMs : 0.0;
    Rows.push_back(Row);
  }
  return Rows;
}

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Idx = P / 100.0 * (static_cast<double>(Sorted.size()) - 1);
  size_t Lo = static_cast<size_t>(Idx);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Idx - static_cast<double>(Lo);
  return Sorted[Lo] * (1 - Frac) + Sorted[Hi] * Frac;
}

struct ConfigResult {
  Config C;
  std::vector<Sample> AllSamples;
};

/// The Fig. 10 configuration table over one domain.
template <typename D>
std::vector<ConfigResult> runConfigs(const std::vector<Config> &Configs,
                                     const Options &Opt) {
  std::vector<ConfigResult> Results;
  for (Config C : Configs) {
    ConfigResult R{C, {}};
    for (unsigned Trial = 0; Trial < Opt.Trials; ++Trial) {
      std::vector<Sample> S = runTrial<D>(C, Opt, Opt.Seed + Trial);
      R.AllSamples.insert(R.AllSamples.end(), S.begin(), S.end());
    }
    Results.push_back(std::move(R));
    std::fprintf(stderr, "finished %s (%s)\n", configName(C), D::name());
  }
  return Results;
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    auto next = [&](const char *Flag) -> long {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", Flag);
        std::exit(1);
      }
      return std::strtol(argv[++I], nullptr, 10);
    };
    if (!std::strcmp(argv[I], "--edits"))
      Opt.Edits = static_cast<unsigned>(next("--edits"));
    else if (!std::strcmp(argv[I], "--trials"))
      Opt.Trials = static_cast<unsigned>(next("--trials"));
    else if (!std::strcmp(argv[I], "--queries"))
      Opt.Queries = static_cast<unsigned>(next("--queries"));
    else if (!std::strcmp(argv[I], "--seed"))
      Opt.Seed = static_cast<uint64_t>(next("--seed"));
    else if (!std::strcmp(argv[I], "--vars"))
      Opt.Vars = static_cast<unsigned>(next("--vars"));
    else if (!std::strcmp(argv[I], "--no-batch"))
      Opt.RunBatch = false;
    else if (!std::strcmp(argv[I], "--domain")) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "missing value for --domain\n");
        return 1;
      }
      const char *V = argv[++I];
      if (!std::strcmp(V, "octagon"))
        Opt.Domain = DomainChoice::Octagon;
      else if (!std::strcmp(V, "zone"))
        Opt.Domain = DomainChoice::Zone;
      else if (!std::strcmp(V, "staged"))
        Opt.Domain = DomainChoice::Staged;
      else if (!std::strcmp(V, "dis_interval"))
        Opt.Domain = DomainChoice::DisInterval;
      else if (!std::strcmp(V, "arr_interval"))
        Opt.Domain = DomainChoice::ArrInterval;
      else if (!std::strcmp(V, "arr_zone"))
        Opt.Domain = DomainChoice::ArrZone;
      else if (!std::strcmp(V, "both"))
        Opt.Domain = DomainChoice::Both;
      else {
        std::fprintf(stderr, "--domain must be octagon, zone, staged, "
                             "dis_interval, arr_interval, arr_zone, or "
                             "both\n");
        return 1;
      }
    } else if (!std::strcmp(argv[I], "--json")) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "missing value for --json\n");
        return 1;
      }
      Opt.JsonPath = argv[++I];
    } else if (!std::strcmp(argv[I], "--no-json"))
      Opt.JsonPath.clear();
    else if (!std::strcmp(argv[I], "--threads")) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "missing value for --threads\n");
        return 1;
      }
      Opt.Threads.clear();
      for (const char *P = argv[++I]; *P;) {
        char *End = nullptr;
        long V = std::strtol(P, &End, 10);
        if (End == P || V <= 0) {
          std::fprintf(stderr, "bad --threads list\n");
          return 1;
        }
        Opt.Threads.push_back(static_cast<unsigned>(V));
        P = (*End == ',') ? End + 1 : End;
      }
    } else if (!std::strcmp(argv[I], "--sizes")) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "missing value for --sizes\n");
        return 1;
      }
      Opt.SweepSizes.clear();
      for (const char *P = argv[++I]; *P;) {
        char *End = nullptr;
        long V = std::strtol(P, &End, 10);
        if (End == P || V <= 0) {
          std::fprintf(stderr, "bad --sizes list\n");
          return 1;
        }
        Opt.SweepSizes.push_back(static_cast<unsigned>(V));
        P = (*End == ',') ? End + 1 : End;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--edits N] [--trials N] [--queries N] "
                   "[--seed S] [--vars N] [--no-batch] "
                   "[--domain octagon|zone|staged|dis_interval|"
                   "arr_interval|arr_zone|both] [--json PATH] "
                   "[--no-json] [--sizes N,N,...] [--threads N,N,...]\n",
                   argv[0]);
      return 1;
    }
  }

  // The Fig. 10 config table reproduces the PAPER's study, which is an
  // octagon study — it runs the zone or staged domain instead only on
  // explicit request. --domain both (the default) affects the per-size
  // SWEEP below.
  const bool TableIsZone = Opt.Domain == DomainChoice::Zone;
  const bool TableIsStaged = Opt.Domain == DomainChoice::Staged;
  const bool TableIsDis = Opt.Domain == DomainChoice::DisInterval;
  std::printf("# Fig. 10 reproduction: %s domain, %u edits x %u trials, "
              "%u queries between edits, seed %llu\n",
              TableIsZone
                  ? "zone"
                  : (TableIsStaged ? "staged"
                                   : (TableIsDis ? "dis_interval"
                                                 : "octagon")),
              Opt.Edits, Opt.Trials, Opt.Queries,
              static_cast<unsigned long long>(Opt.Seed));
  std::printf("# Edit mix: 85%% statement / 10%% if / 5%% while insertions "
              "(Section 7.3)\n\n");

  std::vector<Config> Configs;
  if (Opt.RunBatch)
    Configs.push_back(Config::Batch);
  Configs.push_back(Config::Incremental);
  Configs.push_back(Config::DemandDriven);
  Configs.push_back(Config::IncrementalAndDemand);

  std::vector<ConfigResult> Results =
      TableIsZone
          ? runConfigs<ZoneDomain>(Configs, Opt)
          : (TableIsStaged
                 ? runConfigs<StagedDomain>(Configs, Opt)
                 : (TableIsDis ? runConfigs<DisIntervalDomain>(Configs, Opt)
                               : runConfigs<OctagonDomain>(Configs, Opt)));

  // Scatter series (Fig. 10's four per-configuration plots).
  for (const ConfigResult &R : Results) {
    size_t Stride = std::max<size_t>(1, R.AllSamples.size() / Opt.ScatterPoints);
    for (size_t I = 0; I < R.AllSamples.size(); I += Stride) {
      const Sample &S = R.AllSamples[I];
      std::printf("SCATTER %s %u %zu %.3f\n", configName(R.C), S.EditIndex,
                  S.ProgramEdges, S.Ms);
    }
  }
  std::printf("\n");

  // Cumulative distribution (Fig. 10's CDF plot).
  for (const ConfigResult &R : Results) {
    std::vector<double> Sorted;
    Sorted.reserve(R.AllSamples.size());
    for (const Sample &S : R.AllSamples)
      Sorted.push_back(S.Ms);
    std::sort(Sorted.begin(), Sorted.end());
    for (double Frac : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
                        0.99, 1.0})
      std::printf("CDF %s %.3f %.2f\n", configName(R.C),
                  percentile(Sorted, Frac * 100), Frac);
  }
  std::printf("\n");

  // Summary table (Fig. 10's table: mean / p50 / p90 / p95 / p99, in ms).
  std::printf("%-14s %10s %10s %10s %10s %10s\n", "Config", "mean", "p50",
              "p90", "p95", "p99");
  double IddP95 = 0, BestOtherP95 = -1;
  for (const ConfigResult &R : Results) {
    std::vector<double> Sorted;
    double Sum = 0;
    for (const Sample &S : R.AllSamples) {
      Sorted.push_back(S.Ms);
      Sum += S.Ms;
    }
    std::sort(Sorted.begin(), Sorted.end());
    double Mean = Sorted.empty() ? 0 : Sum / static_cast<double>(Sorted.size());
    double P95 = percentile(Sorted, 95);
    std::printf("%-14s %9.2f %9.2f %9.2f %9.2f %9.2f\n", configName(R.C),
                Mean, percentile(Sorted, 50), percentile(Sorted, 90), P95,
                percentile(Sorted, 99));
    if (R.C == Config::IncrementalAndDemand)
      IddP95 = P95;
    else if (BestOtherP95 < 0 || P95 < BestOtherP95)
      BestOtherP95 = P95;
  }
  if (BestOtherP95 > 0 && IddP95 > 0)
    std::printf("\n# I&DD p95 advantage over next-best configuration: %.1fx "
                "(paper reports >5x)\n",
                BestOtherP95 / IddP95);

  if (Opt.JsonPath.empty())
    return 0;

  // Per-size sweep of the incr+demand configuration, per domain: the perf
  // trajectory that future PRs regress against, with the closure mix
  // explaining it. The identical seeded workload runs through both domains,
  // so the counters are directly comparable per size.
  std::vector<SweepResult> Sweep;
  const bool WantOctagon = Opt.Domain == DomainChoice::Octagon ||
                           Opt.Domain == DomainChoice::Both;
  const bool WantZone =
      Opt.Domain == DomainChoice::Zone || Opt.Domain == DomainChoice::Both;
  const bool WantStaged = Opt.Domain == DomainChoice::Staged ||
                          Opt.Domain == DomainChoice::Both;
  const bool WantDis = Opt.Domain == DomainChoice::DisInterval ||
                       Opt.Domain == DomainChoice::Both;
  const bool WantArrInterval = Opt.Domain == DomainChoice::ArrInterval ||
                               Opt.Domain == DomainChoice::Both;
  const bool WantArrZone =
      Opt.Domain == DomainChoice::ArrZone || Opt.Domain == DomainChoice::Both;
  for (unsigned V : Opt.SweepSizes) {
    if (WantOctagon) {
      Sweep.push_back(runSweepPoint<OctagonDomain>(Opt, V));
      std::fprintf(stderr, "sweep octagon vars=%u done (%.1f ms)\n", V,
                   Sweep.back().WallMs);
    }
    if (WantZone) {
      Sweep.push_back(runSweepPoint<ZoneDomain>(Opt, V));
      std::fprintf(stderr, "sweep zone vars=%u done (%.1f ms)\n", V,
                   Sweep.back().WallMs);
    }
    if (WantStaged) {
      Sweep.push_back(runStagedSweepPoint(Opt, V));
      std::fprintf(stderr,
                   "sweep staged vars=%u done (%.1f ms + %.1f ms sum phase, "
                   "%llu mismatches)\n",
                   V, Sweep.back().WallMs, Sweep.back().SumQueryMs,
                   static_cast<unsigned long long>(Sweep.back().SumMismatches));
    }
  }

  // Registry-era rows run AFTER the historical sweep loop: every
  // pre-registry counter window above has closed, so the octagon / zone /
  // staged gate counters stay bit-identical to baselines that predate the
  // domain registry.
  if (WantDis) {
    for (unsigned V : Opt.SweepSizes) {
      Sweep.push_back(runSweepPoint<DisIntervalDomain>(Opt, V));
      std::fprintf(stderr, "sweep dis_interval vars=%u done (%.1f ms)\n", V,
                   Sweep.back().WallMs);
    }
  }
  std::vector<ArrayRow> ArrayRows;
  if (WantArrInterval) {
    ArrayRows.push_back(runArrayCorpusRow<ArraySmashDomain<IntervalDomain>>());
    std::fprintf(stderr, "corpus %s done (%.1f ms, %u programs)\n",
                 ArrayRows.back().Domain, ArrayRows.back().WallMs,
                 ArrayRows.back().Programs);
  }
  if (WantArrZone) {
    ArrayRows.push_back(runArrayCorpusRow<ArraySmashDomain<ZoneDomain>>());
    std::fprintf(stderr, "corpus %s done (%.1f ms, %u programs)\n",
                 ArrayRows.back().Domain, ArrayRows.back().WallMs,
                 ArrayRows.back().Programs);
  }

  // Erasure A/B (zone vs AnyDomain-bound-zone) at the largest sweep size;
  // runs under --domain zone or the default both.
  ErasureAB AB;
  if (Opt.Domain == DomainChoice::Zone || Opt.Domain == DomainChoice::Both)
    AB = runErasureAB(Opt);
  bool ErasureOk = true;
  if (AB.Ran) {
    std::printf("\n# erasure A/B (zone, vars=%u): direct %.1f ms vs erased "
                "%.1f ms (%+.1f%% overhead), counter mismatches %llu\n",
                AB.Vars, AB.DirectWallMs, AB.ErasedWallMs, AB.OverheadPct,
                static_cast<unsigned long long>(AB.CounterMismatches));
    if (AB.CounterMismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: erased zone counter deltas diverged from the "
                   "direct ZoneDomain run — erasure must be semantics-free\n");
      ErasureOk = false;
    }
  }

  // Parallel phase LAST: every sweep counter window above is closed, so the
  // engine-parallel runs cannot perturb the gate counters.
  std::vector<ParallelRow> ParallelRows = runParallelPhase(Opt);
  bool ParallelOk = true;
  if (!ParallelRows.empty()) {
    std::printf("\n# parallel batch re-analysis (octagon, k=1, vars=%u, "
                "best of %u, hardware threads: %u)\n",
                Opt.SweepSizes.empty() ? Opt.Vars : Opt.SweepSizes.back(),
                Opt.ParallelReps, TaskPool::hardwareParallelism());
    std::printf("%8s %10s %10s %9s %10s\n", "threads", "instances",
                "wall_ms", "speedup", "mismatch");
    for (const ParallelRow &R : ParallelRows) {
      std::printf("%8u %10zu %10.1f %8.2fx %10llu\n", R.Threads,
                  R.Instances, R.WallMs, R.Speedup,
                  static_cast<unsigned long long>(R.Mismatches));
      if (R.Mismatches != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu serial-vs-parallel result mismatches at "
                     "%u threads\n",
                     static_cast<unsigned long long>(R.Mismatches),
                     R.Threads);
        ParallelOk = false;
      }
    }
  }

  FILE *F = std::fopen(Opt.JsonPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Opt.JsonPath.c_str());
    return 1;
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"bench\": \"fig10_octagon_workload\",\n");
  std::fprintf(F,
               "  \"edits\": %u,\n  \"trials\": %u,\n  \"queries\": %u,\n"
               "  \"seed\": %llu,\n",
               Opt.Edits, Opt.Trials, Opt.Queries,
               static_cast<unsigned long long>(Opt.Seed));
  std::fprintf(F, "  \"configs\": [\n");
  for (size_t RI = 0; RI < Results.size(); ++RI) {
    const ConfigResult &R = Results[RI];
    std::vector<double> Sorted;
    double Sum = 0;
    for (const Sample &S : R.AllSamples) {
      Sorted.push_back(S.Ms);
      Sum += S.Ms;
    }
    std::sort(Sorted.begin(), Sorted.end());
    double Mean = Sorted.empty() ? 0 : Sum / static_cast<double>(Sorted.size());
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"mean_ms\": %.4f, \"p50_ms\": %.4f, "
                 "\"p90_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                 configName(R.C), Mean, percentile(Sorted, 50),
                 percentile(Sorted, 90), percentile(Sorted, 95),
                 percentile(Sorted, 99),
                 RI + 1 < Results.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F, "  \"hardware_threads\": %u,\n",
               TaskPool::hardwareParallelism());
  // Tracing overhead audit: the default bench runs UN-traced, so the gate
  // zero-asserts both dai_trace_* fields — a nonzero value means a hook
  // recorded (or dropped) events on the measured counter paths.
  MetricsRegistry TraceReg;
  exportTraceStats(TraceReg);
  std::fprintf(F, "  \"trace\": %s,\n", TraceReg.toJson().c_str());
  // The measured cost of type erasure: same workload, direct template vs
  // AnyDomain dispatch. Field names avoid the bare "wall_ms"/zone_* keys so
  // the per-size gate scans never pick this object up.
  if (AB.Ran)
    std::fprintf(F,
                 "  \"erasure_ab\": {\"domain\": \"zone\", \"vars\": %u, "
                 "\"direct_wall_ms\": %.3f, \"erased_wall_ms\": %.3f, "
                 "\"erasure_overhead_pct\": %.2f, "
                 "\"erasure_counter_mismatches\": %llu},\n",
                 AB.Vars, AB.DirectWallMs, AB.ErasedWallMs, AB.OverheadPct,
                 static_cast<unsigned long long>(AB.CounterMismatches));
  std::fprintf(F, "  \"parallel\": [\n");
  for (size_t RI = 0; RI < ParallelRows.size(); ++RI) {
    const ParallelRow &R = ParallelRows[RI];
    std::fprintf(F,
                 "    {\"phase\": \"batch_reanalysis\", \"domain\": "
                 "\"octagon\", \"threads\": %u, \"instances\": %zu, "
                 "\"wall_ms\": %.3f, \"speedup\": %.4f, "
                 "\"parallel_result_mismatches\": %llu}%s\n",
                 R.Threads, R.Instances, R.WallMs, R.Speedup,
                 static_cast<unsigned long long>(R.Mismatches),
                 RI + 1 < ParallelRows.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F, "  \"sizes\": [\n");
  for (size_t SI = 0; SI < Sweep.size(); ++SI) {
    const SweepResult &S = Sweep[SI];
    const char *Sep =
        SI + 1 < Sweep.size() || !ArrayRows.empty() ? "," : "";
    const ThreadCounters &C = S.Counters;
    std::fprintf(F,
                 "    {\"domain\": \"%s\", \"vars\": %u, \"wall_ms\": %.3f, "
                 "\"analysis_ms\": %.3f",
                 S.Domain, S.Vars, S.WallMs, S.AnalysisMs);
    if (std::strcmp(S.Domain, "dis_interval") == 0) {
      // dis_interval rows carry ONLY dis_interval_-prefixed counters (plus
      // the shared vars/wall_ms/analysis_ms shape the gate script keys on);
      // dis_interval_partitions_collapsed is the gated family.
      std::fprintf(F, ", \"dis_interval_max_partitions\": %u",
                   disIntervalMaxPartitions());
      printCounters(F, C.DisInterval);
    } else if (std::strcmp(S.Domain, "staged") == 0) {
      // Staged rows carry ONLY staged_-prefixed counter fields so the gate
      // script's per-field largest-size scan never conflates them with the
      // octagon/zone rows at the same sweep size. staged_sum_queries is
      // the bench's lockstep comparison count, not StagedCounters'.
      std::fprintf(
          F,
          ", \"staged_escalations\": %llu, \"staged_oct_seeds\": %llu, "
          "\"staged_escalated_transfers\": %llu, "
          "\"staged_zone_transfers\": %llu, \"staged_sum_queries\": %llu, "
          "\"staged_sum_query_ms\": %.3f, \"staged_sum_mismatches\": %llu, "
          "\"staged_sum_tighter\": %llu, \"staged_escalated_locations\": "
          "%llu",
          static_cast<unsigned long long>(C.Staged.Escalations),
          static_cast<unsigned long long>(C.Staged.OctSeeds),
          static_cast<unsigned long long>(C.Staged.EscalatedTransfers),
          static_cast<unsigned long long>(C.Staged.ZoneTransfers),
          static_cast<unsigned long long>(S.SumQueries), S.SumQueryMs,
          static_cast<unsigned long long>(S.SumMismatches),
          static_cast<unsigned long long>(S.SumTighter),
          static_cast<unsigned long long>(S.EscalatedLocs));
      printCounters(F, C.Budget, "staged_");
    } else if (std::strcmp(S.Domain, "zone") == 0) {
      // Sparse-graph counters: closure_vertices_visited is the zone's
      // deterministic gate metric (the analogue of dbm_cells_touched).
      printCounters(F, C.Zone);
      printCounters(F, C.Budget, "zone_");
      printCounters(F, S.Names);
    } else {
      // Octagon entries keep the historical, unprefixed field set so older
      // tooling keyed on dbm_cells_touched still parses them.
      printCounters(F, C.Closure);
      printCounters(F, S.Names);
    }
    std::fprintf(F, "}%s\n", Sep);
  }
  // Array-smashing corpus rows (registry-reported domain names). Verdict
  // tallies carry the domain-name prefix so neither the checker-bench gate
  // (unprefixed checks_* fields) nor the per-size scans above match them;
  // "programs" replaces "vars" — the row is a corpus, not a sweep size.
  for (size_t AI = 0; AI < ArrayRows.size(); ++AI) {
    const ArrayRow &A = ArrayRows[AI];
    const char *P = A.Domain;
    std::fprintf(
        F,
        "    {\"domain\": \"%s\", \"programs\": %u, \"wall_ms\": %.3f, "
        "\"%s_checks_evaluated\": %llu, \"%s_safe\": %llu, "
        "\"%s_warning\": %llu, \"%s_error\": %llu, "
        "\"%s_unreachable\": %llu, \"%s_unsafe_expected\": %u, "
        "\"%s_unsafe_flagged\": %u}%s\n",
        P, A.Programs, A.WallMs, P,
        static_cast<unsigned long long>(A.Checks), P,
        static_cast<unsigned long long>(A.Safe), P,
        static_cast<unsigned long long>(A.Warning), P,
        static_cast<unsigned long long>(A.Error), P,
        static_cast<unsigned long long>(A.Unreachable), P, A.UnsafeExpected,
        P, A.UnsafeFlagged, AI + 1 < ArrayRows.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::fprintf(stderr, "wrote %s\n", Opt.JsonPath.c_str());
  return ParallelOk && ErasureOk ? 0 : 1;
}
