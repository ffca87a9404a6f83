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
/// Additionally writes `BENCH_fig10.json` (override with `--json PATH`,
/// disable with `--no-json`) in the row shape of bench/rows.h: the
/// per-config summary plus a variable-count sweep (`--sizes 8,16,32,48`) of
/// the incr+demand configuration. Each `sweep` row's wall_ms is the summed
/// per-edit analysis latency, and its counters are every thread-local
/// counter family and the name-table deltas of that run, under the counter
/// table's names (support/statistics.h) — so successive PRs can follow the
/// perf trajectory and *why* it moved (full vs. incremental closure mix,
/// cells stored, intern hits).
///
/// The relational domain is an axis:
/// `--domain octagon|zone|staged|dis_interval|both` (default both for the
/// sweep; the Fig. 10 config table itself runs the octagon unless another
/// domain is chosen). On this mostly-⊤ workload the octagon's
/// dbm_cells_touched grows ~n² per sweep size, while the zone's
/// zone_closure_vertices_visited tracks the number of LIVE constraints and
/// grows sub-quadratically in the variable pool.
///
/// Staged rows (domain/staged.h) run the SAME difference workload on the
/// zone tier (their wall time should track the zone's) and then a
/// SUM-CONSTRAINT QUERY PHASE inside the same counter window: escalated
/// queries at sampled locations, with every x + y bound lockstep-compared
/// against a fresh pure-octagon engine on the final program —
/// sum_mismatches counts answers that are not octagon-exact (expected 0;
/// sum_tighter counts sound zone-side prunings, which only tighten).
///
/// The dis_interval rows (domain/dis_interval.h) run after the historical
/// sweep loop, so the earlier rows' counters — the process-global
/// name-table deltas included — stay bit-identical to older baselines.
/// Last, whenever the zone runs, an ERASURE A/B: the identical
/// largest-size workload through the direct ZoneDomain template
/// (`erasure_direct`) and through AnyDomain bound to "zone"
/// (`erasure_any`, domain/registry.h). Overhead is measured, not assumed,
/// and the zone counter deltas must match exactly
/// (erasure_counter_mismatches; the bench exits nonzero otherwise).
///
/// bench_gate (bench/gate.h) compares a fresh JSON against the committed
/// baseline by its rules table.
///
/// Defaults are scaled down from the paper's 3,000 edits × 9 trials so the
/// whole suite runs in CI time; pass `--edits 3000 --trials 9` for paper
/// scale. Same-seed trials issue identical edit/query sequences to every
/// configuration, exactly as in Section 7.3.
///
//===----------------------------------------------------------------------===//

#include "analysis/batch_interpreter.h"
#include "bench/rows.h"
#include "domain/dis_interval.h"
#include "domain/interval.h"
#include "domain/octagon.h"
#include "domain/registry.h"
#include "domain/staged.h"
#include "domain/zone.h"
#include "interproc/engine.h"
#include "support/statistics.h"
#include "workload/generator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace dai;
using dai::bench::Row;

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

/// One point of the per-size sweep: the incr+demand configuration run at a
/// given variable-pool size over one domain, with its analysis time and the
/// counter deltas of the run.
struct SweepResult {
  double AnalysisMs = 0;   ///< Sum of per-edit analysis latencies.
  ThreadCounters Counters; ///< Per-thread counter deltas of the region.

  Row row(const char *Phase, const char *Domain, unsigned Vars) const {
    Row R{Phase, Domain, "vars", Vars, AnalysisMs};
    R.addThreadCounters(Counters);
    return R;
  }
};

/// Snapshot of every counter a sweep point reports — the shared take/delta
/// boilerplate of runSweepPoint and the staged sweep.
struct CounterSnapshot {
  ThreadCounters Thread;

  static CounterSnapshot take() {
    // PeakDbmBytes and NameTableBytes are gauges; zero them so the region
    // reports its own peaks rather than the largest matrix or key index any
    // earlier phase ever allocated.
    closureCounters().PeakDbmBytes = 0;
    nameTableCounters().NameTableBytes = 0;
    return {ThreadCounters::snapshot()};
  }
  /// Writes (now − snapshot) into \p R. Call at the END of the measured
  /// region — anything that runs afterwards (e.g. the staged point's
  /// pure-octagon verification engine) stays out of the reported deltas.
  void deltaInto(SweepResult &R) const {
    R.Counters = ThreadCounters::snapshot().deltaSince(Thread);
  }
};

template <typename D>
SweepResult runSweepPoint(const Options &Opt, unsigned Vars) {
  Options SizeOpt = Opt;
  SizeOpt.Vars = Vars;
  CounterSnapshot Before = CounterSnapshot::take();
  std::vector<Sample> Samples =
      runTrial<D>(Config::IncrementalAndDemand, SizeOpt, Opt.Seed);
  SweepResult R;
  for (const Sample &S : Samples)
    R.AnalysisMs += S.Ms;
  Before.deltaInto(R);
  return R;
}

template <typename D> Row sweepRow(const Options &Opt, unsigned Vars) {
  return runSweepPoint<D>(Opt, Vars).row("sweep", D::name(), Vars);
}

/// The staged sweep row: the identical seeded difference workload (wall
/// time should track the zone's — escalation never triggers on it), then
/// the SUM-CONSTRAINT QUERY PHASE: escalated queries at freshly sampled
/// locations, each x + y answer lockstep-compared against a pure-octagon
/// engine analyzing the same final program. The row's wall_ms is the edit
/// loop's; the phase is timed separately (printed, not part of the row) —
/// its wall is the price of escalation, not of the incremental edit loop.
Row stagedSweepRow(const Options &Opt, unsigned Vars) {
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
  R.AnalysisMs = runIncrDemandEdits(Engine, Gen, SizeOpt, nullptr);

  // Sum-constraint query phase. The escalation scope keeps escalated cells
  // warm across queries: the first zone-only hit resets the instances and
  // re-demands under full escalation; later queries reuse that slice.
  // Only the STAGED side is inside the timed window — the pure-octagon
  // reference run below is lockstep-verification overhead a production
  // analysis never pays.
  std::vector<Loc> SumLocs =
      Gen.sampleQueryLocations(Engine.program(), SizeOpt.Queries);
  const std::vector<std::string> &Pool = Gen.varPool();
  std::vector<std::vector<Interval>> StagedAnswers(SumLocs.size());
  uint64_t EscalatedLocs = 0, Mismatches = 0, Tighter = 0;
  Clock::time_point SumStart = Clock::now();
  {
    StagedEscalationScope Scope;
    for (size_t LI = 0; LI < SumLocs.size(); ++LI) {
      Staged SV = queryEscalatedMain(Engine, SumLocs[LI]);
      if (SV.escalated())
        ++EscalatedLocs;
      for (size_t I = 0; I + 1 < Pool.size(); I += 2)
        StagedAnswers[LI].push_back(SV.sumBounds(
            internSymbol(Pool[I]), internSymbol(Pool[I + 1])));
    }
  }
  double SumQueryMs = msSince(SumStart);
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
      if (S1 == S2)
        continue;
      if (S2.subsumes(S1))
        ++Tighter; // zone-side pruning: sound, strictly tighter
      else
        ++Mismatches; // NOT octagon-exact: a real divergence
    }
  }
  std::fprintf(stderr,
               "staged vars=%u sum phase: %.1f ms, %llu sum mismatches\n",
               Vars, SumQueryMs, static_cast<unsigned long long>(Mismatches));

  Row Out = R.row("sweep", StagedDomain::name(), Vars);
  Out.add("sum_mismatches", Mismatches);
  Out.add("sum_tighter", Tighter);
  Out.add("escalated_locations", EscalatedLocs);
  return Out;
}

/// The erasure-overhead A/B: the identical largest-size incr+demand
/// workload through the direct ZoneDomain template and through AnyDomain
/// bound to "zone", appended to \p Rows as `erasure_direct` and
/// `erasure_any`. Dispatch cost is the only difference allowed — the zone
/// counter deltas of both runs must match exactly (the end-to-end
/// bit-identity lives in tests/domain_registry_test.cpp; the bench repeats
/// the cheap counter half as a production tripwire). Returns whether they
/// matched.
bool runErasureAB(const Options &Opt, std::vector<Row> &Rows) {
  unsigned Vars = Opt.SweepSizes.back();
  SweepResult Direct = runSweepPoint<ZoneDomain>(Opt, Vars);
  SweepResult Erased;
  {
    AnyDomainDefaultScope Scope("zone");
    Erased = runSweepPoint<AnyDomain>(Opt, Vars);
  }
  std::ostringstream A, B;
  A << Direct.Counters.Zone;
  B << Erased.Counters.Zone;
  uint64_t Mismatches = A.str() == B.str() ? 0 : 1;
  Rows.push_back(Direct.row("erasure_direct", "zone", Vars));
  Rows.push_back(Erased.row("erasure_any", "zone", Vars));
  Rows.back().add("erasure_counter_mismatches", Mismatches);
  std::printf("\n# erasure A/B (zone, vars=%u): direct %.1f ms vs erased "
              "%.1f ms (%+.1f%% overhead), counter mismatches %llu\n",
              Vars, Direct.AnalysisMs, Erased.AnalysisMs,
              Direct.AnalysisMs > 0
                  ? (Erased.AnalysisMs / Direct.AnalysisMs - 1) * 100
                  : 0.0,
              static_cast<unsigned long long>(Mismatches));
  if (Mismatches != 0)
    std::fprintf(stderr, "FAIL: erased zone counter deltas diverged from the "
                         "direct ZoneDomain run — erasure must be "
                         "semantics-free\n");
  return Mismatches == 0;
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
  bench::Flags F(argc, argv,
                 "[--edits N] [--trials N] [--queries N] [--seed S] "
                 "[--vars N] [--no-batch] "
                 "[--domain octagon|zone|staged|dis_interval|both] "
                 "[--sizes N,N,...] [--json PATH] [--no-json]");
  while (F.next()) {
    if (F.is("--edits"))
      Opt.Edits = F.number();
    else if (F.is("--trials"))
      Opt.Trials = F.number();
    else if (F.is("--queries"))
      Opt.Queries = F.number();
    else if (F.is("--seed"))
      Opt.Seed = F.number<uint64_t>();
    else if (F.is("--vars"))
      Opt.Vars = F.number();
    else if (F.is("--no-batch"))
      Opt.RunBatch = false;
    else if (F.is("--domain"))
      Opt.Domain = static_cast<DomainChoice>(F.choice(
          {"octagon", "zone", "staged", "dis_interval", "both"}));
    else if (F.is("--sizes"))
      Opt.SweepSizes = F.list();
    else if (F.is("--json"))
      Opt.JsonPath = F.value();
    else if (F.is("--no-json"))
      Opt.JsonPath.clear();
    else
      F.unknown();
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

  // Summary table (Fig. 10's table: mean / p50 / p90 / p95 / p99, in ms),
  // also the JSON's `configs` array.
  std::printf("%-14s %10s %10s %10s %10s %10s\n", "Config", "mean", "p50",
              "p90", "p95", "p99");
  char Buf[256];
  std::snprintf(Buf, sizeof Buf,
                "  \"edits\": %u,\n  \"trials\": %u,\n  \"queries\": %u,\n"
                "  \"seed\": %llu,\n  \"configs\": [\n",
                Opt.Edits, Opt.Trials, Opt.Queries,
                static_cast<unsigned long long>(Opt.Seed));
  std::string Header = Buf;
  double IddP95 = 0, BestOtherP95 = -1;
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
    double P50 = percentile(Sorted, 50), P90 = percentile(Sorted, 90),
           P95 = percentile(Sorted, 95), P99 = percentile(Sorted, 99);
    std::printf("%-14s %9.2f %9.2f %9.2f %9.2f %9.2f\n", configName(R.C),
                Mean, P50, P90, P95, P99);
    std::snprintf(Buf, sizeof Buf,
                  "    {\"name\": \"%s\", \"mean_ms\": %.4f, \"p50_ms\": "
                  "%.4f, \"p90_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": "
                  "%.4f}%s\n",
                  configName(R.C), Mean, P50, P90, P95, P99,
                  RI + 1 < Results.size() ? "," : "");
    Header += Buf;
    if (R.C == Config::IncrementalAndDemand)
      IddP95 = P95;
    else if (BestOtherP95 < 0 || P95 < BestOtherP95)
      BestOtherP95 = P95;
  }
  Header += "  ],\n";
  if (BestOtherP95 > 0 && IddP95 > 0)
    std::printf("\n# I&DD p95 advantage over next-best configuration: %.1fx "
                "(paper reports >5x)\n",
                BestOtherP95 / IddP95);

  if (Opt.JsonPath.empty())
    return 0;

  // Per-size sweep of the incr+demand configuration, per domain: the perf
  // trajectory that future PRs regress against, with the closure mix
  // explaining it. The identical seeded workload runs through every domain,
  // so the counters are directly comparable per size.
  const bool Both = Opt.Domain == DomainChoice::Both;
  const bool WantOctagon = Both || Opt.Domain == DomainChoice::Octagon;
  const bool WantZone = Both || Opt.Domain == DomainChoice::Zone;
  const bool WantStaged = Both || Opt.Domain == DomainChoice::Staged;
  const bool WantDis = Both || Opt.Domain == DomainChoice::DisInterval;
  std::vector<Row> Rows;
  auto done = [&Rows] {
    std::fprintf(stderr, "sweep %s vars=%u done (%.1f ms)\n",
                 Rows.back().Domain.c_str(), Rows.back().At,
                 Rows.back().WallMs);
  };
  for (unsigned V : Opt.SweepSizes) {
    if (WantOctagon) {
      Rows.push_back(sweepRow<OctagonDomain>(Opt, V));
      done();
    }
    if (WantZone) {
      Rows.push_back(sweepRow<ZoneDomain>(Opt, V));
      done();
    }
    if (WantStaged) {
      Rows.push_back(stagedSweepRow(Opt, V));
      done();
    }
  }

  // Registry-era rows run AFTER the historical sweep loop: every
  // pre-registry counter window above has closed, so the octagon / zone /
  // staged rows stay bit-identical to baselines that predate the domain
  // registry.
  if (WantDis)
    for (unsigned V : Opt.SweepSizes) {
      Rows.push_back(sweepRow<DisIntervalDomain>(Opt, V));
      Rows.back().add("max_partitions", disIntervalMaxPartitions());
      done();
    }

  // Erasure A/B (zone vs AnyDomain-bound-zone) at the largest sweep size;
  // runs under --domain zone or the default both.
  bool ErasureOk = !WantZone || runErasureAB(Opt, Rows);

  if (!bench::writeRows(Opt.JsonPath, "fig10_octagon_workload", Header, Rows))
    return 1;
  std::fprintf(stderr, "wrote %s\n", Opt.JsonPath.c_str());
  return ErasureOk ? 0 : 1;
}
