//===-- bench/batch_verify.cpp - Checker throughput & incremental bench ---===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker subsystem's bench (analysis/checker.h, analysis/checks_db.h).
/// Every result is one row of bench/rows.h, written to BENCH_verify.json:
///
///  1. **Corpus verification** (`corpus` rows) — verifies the whole
///     bench/corpus program set (2-call-site engine, every instance of
///     every function), best of `--repeats` sweeps, with the aggregate
///     verdict tallies: the ebpf-verifier style "how fast does CI chew the
///     corpus" number. Each row then verifies every program once more
///     through an independent engine and compares the verdict lists
///     (`verdict_mismatches`), and counts the programs written with a real
///     bug that drew no WARNING or ERROR (`unsafe_missed`: a sound analysis
///     may lose precision, never a bug). The interval row runs first; the
///     array-smashing rows (`arr_interval`, `arr_zone`) run last.
///
///  2. **Parallel corpus throughput** (`parallel_corpus` rows, `--threads
///     N,N,...`) — the same corpus verified as independent (program, round)
///     tasks on a shared-cursor TaskPool per thread count, every task's
///     verdict set cross-checked against the serial reference
///     (`parallel_result_mismatches`). `hardware_threads` records how many
///     cores the measurement had — on a single-core runner every thread
///     count necessarily runs at ~1x.
///
///  3. **Incremental re-checking** (`recheck` rows, interval then
///     dis_interval) — the DAIG-native claim: on the Section 7.3 edit
///     workload (asserts enabled), after every edit the IncrementalChecker
///     re-verifies the whole assertion set, and the deterministic
///     checks_rechecked counter proves the re-evaluated slice stays small
///     (< 25% of obligations per edit, averaged) while the verdicts stay
///     bit-identical to a from-scratch batch re-verification (a fresh DAIG
///     over the same program) after EVERY edit (`verdict_mismatches`).
///
/// Exit status: nonzero on any verdict or parallel mismatch, any missed
/// unsafe program, or an average re-check fraction >= 25% — the bench is
/// itself the acceptance test. bench_gate (bench/gate.h) additionally
/// compares the rows against the committed baseline.
///
//===----------------------------------------------------------------------===//

#include "analysis/checker.h"
#include "analysis/checks_db.h"
#include "bench/corpus/array_programs.h"
#include "bench/rows.h"
#include "cfg/lowering.h"
#include "daig/daig.h"
#include "domain/array_smash.h"
#include "domain/dis_interval.h"
#include "domain/interval.h"
#include "domain/zone.h"
#include "interproc/engine.h"
#include "support/task_pool.h"
#include "workload/generator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace dai;
using dai::bench::Row;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Which row families to emit besides the interval corpus and parallel
/// rows, which always run.
enum class DomainChoice {
  Interval,    ///< Incremental re-check rows over intervals.
  DisInterval, ///< Re-check rows over the disjunctive interval domain.
  ArrInterval, ///< Corpus verification under array-smashed intervals.
  ArrZone,     ///< Corpus verification under array-smashed zones.
  All,         ///< Every row family (the committed-baseline default).
};

struct Options {
  unsigned Edits = 250;
  uint64_t Seed = 42;
  unsigned Repeats = 3;
  unsigned PctAssert = 12;
  DomainChoice Domain = DomainChoice::All;
  std::vector<unsigned> SweepSizes = {8, 16, 32, 48};
  std::vector<unsigned> Threads = {1, 2, 4};
  unsigned ParallelRounds = 8; ///< Corpus sweeps per parallel measurement.
  std::string JsonPath = "BENCH_verify.json"; ///< Empty disables JSON.
};

//===----------------------------------------------------------------------===//
// Verdict flattening (shared by every cross-check)
//===----------------------------------------------------------------------===//

/// Flattens a ChecksDb into (edge, sub-index) → (kind, verdict) for exact
/// comparison between two verification passes.
using FlatVerdicts =
    std::map<std::pair<EdgeId, uint32_t>, std::pair<CheckKind, Verdict>>;

FlatVerdicts flatten(const ChecksDb &Db) {
  FlatVerdicts Out;
  for (Loc L : Db.locations())
    for (const CheckResult &R : Db.at(L))
      Out[{R.Edge, R.SubIndex}] = {R.Kind, R.V};
  return Out;
}

uint64_t countMismatches(const FlatVerdicts &FA, const FlatVerdicts &FB) {
  uint64_t Bad = 0;
  for (const auto &[K, V] : FA) {
    auto It = FB.find(K);
    if (It == FB.end() || It->second != V)
      ++Bad;
  }
  for (const auto &[K, V] : FB) {
    (void)V;
    if (!FA.count(K))
      ++Bad;
  }
  return Bad;
}

//===----------------------------------------------------------------------===//
// Corpus verification
//===----------------------------------------------------------------------===//

// The corpus programs carry array manipulation, so the meaningful battery is
// assertions + div-by-zero + bounds; the overflow battery would only add a
// constant-rate WARNING stream to every arithmetic node.
constexpr uint32_t kCorpusMask = checkMask(CheckKind::UserAssertion) |
                                 checkMask(CheckKind::DivByZero) |
                                 checkMask(CheckKind::ArrayBounds);

struct ProgramVerdicts {
  bool Analyzed = false; ///< False when the program failed to lower.
  VerdictCounts Counts;
  FlatVerdicts Flat;
};

/// Lowers, analyzes (k=2) and checks corpus program \p I over domain \p D
/// with private engine state — the unit of every corpus row and of the
/// parallel tasks. Obligations are evaluated once per analyzed (function,
/// context) instance containing them, like the Section 7.2 study. The
/// engine's statistics and the checks' are added to \p Stats.
template <typename D> ProgramVerdicts verifyProgram(int I, Statistics &Stats) {
  const auto &Prog = corpus::ArrayPrograms[I];
  ProgramVerdicts Out;
  LowerResult LR = frontend(Prog.Source);
  if (!LR.ok()) {
    std::fprintf(stderr, "corpus program %s failed to lower: %s\n", Prog.Name,
                 LR.Error.c_str());
    return Out;
  }
  InterprocEngine<D> Engine(std::move(LR.Prog), "main", /*K=*/2);
  if (!Engine.valid()) {
    std::fprintf(stderr, "%s: %s\n", Prog.Name, Engine.error().c_str());
    return Out;
  }
  Engine.analyzeAllFromMain();

  // Obligation inventory per function, collected once.
  std::map<SymbolId, std::vector<Obligation>> ObsByFn;
  for (const auto &[FnName, F] : Engine.program().Functions)
    ObsByFn[internSymbol(FnName)] = collectObligations(F.Body, kCorpusMask);

  ChecksDb Db;
  Engine.forEachInstance([&](const auto &Key, Daig<D> &G) {
    const auto &Obs = ObsByFn[Key.Fn];
    if (Obs.empty())
      return;
    Out.Counts += runChecks<D>(
        Obs, [&](Loc L) { return G.queryLocation(L); },
        [&](Loc L) { return G.locationDegraded(L); }, Db, &Stats);
  });
  Stats.mergeFrom(Engine.statistics());
  Out.Analyzed = true;
  Out.Flat = flatten(Db);
  return Out;
}

/// A `corpus` row over domain \p D: the best wall time of Opt.Repeats
/// sweeps, the tallies of the first (they are deterministic), then the
/// determinism and unsafe-program checks. Clears \p Ok on a failed check.
template <typename D> Row corpusRow(const Options &Opt, bool &Ok) {
  Row R("corpus", D::name(), "threads", 1);
  Statistics Stats;
  VerdictCounts Counts;
  std::vector<FlatVerdicts> First(corpus::NumArrayPrograms);
  uint64_t Programs = 0, UnsafeExpected = 0, UnsafeMissed = 0;
  for (unsigned Rep = 0; Rep == 0 || Rep < Opt.Repeats; ++Rep) {
    Statistics RepStats;
    std::vector<ProgramVerdicts> Verdicts;
    Clock::time_point T0 = Clock::now();
    for (int I = 0; I < corpus::NumArrayPrograms; ++I)
      Verdicts.push_back(verifyProgram<D>(I, RepStats));
    double Ms = msSince(T0);
    if (Rep > 0) {
      R.WallMs = std::min(R.WallMs, Ms);
      continue;
    }
    R.WallMs = Ms;
    Stats = RepStats;
    for (int I = 0; I < corpus::NumArrayPrograms; ++I) {
      const ProgramVerdicts &V = Verdicts[I];
      if (!V.Analyzed)
        continue;
      ++Programs;
      Counts += V.Counts;
      First[I] = V.Flat;
      if (!corpus::ArrayPrograms[I].ExpectSafe) {
        ++UnsafeExpected;
        UnsafeMissed += V.Counts.alarms() == 0;
      }
    }
  }

  uint64_t Mismatches = 0;
  for (int I = 0; I < corpus::NumArrayPrograms; ++I) {
    Statistics Scratch;
    Mismatches += countMismatches(First[I], verifyProgram<D>(I, Scratch).Flat);
  }

  R.addFamily(Stats);
  R.add("programs", Programs);
  R.add("safe", Counts.Safe);
  R.add("warning", Counts.Warning);
  R.add("error", Counts.Error);
  R.add("unreachable", Counts.Unreachable);
  R.add("verdict_mismatches", Mismatches);
  R.add("unsafe_expected", UnsafeExpected);
  R.add("unsafe_missed", UnsafeMissed);

  std::printf("%-13s corpus: %llu programs, %.1f ms, checks %llu (safe %llu / "
              "warning %llu / error %llu / unreachable %llu), determinism "
              "mismatches %llu, unsafe programs missed %llu of %llu\n",
              D::name(), static_cast<unsigned long long>(Programs), R.WallMs,
              static_cast<unsigned long long>(Stats.ChecksEvaluated),
              static_cast<unsigned long long>(Counts.Safe),
              static_cast<unsigned long long>(Counts.Warning),
              static_cast<unsigned long long>(Counts.Error),
              static_cast<unsigned long long>(Counts.Unreachable),
              static_cast<unsigned long long>(Mismatches),
              static_cast<unsigned long long>(UnsafeMissed),
              static_cast<unsigned long long>(UnsafeExpected));
  if (Mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu verdict mismatches between two independent %s "
                 "corpus verifications\n",
                 static_cast<unsigned long long>(Mismatches), D::name());
    Ok = false;
  }
  if (UnsafeMissed != 0) {
    std::fprintf(stderr,
                 "FAIL: %s left %llu of %llu unsafe corpus programs without "
                 "a WARNING or ERROR\n",
                 D::name(), static_cast<unsigned long long>(UnsafeMissed),
                 static_cast<unsigned long long>(UnsafeExpected));
    Ok = false;
  }
  return R;
}

/// The `parallel_corpus` rows: Rounds × NumArrayPrograms independent
/// verification tasks on a shared-cursor pool per thread count, every
/// task's verdict set cross-checked against the serial reference, which
/// runs FIRST so the measured runs see a fully interned name/symbol
/// vocabulary. Clears \p Ok on a mismatch.
std::vector<Row> parallelCorpusRows(const Options &Opt, bool &Ok) {
  std::vector<FlatVerdicts> Ref(corpus::NumArrayPrograms);
  for (int I = 0; I < corpus::NumArrayPrograms; ++I) {
    Statistics Scratch;
    Ref[I] = verifyProgram<IntervalDomain>(I, Scratch).Flat;
  }

  std::printf("\n## parallel corpus verification (%u rounds x %d programs, "
              "hardware threads: %u)\n",
              Opt.ParallelRounds, corpus::NumArrayPrograms,
              TaskPool::hardwareParallelism());
  std::printf("%8s %10s %14s %9s %10s\n", "threads", "wall_ms",
              "programs/sec", "speedup", "mismatch");
  std::vector<Row> Out;
  double BaseMs = 0;
  for (unsigned T : Opt.Threads) {
    TaskPool Pool(T);
    std::atomic<uint64_t> Mismatches{0};
    std::vector<TaskPool::Task> Tasks;
    Tasks.reserve(static_cast<size_t>(Opt.ParallelRounds) *
                  corpus::NumArrayPrograms);
    for (unsigned R = 0; R < Opt.ParallelRounds; ++R)
      for (int I = 0; I < corpus::NumArrayPrograms; ++I)
        Tasks.push_back([I, &Ref, &Mismatches] {
          Statistics Scratch;
          uint64_t Bad = countMismatches(
              verifyProgram<IntervalDomain>(I, Scratch).Flat, Ref[I]);
          if (Bad)
            Mismatches.fetch_add(Bad, std::memory_order_relaxed);
        });
    size_t NumTasks = Tasks.size();
    Clock::time_point T0 = Clock::now();
    Pool.run(std::move(Tasks));
    double Ms = msSince(T0);

    Row R("parallel_corpus", "interval", "threads", T, Ms);
    R.add("tasks", NumTasks);
    R.add("parallel_result_mismatches", Mismatches.load());
    Out.push_back(R);
    // Speedup is relative to the threads=1 row (or the first row when 1 is
    // not in the list).
    if (BaseMs == 0 || T == 1)
      BaseMs = Ms;
    std::printf("%8u %10.1f %14.1f %8.2fx %10llu\n", T, Ms,
                Ms > 0 ? 1000.0 * static_cast<double>(NumTasks) / Ms : 0.0,
                Ms > 0 ? BaseMs / Ms : 0.0,
                static_cast<unsigned long long>(Mismatches.load()));
    if (Mismatches.load() != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu serial-vs-parallel verdict mismatches at %u "
                   "threads\n",
                   static_cast<unsigned long long>(Mismatches.load()), T);
      Ok = false;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Incremental re-checking
//===----------------------------------------------------------------------===//

/// A `recheck` row: the edit/re-check loop over domain \p D. The
/// incremental checker and its DAIG dirtying are domain-generic, so the
/// re-check fraction claim (< 25%) and the incremental-vs-batch
/// bit-identity hold for every registered domain — the dis_interval rows
/// prove it for a disjunctive (non-convex) domain. Clears \p Ok on a failed
/// claim.
template <typename D>
Row recheckRow(const Options &Opt, unsigned Vars, bool &Ok) {
  WorkloadOptions WOpts;
  WOpts.Seed = Opt.Seed;
  WOpts.NumVars = Vars;
  WOpts.PctAssertStmt = Opt.PctAssert;
  WorkloadGenerator Gen(WOpts);
  Program P = Gen.makeInitialProgram();
  Function *Main = P.find("main");

  Statistics Stats;
  Daig<D> G(&Main->Body, D::initialEntry(Main->Params), &Stats);
  IncrementalChecker<D> Checker(G, Main->Body, &Stats);
  Checker.recheck(); // initial full pass (not counted as re-checking)

  double SumPct = 0, MaxPct = 0, WallMs = 0;
  unsigned PctSamples = 0;
  uint64_t ChecksTotal = 0; ///< Cumulative obligations over all re-passes.
  uint64_t Mismatches = 0;

  for (unsigned E = 0; E < Opt.Edits; ++E) {
    EditRecord Rec = Gen.applyRandomEdit(P);
    uint64_t Before = Stats.ChecksRechecked;

    Clock::time_point T0 = Clock::now();
    if (Rec.Kind == EditKind::InsertStmt)
      G.applyInsertedStatement(Rec.At, Rec.Splice);
    else
      G.rebuild();
    VerdictCounts Counts = Checker.recheck();
    WallMs += msSince(T0);

    uint64_t Rechecked = Stats.ChecksRechecked - Before;
    uint64_t Total = Counts.total();
    ChecksTotal += Total;
    if (Total > 0) {
      double Pct = 100.0 * static_cast<double>(Rechecked) /
                   static_cast<double>(Total);
      SumPct += Pct;
      ++PctSamples;
      MaxPct = std::max(MaxPct, Pct);
    }

    // Batch re-verification from scratch: a fresh DAIG over the same
    // program must produce the identical verdict set.
    Statistics BatchStats;
    Daig<D> Fresh(&Main->Body, D::initialEntry(Main->Params), &BatchStats);
    ChecksDb BatchDb;
    std::vector<Obligation> Obs = collectObligations(Main->Body);
    runChecks<D>(
        Obs, [&](Loc L) { return Fresh.queryLocation(L); },
        [&](Loc L) { return Fresh.locationDegraded(L); }, BatchDb,
        &BatchStats);
    Mismatches += countMismatches(flatten(Checker.db()), flatten(BatchDb));
  }

  double AvgPct = PctSamples ? SumPct / PctSamples : 0.0;
  Row R("recheck", D::name(), "vars", Vars, WallMs);
  R.addFamily(Stats);
  R.add("checks_total", ChecksTotal);
  R.add("verdict_mismatches", Mismatches);
  R.addReal("avg_recheck_pct", AvgPct);
  R.addReal("max_recheck_pct", MaxPct);

  std::printf("%-13s %6u %10.1f %12llu %12llu %12llu %9.2f%% %9.2f%% %10llu\n",
              D::name(), Vars, WallMs,
              static_cast<unsigned long long>(Stats.ChecksEvaluated),
              static_cast<unsigned long long>(Stats.ChecksRechecked),
              static_cast<unsigned long long>(ChecksTotal), AvgPct, MaxPct,
              static_cast<unsigned long long>(Mismatches));
  if (Mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu incremental-vs-batch verdict mismatches at %u "
                 "vars (%s)\n",
                 static_cast<unsigned long long>(Mismatches), Vars, D::name());
    Ok = false;
  }
  if (AvgPct >= 25.0) {
    std::fprintf(stderr,
                 "FAIL: average re-check fraction %.2f%% >= 25%% at %u vars "
                 "(%s)\n",
                 AvgPct, Vars, D::name());
    Ok = false;
  }
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  const char *Usage =
      "[--edits N] [--seed S] [--repeats N] [--pct-assert N] "
      "[--domain interval|dis_interval|arr_interval|arr_zone|all] "
      "[--sizes N,N,...] [--threads N,N,...] [--rounds N] [--json PATH] "
      "[--no-json]";
  bench::Flags F(Argc, Argv, Usage);
  while (F.next()) {
    if (F.is("--edits"))
      Opt.Edits = F.number();
    else if (F.is("--seed"))
      Opt.Seed = F.number<uint64_t>();
    else if (F.is("--repeats"))
      Opt.Repeats = F.number();
    else if (F.is("--pct-assert"))
      Opt.PctAssert = F.number();
    else if (F.is("--domain"))
      Opt.Domain = static_cast<DomainChoice>(F.choice(
          {"interval", "dis_interval", "arr_interval", "arr_zone", "all"}));
    else if (F.is("--sizes"))
      Opt.SweepSizes = F.list();
    else if (F.is("--threads"))
      Opt.Threads = F.list();
    else if (F.is("--rounds"))
      Opt.ParallelRounds = F.number();
    else if (F.is("--json"))
      Opt.JsonPath = F.value();
    else if (F.is("--no-json"))
      Opt.JsonPath.clear();
    else if (F.is("--help")) {
      std::printf("usage: %s %s\n", Argv[0], Usage);
      return 0;
    } else
      F.unknown();
  }

  std::printf("# batch_verify: checker throughput + incremental re-check\n");
  bool Ok = true;
  std::vector<Row> Rows;

  // Corpus throughput, then parallel corpus throughput: each (program,
  // round) is one independent task on a shared-cursor pool.
  std::printf("\n## corpus batch verification (k=2, best of %u)\n",
              Opt.Repeats);
  Rows.push_back(corpusRow<IntervalDomain>(Opt, Ok));
  for (Row &R : parallelCorpusRows(Opt, Ok))
    Rows.push_back(std::move(R));

  // Incremental re-checking.
  std::printf("\n## incremental re-check sweep (%u edits, seed %llu, "
              "%u%% asserts)\n",
              Opt.Edits, static_cast<unsigned long long>(Opt.Seed),
              Opt.PctAssert);
  std::printf("%-13s %6s %10s %12s %12s %12s %10s %10s %10s\n", "domain",
              "vars", "wall_ms", "evaluated", "rechecked", "total", "avg_pct",
              "max_pct", "mismatch");
  const bool All = Opt.Domain == DomainChoice::All;
  if (All || Opt.Domain == DomainChoice::Interval)
    for (unsigned Vars : Opt.SweepSizes)
      Rows.push_back(recheckRow<IntervalDomain>(Opt, Vars, Ok));
  // Registry-era rows run AFTER the full interval sweep, so the historical
  // rows (and the checks_rechecked gate window) stay bit-identical to
  // pre-registry baselines.
  if (All || Opt.Domain == DomainChoice::DisInterval)
    for (unsigned Vars : Opt.SweepSizes)
      Rows.push_back(recheckRow<DisIntervalDomain>(Opt, Vars, Ok));
  std::printf("\n");
  if (All || Opt.Domain == DomainChoice::ArrInterval)
    Rows.push_back(corpusRow<ArraySmashDomain<IntervalDomain>>(Opt, Ok));
  if (All || Opt.Domain == DomainChoice::ArrZone)
    Rows.push_back(corpusRow<ArraySmashDomain<ZoneDomain>>(Opt, Ok));

  if (!Opt.JsonPath.empty()) {
    std::string Header =
        "  \"edits\": " + std::to_string(Opt.Edits) + ",\n  \"seed\": " +
        std::to_string(Opt.Seed) + ",\n  \"pct_assert\": " +
        std::to_string(Opt.PctAssert) + ",\n  \"hardware_threads\": " +
        std::to_string(TaskPool::hardwareParallelism()) + ",\n";
    if (!bench::writeRows(Opt.JsonPath, "batch_verify", Header, Rows))
      return 1;
    std::printf("wrote %s\n", Opt.JsonPath.c_str());
  }
  return Ok ? 0 : 1;
}
