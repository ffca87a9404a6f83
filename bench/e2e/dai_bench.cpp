//===-- bench/e2e/dai_bench.cpp - End-to-end benchmark --------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark (bench/e2e/README.md). Five closed-loop
/// workloads, one client each — the next operation starts only when the
/// previous one has finished — measure what a user of the analyzer waits
/// for:
///
///   ide_octagon          an edit plus its 5 queries, incremental and
///                        demand-driven (the paper's Fig. 10 loop), octagons
///   ide_constprop        the identical edit and query stream over
///                        constants, where the domain is cheapest
///   ide_recheck          an edit plus an incremental re-check of every
///                        obligation
///   batch_corpus         one corpus program verified from source, as a
///                        task on a 2-thread pool (the CI user)
///   parallel_reanalysis  one from-scratch re-analysis of a call-heavy
///                        program at setParallelism(2)
///
/// A run sets up five times (setup_s is the median), then runs units —
/// sessions, corpus rounds or programs; unit k's inputs are drawn from the
/// seed — until --seconds have passed. Every answer is checked against an
/// independent oracle outside the timed regions; an operation that throws
/// or fails its oracle counts as failed. The last stdout line is one JSON
/// object: correct / attempted / failed plus, with --trace 0, the
/// end-to-end metrics and, with --trace 1, the per-layer metrics. A traced
/// run runs each unit on the plain engine and again on one over
/// TimedDomain<D> (timed_domain.h) with the benchmark's own spans
/// (ledger.h).
///
/// usage: dai_bench --workload W [--seed S] [--seconds N] [--trace 0|1]
///                  [--smoke] [--trace-dir DIR]
///        dai_bench --list
///
//===----------------------------------------------------------------------===//

#include "corpus.h"
#include "ledger.h"
#include "timed_domain.h"

#include "analysis/checker.h"
#include "analysis/checks_db.h"
#include "cfg/lowering.h"
#include "daig/daig.h"
#include "domain/constprop.h"
#include "domain/interval.h"
#include "domain/octagon.h"
#include "interproc/engine.h"
#include "support/rng.h"
#include "support/statistics.h"
#include "support/task_pool.h"
#include "workload/generator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <vector>

using namespace dai;
using namespace dai::bench;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

const char *const kWorkloads[] = {"ide_octagon", "ide_constprop",
                                  "ide_recheck", "batch_corpus",
                                  "parallel_reanalysis"};

struct Options {
  std::string Workload;
  uint64_t Seed = 42;
  double Seconds = 15;
  bool Trace = false;
  bool Smoke = false;
  std::string TraceDir;
};

/// Unit sizes; --smoke shrinks them to toy values with every oracle on.
///
/// Units are small so that a run covers many distinct programs: the cost of
/// a session varies with its program (coefficient of variation about 0.45
/// between seeds), and only hundreds of sessions per run make the run's
/// median repeat across seeds. Small units also keep the time bound from
/// changing what a run measures: a faster build completes a few more units
/// of the same kind, not a different mix.
struct Sizes {
  unsigned Vars = 48;             ///< Variable pool of generated programs.
  unsigned SessionEdits = 100;    ///< Edits per ide_* session.
  unsigned CorpusRounds = 20;     ///< batch_corpus: corpus rounds per unit.
  unsigned ReanalysisEdits = 150; ///< parallel_reanalysis program size.
};

Sizes sizesFor(bool Smoke) {
  Sizes S;
  if (Smoke) {
    S.Vars = 12;
    S.SessionEdits = 20;
    S.CorpusRounds = 2;
    S.ReanalysisEdits = 30;
  }
  return S;
}

constexpr unsigned kQueriesPerEdit = 5; ///< ide_octagon / ide_constprop.
constexpr unsigned kOracleEvery = 10;   ///< ide_*: check every Nth edit.
constexpr unsigned kSetups = 5;
/// One set-up runs kWarmupUnits units on fixed seeds — the same work in
/// every run and on every commit — long enough that a scheduling blip at
/// process start is a small part of it.
constexpr unsigned kWarmupUnits = 3;
constexpr uint64_t kWarmupSeed = 0x5e75e7;
constexpr uint64_t kScheduleCheckEvery = 4;
constexpr unsigned kPoolThreads = 2;
constexpr uint64_t kExportOpsPerThread = 300;

// The corpus programs manipulate arrays: assertions, division by zero and
// bounds are the meaningful checks (the overflow family would only add a
// constant stream of warnings to every arithmetic node).
constexpr uint32_t kCorpusMask = checkMask(CheckKind::UserAssertion) |
                                 checkMask(CheckKind::DivByZero) |
                                 checkMask(CheckKind::ArrayBounds);

//===----------------------------------------------------------------------===//
// Library counters
//===----------------------------------------------------------------------===//

/// One snapshot of the library's public work counters. Every read of
/// support/statistics.h goes through here.
struct LibCounters {
  Statistics Stats;
  ClosureCounters Closure;
  NameTableCounters Names;

  static LibCounters take(const Statistics &S) {
    return {S, closureCounters(), nameTableCounters()};
  }
};

/// Work done by the timed operations of the counter unit — the first unit
/// of a traced run, whose inputs depend on the seed alone, so every count
/// here repeats exactly for a given seed.
struct WorkCounts {
  Statistics Stats;
  ClosureCounters Closure;
  uint64_t NamesInterned = 0;
  uint64_t InternHits = 0;
  uint64_t NameTableBytes = 0;
  uint64_t EditsRebuild = 0;
  uint64_t Queries = 0;
  uint64_t Instances = 0;
  uint64_t Obligations = 0;
  uint64_t PoolTasks = 0;
  uint64_t TransfersT1 = 0;
  uint64_t TransfersT2 = 0;
  uint64_t MemoHitsT1 = 0;
  uint64_t MemoHitsT2 = 0;
  uint64_t PrecisionGapLocs = 0;
  uint64_t IncomparableLocs = 0;

  void addDelta(const LibCounters &Before, const LibCounters &After) {
    Stats.mergeFrom(After.Stats - Before.Stats);
    Closure.mergeFrom(After.Closure - Before.Closure);
    addNames(Before.Names, After.Names);
  }
  void addNames(const NameTableCounters &Before,
                const NameTableCounters &After) {
    NameTableCounters N = After - Before;
    NamesInterned += N.NamesInterned;
    InternHits += N.InternHits;
    NameTableBytes = N.NameTableBytes;
  }
};

//===----------------------------------------------------------------------===//
// Run state
//===----------------------------------------------------------------------===//

enum class UnitMode { Warmup, Plain, Traced };

struct Run {
  Options Opt;
  Sizes Sz;
  Ledger L;

  std::vector<double> SetupS;
  std::vector<double> OpMs;       ///< Plain-unit op latencies.
  std::vector<double> TracedOpMs; ///< Traced-unit op latencies.
  double PlainOps = 0;            ///< ops_per_s numerator (plain units).
  double PlainSec = 0;            ///< ops_per_s denominator.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t PrecisionGapLocs = 0; ///< Oracle audit counts, whole run.
  uint64_t IncomparableLocs = 0;
  double SetupRssMb = 0; ///< Peak RSS when set-up ends.

  bool Counting = false; ///< Inside the counter unit.
  uint64_t UnitIndex = 0; ///< Index of the unit running now...
  uint64_t UnitSeed = 0;  ///< ...and its seed.
  WorkCounts W;

  std::vector<double> T1Ms;   ///< parallel_reanalysis: plain serial reps.
  double CpuNsT2 = 0;         ///< Process CPU time of plain t2 ops.
  double WallNsT2 = 0;        ///< Wall time of the same ops.
  double PoolTaskNs = 0;      ///< batch_corpus: summed task time...
  double PoolWallNs = 0;      ///< ...and pool wall time (traced units).

  Run(Options O, Sizes S, bool PerThreadDomain)
      : Opt(std::move(O)), Sz(S), L(PerThreadDomain, kExportOpsPerThread) {}

  Ledger *ledgerFor(UnitMode M) {
    return M == UnitMode::Traced ? &L : nullptr;
  }

  void recordOp(double Ms, UnitMode M) {
    ++Attempted;
    (M == UnitMode::Traced ? TracedOpMs : OpMs).push_back(Ms);
  }

  /// Counts one failed operation; the first few are reported on stderr.
  void fail(const std::string &What) {
    if (Failed++ < 10)
      std::fprintf(stderr, "FAIL [%s unit seed %llu]: %s\n",
                   Opt.Workload.c_str(),
                   static_cast<unsigned long long>(UnitSeed), What.c_str());
  }
};

double peakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // Linux: KiB
}

double processCpuNs() {
  timespec TS{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) * 1e9 +
         static_cast<double>(TS.tv_nsec);
}

/// Sets up kSetups times, each time running \p Once on kWarmupUnits fixed
/// seeds; setup_s is the median. peak_rss_mb is the process peak when
/// set-up ends, so it too compares the same work in every run (the peak
/// over the measured units is the footprint of the largest program a seed
/// happens to draw).
template <typename Fn> void setUp(Run &R, Fn &&Once) {
  for (unsigned I = 0; I < kSetups; ++I) {
    Clock::time_point T0 = Clock::now();
    for (unsigned U = 0; U < kWarmupUnits; ++U)
      Once(kWarmupSeed + U);
    R.SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }
  R.SetupRssMb = peakRssMb();
}

/// Runs units with seeds drawn from --seed until --seconds have passed. A
/// traced run runs each unit twice, plain and traced, in alternating order,
/// so trace.overhead_pct compares the same inputs; the traced run of unit 0
/// is the counter unit.
template <typename Fn> void measure(Run &R, Fn &&Unit) {
  Rng Seeds(R.Opt.Seed);
  Clock::time_point Start = Clock::now();
  for (uint64_t K = 0;; ++K) {
    uint64_t Seed = Seeds.next();
    R.UnitIndex = K;
    R.UnitSeed = Seed;
    if (!R.Opt.Trace) {
      Unit(Seed, UnitMode::Plain);
    } else {
      bool TracedFirst = K % 2 == 0;
      R.Counting = K == 0;
      Unit(Seed, TracedFirst ? UnitMode::Traced : UnitMode::Plain);
      R.Counting = false;
      Unit(Seed, TracedFirst ? UnitMode::Plain : UnitMode::Traced);
    }
    if (msBetween(Start, Clock::now()) >= R.Opt.Seconds * 1000.0)
      break;
  }
}

std::string describe(const std::exception_ptr &E) {
  try {
    std::rethrow_exception(E);
  } catch (const std::exception &Ex) {
    return Ex.what();
  } catch (...) {
    return "non-standard exception";
  }
}

//===----------------------------------------------------------------------===//
// ide_octagon / ide_constprop
//===----------------------------------------------------------------------===//

/// Compares \p Got with \p Ref, the answer of an independent analysis of
/// the same program, and counts a sound but strictly less precise answer
/// as a precision gap. Returns false when Got is not above Ref.
template <typename D>
bool aboveReference(Run &R, const typename D::Elem &Ref,
                    const typename D::Elem &Got) {
  if (!D::leq(Ref, Got))
    return false;
  if (!D::equal(Ref, Got)) {
    ++R.PrecisionGapLocs;
    if (R.Counting)
      ++R.W.PrecisionGapLocs;
  }
  return true;
}

/// The ide oracle: a fresh engine analyses a copy of the current program
/// and every incremental answer is compared with it. With \p Gate an
/// answer not above the fresh one fails the check. Without it — mid-session,
/// where callee entries have only grown and widening in main can make the
/// answers incomparable with a fresh engine's — such answers are counted
/// as oracle.incomparable_locs.
template <typename D>
void checkAgainstFresh(Run &R, const Program &P, const std::vector<Loc> &Locs,
                       const std::vector<typename D::Elem> &Incremental,
                       const std::string &Where, bool Gate) {
  try {
    InterprocEngine<D> Fresh(P, "main", /*K=*/0);
    uint64_t NotAbove = 0;
    for (size_t I = 0; I < Locs.size(); ++I)
      if (!aboveReference<D>(R, Fresh.queryMain(Locs[I]), Incremental[I]))
        ++NotAbove;
    if (NotAbove && Gate)
      R.fail(Where + ": " + std::to_string(NotAbove) +
             " answers not above the from-scratch analysis");
    R.IncomparableLocs += Gate ? 0 : NotAbove;
    if (R.Counting && !Gate)
      R.W.IncomparableLocs += NotAbove;
  } catch (...) {
    R.fail(Where + ": from-scratch oracle threw: " +
           describe(std::current_exception()));
  }
}

/// One I&DD session: each op applies a random edit to the live engine and
/// answers that edit's queries. Generating the edit is not timed.
template <typename D, typename E>
void ideSession(Run &R, uint64_t Seed, unsigned Edits, UnitMode Mode) {
  const bool Measured = Mode != UnitMode::Warmup;
  Ledger *L = R.ledgerFor(Mode);
  WorkloadOptions WO;
  WO.Seed = Seed;
  WO.NumVars = R.Sz.Vars;
  WO.QueriesPerEdit = kQueriesPerEdit;
  WorkloadGenerator Gen(WO);
  InterprocEngine<E> Engine(Gen.makeInitialProgram(), "main", /*K=*/0);
  std::vector<typename D::Elem> Answers;
  for (unsigned I = 0; I < Edits; ++I) {
    Program &P = Engine.program();
    EditRecord Rec = Gen.applyRandomEdit(P);
    std::vector<Loc> Queries =
        Gen.sampleQueryLocations(P, kQueriesPerEdit);
    Answers.clear();
    LibCounters Before;
    if (R.Counting)
      Before = LibCounters::take(Engine.statistics());
    Clock::time_point T0 = Clock::now();
    try {
      Ledger::Op Op(L, R.Attempted);
      {
        Ledger::Span S(L, Layer::DaigEdit);
        if (Rec.Kind == EditKind::InsertStmt)
          Engine.applyInsertedStatementEdit("main", Rec.At, Rec.Splice);
        else
          Engine.applyStructuralEdit("main");
      }
      for (Loc Q : Queries) {
        Ledger::Span S(L, Layer::InterprocQuery);
        Answers.push_back(Engine.queryMain(Q));
      }
    } catch (...) {
      // The engine's state is unknown after a throw: end the session.
      if (Measured) {
        ++R.Attempted;
        R.fail("edit " + std::to_string(I) + " threw: " +
               describe(std::current_exception()));
      }
      return;
    }
    double Ms = msBetween(T0, Clock::now());
    if (!Measured)
      continue;
    R.recordOp(Ms, Mode);
    if (Mode == UnitMode::Plain) {
      ++R.PlainOps;
      R.PlainSec += Ms / 1000.0;
    }
    if (R.Counting) {
      R.W.addDelta(Before, LibCounters::take(Engine.statistics()));
      R.W.Queries += Queries.size();
      if (Rec.Kind != EditKind::InsertStmt)
        ++R.W.EditsRebuild;
    }
    if ((I + 1) % kOracleEvery == 0)
      checkAgainstFresh<D>(R, P, Queries, Answers,
                           "edit " + std::to_string(I), /*Gate=*/false);
  }
  if (!Measured)
    return;
  // Session end: callee entries re-seeded, which gives back the precision
  // grow-only entries lose; then every reachable location of main must be
  // above the fresh engine's answer.
  const Program &P = Engine.program();
  std::vector<Loc> All = P.find("main")->Body.info().Rpo;
  Answers.clear();
  try {
    Engine.reseedAllEntries();
    for (Loc Q : All)
      Answers.push_back(Engine.queryMain(Q));
  } catch (...) {
    R.fail("session-end queries threw: " +
           describe(std::current_exception()));
    return;
  }
  checkAgainstFresh<D>(R, P, All, Answers, "session end", /*Gate=*/true);
}

template <typename D> void runIde(Run &R) {
  setUp(R, [&](uint64_t Seed) {
    ideSession<D, D>(R, Seed, R.Sz.SessionEdits, UnitMode::Warmup);
  });
  measure(R, [&](uint64_t Seed, UnitMode M) {
    if (M == UnitMode::Traced)
      ideSession<D, TimedDomain<D>>(R, Seed, R.Sz.SessionEdits, M);
    else
      ideSession<D, D>(R, Seed, R.Sz.SessionEdits, M);
  });
}

//===----------------------------------------------------------------------===//
// ide_recheck
//===----------------------------------------------------------------------===//

using FlatVerdicts =
    std::map<std::pair<EdgeId, uint32_t>, std::pair<CheckKind, Verdict>>;

FlatVerdicts flatten(const ChecksDb &Db) {
  FlatVerdicts Out;
  for (Loc L : Db.locations())
    for (const CheckResult &C : Db.at(L))
      Out[{C.Edge, C.SubIndex}] = {C.Kind, C.V};
  return Out;
}

/// The ide_recheck oracle: from-scratch checking of the same program on a
/// fresh DAIG must give the incremental checker's verdicts exactly.
template <typename D>
void checkVerdicts(Run &R, const ChecksDb &Incremental, Function &Main,
                   const std::string &Where) {
  try {
    Statistics S;
    Daig<D> Fresh(&Main.Body, D::initialEntry(Main.Params), &S);
    ChecksDb Db;
    runChecks<D>(
        collectObligations(Main.Body),
        [&](Loc L) { return Fresh.queryLocation(L); },
        [&](Loc L) { return Fresh.locationDegraded(L); }, Db, &S);
    if (flatten(Db) != flatten(Incremental))
      R.fail(Where + ": incremental verdicts differ from from-scratch "
                     "checking");
  } catch (...) {
    R.fail(Where + ": from-scratch checking threw: " +
           describe(std::current_exception()));
  }
}

/// One re-checking session: each op applies a random edit (12% asserts) to
/// a DAIG and re-checks every obligation incrementally.
template <typename D, typename E>
void recheckSession(Run &R, uint64_t Seed, unsigned Edits, UnitMode Mode) {
  const bool Measured = Mode != UnitMode::Warmup;
  Ledger *L = R.ledgerFor(Mode);
  WorkloadOptions WO;
  WO.Seed = Seed;
  WO.NumVars = R.Sz.Vars;
  WO.PctAssertStmt = 12;
  WorkloadGenerator Gen(WO);
  Program P = Gen.makeInitialProgram();
  Function *Main = P.find("main");
  Statistics Stats;
  Daig<E> G(&Main->Body, E::initialEntry(Main->Params), &Stats);
  IncrementalChecker<E> Checker(G, Main->Body, &Stats);
  Checker.recheck();
  for (unsigned I = 0; I < Edits; ++I) {
    EditRecord Rec = Gen.applyRandomEdit(P);
    LibCounters Before;
    if (R.Counting)
      Before = LibCounters::take(Stats);
    bool Rebuilt = Rec.Kind != EditKind::InsertStmt;
    VerdictCounts Counts;
    Clock::time_point T0 = Clock::now();
    try {
      Ledger::Op Op(L, R.Attempted);
      {
        Ledger::Span S(L, Layer::DaigEdit);
        if (Rebuilt)
          G.rebuild();
        else
          Rebuilt = !G.applyInsertedStatement(Rec.At, Rec.Splice);
      }
      Ledger::Span S(L, Layer::Checker);
      Counts = Checker.recheck();
    } catch (...) {
      if (Measured) {
        ++R.Attempted;
        R.fail("edit " + std::to_string(I) + " threw: " +
               describe(std::current_exception()));
      }
      return;
    }
    double Ms = msBetween(T0, Clock::now());
    if (!Measured)
      continue;
    R.recordOp(Ms, Mode);
    if (Mode == UnitMode::Plain) {
      ++R.PlainOps;
      R.PlainSec += Ms / 1000.0;
    }
    if (R.Counting) {
      R.W.addDelta(Before, LibCounters::take(Stats));
      R.W.EditsRebuild += Rebuilt;
      R.W.Obligations += Counts.total();
    }
    if ((I + 1) % kOracleEvery == 0)
      checkVerdicts<D>(R, Checker.db(), *Main, "edit " + std::to_string(I));
  }
}

void runRecheck(Run &R) {
  using D = IntervalDomain;
  setUp(R, [&](uint64_t Seed) {
    recheckSession<D, D>(R, Seed, R.Sz.SessionEdits, UnitMode::Warmup);
  });
  measure(R, [&](uint64_t Seed, UnitMode M) {
    if (M == UnitMode::Traced)
      recheckSession<D, TimedDomain<D>>(R, Seed, R.Sz.SessionEdits, M);
    else
      recheckSession<D, D>(R, Seed, R.Sz.SessionEdits, M);
  });
}

//===----------------------------------------------------------------------===//
// batch_corpus
//===----------------------------------------------------------------------===//

/// Verifies one program from source: frontend, engine (k=2) over every
/// reachable instance, then the checker over every instance. Returns the
/// verdict tallies; the engine's counters go to \p StatsOut when non-null.
template <typename E>
VerdictCounts verifyProgram(const char *Source, Ledger *L,
                            Statistics *StatsOut) {
  LowerResult LR;
  {
    Ledger::Span S(L, Layer::LangFrontend);
    LR = frontend(Source);
  }
  if (!LR.ok())
    throw std::runtime_error("frontend: " + LR.Error);
  std::optional<InterprocEngine<E>> Engine;
  {
    Ledger::Span S(L, Layer::InterprocAnalyze);
    Engine.emplace(std::move(LR.Prog), "main", /*K=*/2);
    if (!Engine->valid())
      throw std::runtime_error("engine: " + Engine->error());
    Engine->analyzeAllFromMain();
  }
  VerdictCounts Counts;
  {
    Ledger::Span S(L, Layer::Checker);
    std::map<SymbolId, std::vector<Obligation>> ObsByFn;
    for (const auto &[FnName, F] : Engine->program().Functions)
      ObsByFn[internSymbol(FnName)] = collectObligations(F.Body, kCorpusMask);
    ChecksDb Db;
    Statistics &Stats = Engine->statistics();
    Engine->forEachInstance([&](const auto &Key, Daig<E> &G) {
      const std::vector<Obligation> &Obs = ObsByFn[Key.Fn];
      if (!Obs.empty())
        Counts += runChecks<E>(
            Obs, [&](Loc At) { return G.queryLocation(At); },
            [&](Loc At) { return G.locationDegraded(At); }, Db, &Stats);
    });
  }
  if (StatsOut)
    *StatsOut = Engine->statistics();
  Ledger::Span S(L, Layer::InterprocAnalyze);
  Engine.reset();
  return Counts;
}

/// One unit: Rounds copies of the corpus in a seed-shuffled order, each
/// program one task on the pool. A program's oracle is its known answer.
template <typename E>
void batchUnit(Run &R, TaskPool &Pool, uint64_t Seed, unsigned Rounds,
               UnitMode Mode) {
  Ledger *L = R.ledgerFor(Mode);
  std::vector<int> Order;
  for (unsigned Round = 0; Round < Rounds; ++Round)
    for (int I = 0; I < NumCorpusPrograms; ++I)
      Order.push_back(I);
  Rng Shuffle(Seed);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Shuffle.below(I)]);

  const size_t N = Order.size();
  std::vector<double> Lat(N);
  std::vector<std::string> Error(N);
  std::vector<Statistics> Stats(R.Counting ? N : 0);
  const uint64_t OpBase = R.Attempted;
  std::vector<TaskPool::Task> Tasks;
  Tasks.reserve(N);
  for (size_t T = 0; T < N; ++T)
    Tasks.push_back([&, T] {
      const CorpusProgram &CP = Corpus[Order[T]];
      Clock::time_point T0 = Clock::now();
      VerdictCounts C;
      try {
        Ledger::Op Op(L, OpBase + T);
        C = verifyProgram<E>(CP.Source, L, Stats.empty() ? nullptr : &Stats[T]);
      } catch (...) {
        Error[T] = describe(std::current_exception());
      }
      Lat[T] = msBetween(T0, Clock::now());
      if (Error[T].empty() && CP.ExpectSafe != (C.alarms() == 0))
        Error[T] = CP.ExpectSafe ? "alarm raised on a safe program"
                                 : "bug program raised no alarm";
    });
  NameTableCounters NamesBefore = nameTableCounters();
  Clock::time_point W0 = Clock::now();
  Pool.run(std::move(Tasks));
  double WallMs = msBetween(W0, Clock::now());
  if (Mode == UnitMode::Warmup)
    return;

  double TaskMs = 0;
  for (size_t T = 0; T < N; ++T) {
    R.recordOp(Lat[T], Mode);
    TaskMs += Lat[T];
    if (!Error[T].empty())
      R.fail(std::string(Corpus[Order[T]].Name) + ": " + Error[T]);
  }
  if (Mode == UnitMode::Plain) {
    R.PlainOps += static_cast<double>(N);
    R.PlainSec += WallMs / 1000.0;
  } else {
    R.PoolTaskNs += TaskMs * 1e6;
    R.PoolWallNs += WallMs * 1e6;
  }
  if (R.Counting) {
    R.W.addNames(NamesBefore, nameTableCounters());
    for (const Statistics &S : Stats) {
      R.W.Stats.mergeFrom(S);
      R.W.Obligations += S.ChecksEvaluated;
    }
    R.W.PoolTasks += N;
  }
}

void runBatch(Run &R) {
  using D = IntervalDomain;
  std::unique_ptr<TaskPool> Pool;
  setUp(R, [&](uint64_t Seed) {
    Pool = std::make_unique<TaskPool>(kPoolThreads);
    batchUnit<D>(R, *Pool, Seed, R.Sz.CorpusRounds, UnitMode::Warmup);
  });
  measure(R, [&](uint64_t Seed, UnitMode M) {
    if (M == UnitMode::Traced)
      batchUnit<TimedDomain<D>>(R, *Pool, Seed, R.Sz.CorpusRounds, M);
    else
      batchUnit<D>(R, *Pool, Seed, R.Sz.CorpusRounds, M);
  });
}

//===----------------------------------------------------------------------===//
// parallel_reanalysis
//===----------------------------------------------------------------------===//

template <typename D, typename E>
std::map<std::string, typename D::Elem>
exitSummaries(InterprocEngine<E> &Engine) {
  std::map<std::string, typename D::Elem> Out;
  Engine.forEachInstance([&](const auto &Key, Daig<E> &G) {
    Out.emplace(Key.toString(), G.queryLocation(Engine.cfgOf(Key.Fn)->exit()));
  });
  return Out;
}

/// One unit: a call-heavy program (18% calls, 6 helpers, k=1) built from
/// the seed is analysed serially — not an op — and then from scratch at
/// setParallelism(2), which is the op.
///
/// The engine promises threads=2 summaries equal to serial ones only while
/// entry widening does not fire mid-quiescence, and its extra Jacobi passes
/// can make it fire, in either direction of precision. So the comparison
/// with serial is audited (oracle.precision_gap_locs when coarser,
/// oracle.incomparable_locs otherwise), and the oracle is the engine's
/// unconditional promise: pass content does not depend on the thread
/// schedule. Every kScheduleCheckEvery-th unit re-runs threads=2, untimed,
/// and the two runs must agree exactly.
template <typename D, typename E>
void reanalysisUnit(Run &R, uint64_t Seed, UnitMode Mode) {
  const bool Measured = Mode != UnitMode::Warmup;
  Ledger *L = R.ledgerFor(Mode);
  WorkloadOptions WO;
  WO.Seed = Seed;
  WO.NumVars = R.Sz.Vars;
  WO.PctCallStmt = 18;
  WO.HelperCount = 6;
  WorkloadGenerator Gen(WO);
  Program P = Gen.makeInitialProgram();
  for (unsigned I = 0; I < R.Sz.ReanalysisEdits; ++I)
    Gen.applyRandomEdit(P);

  std::map<std::string, typename D::Elem> Want;
  {
    InterprocEngine<E> Serial(P, "main", /*K=*/1);
    Clock::time_point T0 = Clock::now();
    try {
      if (!Serial.valid())
        throw std::runtime_error(Serial.error());
      Serial.analyzeAllFromMain();
    } catch (...) {
      if (Measured) {
        ++R.Attempted;
        R.fail("serial analysis threw: " +
               describe(std::current_exception()));
      }
      return;
    }
    double Ms = msBetween(T0, Clock::now());
    Want = exitSummaries<D>(Serial);
    if (Mode == UnitMode::Plain)
      R.T1Ms.push_back(Ms);
    if (R.Counting) {
      R.W.TransfersT1 = Serial.statistics().Transfers;
      R.W.MemoHitsT1 = Serial.statistics().MemoHits;
      R.W.Instances = Serial.instanceCount();
    }
  }

  InterprocEngine<E> Par(P, "main", /*K=*/1);
  Par.setParallelism(2);
  LibCounters Before;
  if (R.Counting)
    Before = LibCounters::take(Par.statistics());
  double Cpu0 = processCpuNs();
  Clock::time_point T0 = Clock::now();
  try {
    Ledger::Op Op(L, R.Attempted);
    Ledger::Span S(L, Layer::InterprocAnalyze);
    Par.analyzeAllFromMain();
  } catch (...) {
    if (Measured) {
      ++R.Attempted;
      R.fail("threads=2 analysis threw: " +
             describe(std::current_exception()));
    }
    return;
  }
  double Ms = msBetween(T0, Clock::now());
  double CpuNs = processCpuNs() - Cpu0;
  if (!Measured)
    return;
  R.recordOp(Ms, Mode);
  if (Mode == UnitMode::Plain) {
    ++R.PlainOps;
    R.PlainSec += Ms / 1000.0;
    R.CpuNsT2 += CpuNs;
    R.WallNsT2 += Ms * 1e6;
  }
  if (R.Counting) {
    R.W.addDelta(Before, LibCounters::take(Par.statistics()));
    R.W.TransfersT2 = Par.statistics().Transfers;
    R.W.MemoHitsT2 = Par.statistics().MemoHits;
  }
  std::map<std::string, typename D::Elem> Got = exitSummaries<D>(Par);
  for (const auto &[Key, Serial] : Want) {
    auto It = Got.find(Key);
    if (It == Got.end() || !aboveReference<D>(R, Serial, It->second)) {
      ++R.IncomparableLocs;
      if (R.Counting)
        ++R.W.IncomparableLocs;
    }
  }
  if (R.UnitIndex % kScheduleCheckEvery != 0)
    return;
  try {
    InterprocEngine<D> Again(P, "main", /*K=*/1);
    Again.setParallelism(2);
    Again.analyzeAllFromMain();
    std::map<std::string, typename D::Elem> Rerun = exitSummaries<D>(Again);
    bool Same = Rerun.size() == Got.size();
    for (auto AI = Rerun.begin(), GI = Got.begin(); Same && AI != Rerun.end();
         ++AI, ++GI)
      Same = AI->first == GI->first && D::equal(AI->second, GI->second);
    if (!Same)
      R.fail("two threads=2 analyses of one program disagree");
  } catch (...) {
    R.fail("threads=2 re-run threw: " + describe(std::current_exception()));
  }
}

void runReanalysis(Run &R) {
  using D = OctagonDomain;
  setUp(R, [&](uint64_t Seed) {
    reanalysisUnit<D, D>(R, Seed, UnitMode::Warmup);
  });
  measure(R, [&](uint64_t Seed, UnitMode M) {
    if (M == UnitMode::Traced)
      reanalysisUnit<D, TimedDomain<D>>(R, Seed, M);
    else
      reanalysisUnit<D, D>(R, Seed, M);
  });
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Idx = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Idx);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Idx - static_cast<double>(Lo);
  return V[Lo] * (1 - Frac) + V[Hi] * Frac;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

struct Metric {
  const char *Name;
  const char *Unit;
  double Value;
  size_t Samples;
};

std::vector<Metric> endToEndMetrics(const Run &R) {
  size_t N = R.OpMs.size();
  return {
      {"op_p50_ms", "ms", percentile(R.OpMs, 50), N},
      {"op_p90_ms", "ms", percentile(R.OpMs, 90), N},
      {"ops_per_s", "1/s", ratio(R.PlainOps, R.PlainSec), N},
      {"setup_s", "s", percentile(R.SetupS, 50), R.SetupS.size()},
      {"peak_rss_mb", "MB", R.SetupRssMb, 1},
  };
}

/// Printed, not bounded: context for the end-to-end numbers.
std::vector<Metric> infoMetrics(const Run &R) {
  std::vector<Metric> M = {
      {"op_p99_ms", "ms", percentile(R.OpMs, 99), R.OpMs.size()},
      {"oracle.precision_gap_locs", "count",
       static_cast<double>(R.PrecisionGapLocs), 1},
      {"oracle.incomparable_locs", "count",
       static_cast<double>(R.IncomparableLocs), 1}};
  if (!R.T1Ms.empty())
    M.push_back({"reanalysis_t1_p50_ms", "ms", percentile(R.T1Ms, 50),
                 R.T1Ms.size()});
  return M;
}

std::vector<Metric> perLayerMetrics(const Run &R) {
  const LedgerTotals T = R.L.totals();
  const DomainTotals &Dm = T.Domain;
  const double Ops = static_cast<double>(std::max<uint64_t>(T.Ops, 1));
  const double OpNs = static_cast<double>(T.OpNs);
  const double DomNs = static_cast<double>(Dm.totalNs());
  auto msPerOp = [&](double Ns) { return Ns / Ops / 1e6; };
  auto shareOfOp = [&](double Ns) { return 100.0 * ratio(Ns, OpNs); };
  auto layerShare = [&](Layer Ly) {
    return shareOfOp(static_cast<double>(T.layerSelfNs(Ly)));
  };
  auto count = [](uint64_t V) { return static_cast<double>(V); };
  const WorkCounts &W = R.W;
  const double Compare = static_cast<double>(
      Dm.ns(DomOp::Leq) + Dm.ns(DomOp::Equal) + Dm.ns(DomOp::IsBottom));
  const size_t N = T.Ops;
  return {
      {"trace.op_ms", "ms", msPerOp(OpNs), N},
      {"domain.ms", "ms", msPerOp(DomNs), N},
      {"domain.transfer_ms", "ms", msPerOp(count(Dm.ns(DomOp::Transfer))), N},
      {"domain.join_ms", "ms", msPerOp(count(Dm.ns(DomOp::Join))), N},
      {"domain.widen_ms", "ms", msPerOp(count(Dm.ns(DomOp::Widen))), N},
      {"domain.compare_ms", "ms", msPerOp(Compare), N},
      {"domain.hash_ms", "ms", msPerOp(count(Dm.ns(DomOp::Hash))), N},
      {"engine.self_ms", "ms", msPerOp(std::max(0.0, OpNs - DomNs)), N},
      {"domain.calls_per_op", "count", count(Dm.totalCalls()) / Ops, N},
      {"domain.call_hooks_per_op", "count",
       count(Dm.calls(DomOp::EnterCall) + Dm.calls(DomOp::ExitCall)) / Ops,
       N},
      {"domain.share_pct", "%", shareOfOp(DomNs), N},
      {"daig.edit.share_pct", "%", layerShare(Layer::DaigEdit), N},
      {"interproc.query.share_pct", "%", layerShare(Layer::InterprocQuery), N},
      {"checker.share_pct", "%", layerShare(Layer::Checker), N},
      {"lang.frontend.share_pct", "%", layerShare(Layer::LangFrontend), N},
      {"interproc.analyze.share_pct", "%", layerShare(Layer::InterprocAnalyze),
       N},
      {"trace.coverage_pct", "%", shareOfOp(count(T.ChildNs)), N},
      {"trace.overhead_pct", "%",
       100.0 * (ratio(percentile(R.TracedOpMs, 50), percentile(R.OpMs, 50)) -
                1.0),
       R.TracedOpMs.size()},
      {"daig.edits_rebuild", "count", count(W.EditsRebuild), 1},
      {"daig.cells_dirtied", "count", count(W.Stats.CellsDirtied), 1},
      {"daig.cell_reuses", "count", count(W.Stats.CellReuses), 1},
      {"daig.unrollings", "count", count(W.Stats.Unrollings), 1},
      {"daig.transfers", "count", count(W.Stats.Transfers), 1},
      {"memo.hits", "count", count(W.Stats.MemoHits), 1},
      {"memo.misses", "count", count(W.Stats.MemoMisses), 1},
      {"memo.evictions", "count", count(W.Stats.MemoEvictions), 1},
      {"memo.hit_ratio", "ratio",
       ratio(count(W.Stats.MemoHits),
             count(W.Stats.MemoHits + W.Stats.MemoMisses)),
       1},
      {"names.interned", "count", count(W.NamesInterned), 1},
      {"names.intern_hits", "count", count(W.InternHits), 1},
      {"names.table_bytes", "bytes", count(W.NameTableBytes), 1},
      {"octagon.cells_touched", "count", count(W.Closure.CellsTouched), 1},
      {"octagon.full_closes", "count", count(W.Closure.FullCloses), 1},
      {"octagon.incremental_closes", "count",
       count(W.Closure.IncrementalCloses), 1},
      {"interproc.queries", "count", count(W.Queries), 1},
      {"interproc.instances", "count", count(W.Instances), 1},
      {"checker.obligations", "count", count(W.Obligations), 1},
      {"checker.rechecked", "count", count(W.Stats.ChecksRechecked), 1},
      {"checker.recheck_ratio", "ratio",
       ratio(count(W.Stats.ChecksRechecked), count(W.Obligations)), 1},
      {"pool.tasks", "count", count(W.PoolTasks), 1},
      {"pool.busy_ratio", "ratio",
       ratio(R.PoolTaskNs, kPoolThreads * R.PoolWallNs), 1},
      {"daig.transfers_t1", "count", count(W.TransfersT1), 1},
      {"daig.transfers_t2", "count", count(W.TransfersT2), 1},
      {"memo.hits_t1", "count", count(W.MemoHitsT1), 1},
      {"memo.hits_t2", "count", count(W.MemoHitsT2), 1},
      {"reanalysis.t2_over_t1", "ratio",
       ratio(percentile(R.OpMs, 50), percentile(R.T1Ms, 50)), R.T1Ms.size()},
      {"reanalysis.cpu_per_wall_t2", "ratio", ratio(R.CpuNsT2, R.WallNsT2),
       1},
      {"oracle.precision_gap_locs", "count", count(W.PrecisionGapLocs), 1},
      {"oracle.incomparable_locs", "count", count(W.IncomparableLocs), 1},
  };
}

double finite(double V) { return std::isfinite(V) ? V : 0; }

void printLines(const char *Workload, const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("metric %-20s %-30s %-6s %14.6f  n=%zu\n", Workload, M.Name,
                M.Unit, finite(M.Value), M.Samples);
}

void printJson(const Run &R, const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name, finite(Ms[I].Value), Ms[I].Unit);
  std::printf("}}\n");
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W [--seed S] [--seconds N] "
               "[--trace 0|1] [--smoke] [--trace-dir DIR]\n"
               "       %s --list\n",
               Argv0, Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto value = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s needs a value\n", A.c_str());
        std::exit(usage(Argv[0]));
      }
      return Argv[++I];
    };
    if (A == "--list") {
      for (const char *W : kWorkloads)
        std::printf("%s\n", W);
      return 0;
    }
    if (A == "--workload") {
      Opt.Workload = value();
    } else if (A == "--seed") {
      const char *V = value();
      char *End = nullptr;
      Opt.Seed = std::strtoull(V, &End, 10);
      if (End == V || *End) {
        std::fprintf(stderr, "bad --seed %s\n", V);
        return usage(Argv[0]);
      }
    } else if (A == "--seconds") {
      const char *V = value();
      char *End = nullptr;
      Opt.Seconds = std::strtod(V, &End);
      if (End == V || *End || !(Opt.Seconds > 0) || Opt.Seconds > 3600) {
        std::fprintf(stderr, "bad --seconds %s\n", V);
        return usage(Argv[0]);
      }
    } else if (A == "--trace") {
      std::string V = value();
      if (V != "0" && V != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return usage(Argv[0]);
      }
      Opt.Trace = V == "1";
    } else if (A == "--smoke") {
      Opt.Smoke = true;
    } else if (A == "--trace-dir") {
      Opt.TraceDir = value();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", A.c_str());
      return usage(Argv[0]);
    }
  }
  const std::string W = Opt.Workload;
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), W) ==
      std::end(kWorkloads)) {
    std::fprintf(stderr, "unknown or missing --workload '%s'\n", W.c_str());
    return usage(Argv[0]);
  }

  Run R(Opt, sizesFor(Opt.Smoke), /*PerThreadDomain=*/W == "batch_corpus");
  if (W == "ide_octagon")
    runIde<OctagonDomain>(R);
  else if (W == "ide_constprop")
    runIde<ConstPropDomain>(R);
  else if (W == "ide_recheck")
    runRecheck(R);
  else if (W == "batch_corpus")
    runBatch(R);
  else
    runReanalysis(R);

  std::vector<Metric> Result =
      Opt.Trace ? perLayerMetrics(R) : endToEndMetrics(R);
  printLines(W.c_str(), Result);
  printLines(W.c_str(), infoMetrics(R));
  if (Opt.Trace && !Opt.TraceDir.empty()) {
    std::string Path = Opt.TraceDir + "/" + W + "-" +
                       std::to_string(Opt.Seed) + ".json";
    if (R.L.writeChromeTrace(Path))
      std::printf("trace %s\n", Path.c_str());
    else
      R.fail("cannot write " + Path);
  }
  printJson(R, Result);
  return R.Failed == 0 ? 0 : 1;
}
