//===-- bench/ablation_memo_table.cpp - Memo-table ablation (A1) ----------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A1 (ours; motivated by Section 2.2's "auxiliary memo table"):
/// quantifies what the location-independent memo table M contributes on top
/// of DAIG cell reuse, by running the demand-driven-only configuration —
/// whose full-DAIG dirtying makes it maximally memo-dependent — with the
/// table enabled vs. disabled, over the Section 7.3 edit workload.
///
//===----------------------------------------------------------------------===//

#include "bench/rows.h"
#include "daig/daig.h"
#include "domain/octagon.h"
#include "interproc/engine.h"
#include "workload/generator.h"

#include <chrono>
#include <cstdio>

using namespace dai;

namespace {

using Clock = std::chrono::steady_clock;

/// Runs the DD-only loop on `main`'s DAIG directly (single-function focus so
/// the memo effect is not diluted by engine bookkeeping).
double runTrial(bool UseMemo, unsigned Edits, uint64_t Seed,
                Statistics &Stats) {
  WorkloadOptions WOpts;
  WOpts.Seed = Seed;
  WOpts.PctCallStmt = 0; // intraprocedural focus
  WorkloadGenerator Gen(WOpts);
  Program P = Gen.makeInitialProgram();
  Function &Main = *P.find("main");

  MemoTable<OctagonDomain> Memo;
  Memo.attachStatistics(&Stats); // same lifetime: safe sink
  double TotalMs = 0;
  for (unsigned I = 0; I < Edits; ++I) {
    Gen.applyRandomEdit(P);
    std::vector<Loc> Queries = Gen.sampleQueryLocations(P, 5);
    Clock::time_point Start = Clock::now();
    // Full dirtying: fresh DAIG each edit; only the memo table persists.
    Daig<OctagonDomain> G(&Main.Body,
                          OctagonDomain::initialEntry(Main.Params), &Stats,
                          UseMemo ? &Memo : nullptr);
    for (Loc Q : Queries)
      (void)G.queryLocation(Q);
    TotalMs += std::chrono::duration<double, std::milli>(Clock::now() - Start)
                   .count();
  }
  return TotalMs;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Edits = 250;
  uint64_t Seed = 7;
  bench::Flags F(argc, argv, "[--edits N] [--seed S]");
  while (F.next()) {
    if (F.is("--edits"))
      Edits = F.number();
    else if (F.is("--seed"))
      Seed = F.number<uint64_t>();
    else
      F.unknown();
  }

  std::printf("# Ablation A1: auxiliary memo table on/off, demand-driven-"
              "only configuration, octagon domain, %u edits\n\n",
              Edits);
  std::printf("%-12s %12s %14s %12s %12s %12s\n", "Memo", "total(ms)",
              "transfers", "memo hits", "memo misses", "evictions");

  // Each configuration's work: its Statistics plus the thread's counter
  // families (closure work, ...) over its own run.
  Statistics WithStats, WithoutStats;
  ThreadCounters Start = ThreadCounters::snapshot();
  double With = runTrial(true, Edits, Seed, WithStats);
  ThreadCounters Mid = ThreadCounters::snapshot();
  double Without = runTrial(false, Edits, Seed, WithoutStats);
  ThreadCounters WithDomain = Mid.deltaSince(Start);
  ThreadCounters WithoutDomain = ThreadCounters::snapshot().deltaSince(Mid);

  std::printf("%-12s %12.1f %14llu %12llu %12llu %12llu\n", "enabled", With,
              (unsigned long long)WithStats.Transfers,
              (unsigned long long)WithStats.MemoHits,
              (unsigned long long)WithStats.MemoMisses,
              (unsigned long long)WithStats.MemoEvictions);
  std::printf("%-12s %12.1f %14llu %12llu %12llu %12llu\n", "disabled",
              Without, (unsigned long long)WithoutStats.Transfers,
              (unsigned long long)WithoutStats.MemoHits,
              (unsigned long long)WithoutStats.MemoMisses,
              (unsigned long long)WithoutStats.MemoEvictions);
  std::printf("\n# speedup from memoization: %.2fx; transfers avoided: "
              "%.0f%%\n",
              Without / (With > 0 ? With : 1),
              100.0 *
                  (1.0 - double(WithStats.Transfers) /
                             double(WithoutStats.Transfers
                                        ? WithoutStats.Transfers
                                        : 1)));

  // Machine-readable tail: one row per configuration, counters under their
  // table names.
  std::printf("\n");
  bench::Row On("memo_on", "octagon", "edits", Edits, With);
  On.addFamily(WithStats);
  On.addThreadCounters(WithDomain);
  bench::Row Off("memo_off", "octagon", "edits", Edits, Without);
  Off.addFamily(WithoutStats);
  Off.addThreadCounters(WithoutDomain);
  std::printf("JSON: %s\nJSON: %s\n", On.json().c_str(), Off.json().c_str());

  // The claim the ablation makes: the memo table saves transfers.
  if (WithStats.Transfers >= WithoutStats.Transfers) {
    std::printf("# memo-on did %llu transfers, memo-off %llu: expected "
                "fewer with the memo table\n",
                (unsigned long long)WithStats.Transfers,
                (unsigned long long)WithoutStats.Transfers);
    return 1;
  }
  return 0;
}
