//===-- support/statistics.h - Analysis operation counters -----*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters for abstract-interpretation work performed by the framework.
/// The paper's evaluation (Section 7.3) compares analysis configurations by
/// latency; these counters additionally let tests assert *exact* reuse
/// behavior (e.g., the Section 2 example: a re-query after the Fig. 4b edit
/// executes exactly two transfers and one join).
///
/// Every counter is declared exactly once, as one row of the counter table
/// below: X(Family, Field, "export_name", Kind). Kind is Counter (monotone:
/// merge adds, a delta subtracts) or Gauge (a high-water mark: merge takes
/// the max, a delta carries the later value). The table generates each
/// family's fields, reset/mergeFrom/operator-/operator<<, the ThreadCounters
/// bundle the TaskPool repatriates, and the forEachCounter walk through
/// which benches export every counter (bench/rows.h). Adding a counter is
/// one table row.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_SUPPORT_STATISTICS_H
#define DAI_SUPPORT_STATISTICS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>

//===----------------------------------------------------------------------===//
// The counter table
//===----------------------------------------------------------------------===//

/// Statistics: work counters shared by the DAIG, memo table, and batch
/// interpreter (one sink per engine, not thread_local).
#define DAI_STATISTICS_COUNTERS(X)                                             \
  /* Transfer-function, join (⊔) and widen (∇) applications.               */ \
  X(Statistics, Transfers, "transfers", Counter)                               \
  X(Statistics, Joins, "joins", Counter)                                       \
  X(Statistics, Widens, "widens", Counter)                                     \
  /* Convergence checks at fix edges; demanded loop unrollings.             */ \
  X(Statistics, FixChecks, "fix_checks", Counter)                              \
  X(Statistics, Unrollings, "unrollings", Counter)                             \
  /* Q-Reuse hits (value already in the DAIG), Q-Match hits (memo table),   */ \
  /* Q-Miss events (computed and memoized).                                 */ \
  X(Statistics, CellReuses, "cell_reuses", Counter)                            \
  X(Statistics, MemoHits, "memo_hits", Counter)                                \
  X(Statistics, MemoMisses, "memo_misses", Counter)                            \
  /* Reference cells emptied by edits.                                      */ \
  X(Statistics, CellsDirtied, "cells_dirtied", Counter)                        \
  /* Cells a structural reconcile (Daig::rebuild) built in its region.      */ \
  X(Statistics, CellsRebuilt, "daig_cells_rebuilt", Counter)                   \
  /* Interprocedural callee-summary demands.                                */ \
  X(Statistics, CallSummaries, "call_summaries", Counter)                      \
  /* analyzeAllFromMain quiescence passes (interproc/engine.h).             */ \
  X(Statistics, QuiescencePasses, "interproc_quiescence_passes", Counter)      \
  /* Memo-table entries dropped by the LRU cap.                             */ \
  X(Statistics, MemoEvictions, "memo_evictions", Counter)                      \
  /* Cells ⊤-substituted or taint-marked by a budget (support/budget.h):    */ \
  /* nonzero means some answers carry degraded provenance.                  */ \
  X(Statistics, CellsDegraded, "cells_degraded", Counter)                      \
  /* Obligations IncrementalChecker derived from edge statements.           */ \
  X(Statistics, ChecksCollected, "checks_collected", Counter)                  \
  /* Check obligations evaluated against an abstract pre-state.             */ \
  X(Statistics, ChecksEvaluated, "checks_evaluated", Counter)                  \
  /* Obligations re-evaluated by an incremental re-check (the demanded      */ \
  /* slice; cache hits are not counted).                                    */ \
  X(Statistics, ChecksRechecked, "checks_rechecked", Counter)                  \
  /* WARNING/ERROR verdicts recorded in a ChecksDb (post degraded-clamp).   */ \
  X(Statistics, AlarmsRaised, "alarms_raised", Counter)

/// ClosureCounters: DBM strong-closure work in the octagon. The export
/// names are the fig10 octagon rows' historical, unprefixed ones.
#define DAI_CLOSURE_COUNTERS(X)                                                \
  /* O(n³) Floyd–Warshall closures / O(n²) single-constraint re-closures.   */ \
  X(ClosureCounters, FullCloses, "full_closes", Counter)                       \
  X(ClosureCounters, IncrementalCloses, "incremental_closes", Counter)         \
  /* close() calls on already-closed values / answered by a closedView.     */ \
  X(ClosureCounters, ClosesSkipped, "closes_skipped", Counter)                 \
  X(ClosureCounters, CachedCloses, "cached_closes", Counter)                   \
  /* DBM cells tightened during closure; the CI gate metric.                */ \
  X(ClosureCounters, CellsTouched, "dbm_cells_touched", Counter)               \
  /* Cumulative DBM cells allocated: the half-matrix layout shows up here   */ \
  /* as a ~2× drop vs. the dense (2n)² layout.                              */ \
  X(ClosureCounters, CellsStored, "dbm_cells_stored", Counter)                 \
  /* High-water bytes of a single DBM allocation.                           */ \
  X(ClosureCounters, PeakDbmBytes, "dbm_peak_bytes", Gauge)

/// ZoneCounters: the sparse zone domain (domain/zone.h).
#define DAI_ZONE_COUNTERS(X)                                                   \
  X(ZoneCounters, FullCloses, "zone_full_closes", Counter)                     \
  X(ZoneCounters, IncrementalCloses, "zone_incremental_closes", Counter)       \
  X(ZoneCounters, ClosesSkipped, "zone_closes_skipped", Counter)               \
  X(ZoneCounters, CachedCloses, "zone_cached_closes", Counter)                 \
  /* Graph edges materialized (inserts, not weight updates).                */ \
  X(ZoneCounters, EdgesStored, "zone_edges_stored", Counter)                   \
  /* Bellman–Ford potential repairs triggered by constraint additions.      */ \
  X(ZoneCounters, PotentialRepairs, "zone_potential_repairs", Counter)         \
  /* Vertices scanned by the closure kernels; the CI gate metric.           */ \
  X(ZoneCounters, ClosureVerticesVisited, "zone_closure_vertices_visited",     \
    Counter)

/// StagedCounters: the staged zone→octagon domain (domain/staged.h).
#define DAI_STAGED_COUNTERS(X)                                                 \
  /* Full re-demands of a query's slice with the octagon tier enabled.      */ \
  X(StagedCounters, Escalations, "staged_escalations", Counter)                \
  /* Octagon tiers seeded from a closed zone value (mid-path escalation).   */ \
  X(StagedCounters, OctSeeds, "staged_oct_seeds", Counter)                     \
  /* Tier evaluations that ran BOTH tiers; the CI gate metric.              */ \
  X(StagedCounters, EscalatedTransfers, "staged_escalated_transfers",          \
    Counter)                                                                   \
  /* Zone-only tier evaluations: each one a dense evaluation avoided.       */ \
  X(StagedCounters, ZoneTransfers, "staged_zone_transfers", Counter)           \
  X(StagedCounters, SumQueries, "staged_sum_queries", Counter) /* ±x±y */

/// DisIntervalCounters: the disjunctive-interval domain
/// (domain/dis_interval.h).
#define DAI_DIS_INTERVAL_COUNTERS(X)                                           \
  /* Closest-pair merges forced by the partition bound K; the CI gate       */ \
  /* metric.                                                                */ \
  X(DisIntervalCounters, PartitionsCollapsed,                                  \
    "dis_interval_partitions_collapsed", Counter)                              \
  /* Partitions split by a ≠-refinement (the path-sensitivity win).         */ \
  X(DisIntervalCounters, PartitionSplits, "dis_interval_partition_splits",     \
    Counter)                                                                   \
  /* Variable joins that kept ≥ 2 partitions (not the convex hull).         */ \
  X(DisIntervalCounters, DisjunctiveJoins, "dis_interval_disjunctive_joins",   \
    Counter)

/// BudgetCounters: budget events (support/budget.h). The fig10 zone and
/// staged rows print them as zone_<name> / staged_<name>; the regression
/// gate asserts all three stay zero on the default, un-budgeted workload.
#define DAI_BUDGET_COUNTERS(X)                                                 \
  X(BudgetCounters, BudgetExhaustions, "budget_exhaustions", Counter)          \
  X(BudgetCounters, DegradedCells, "degraded_cells", Counter)                  \
  X(BudgetCounters, CancellationsHonored, "cancellations_honored", Counter)

/// NameTableCounters: the per-DAIG cell-key indices (daig/cell_key.h) and
/// the global symbol table (support/symbol.h). NamesInterned counts keys
/// inserted (one per cell a DAIG creates), InternHits the probes that found
/// their key, and InternExtraProbes the index slots examined past the
/// first: about zero per probe while the index spreads keys well, and the
/// first figure to climb when it does not. NameTableBytes is the largest
/// slot array one index has held. SymbolProbes counts intern and lookup
/// calls on the symbol table, each a shard lock and a string hash. Names
/// are resolved when a program is built, so transfers, evaluation and
/// refinement add none; the call hooks and the arr_* rewrites still do.
#define DAI_NAME_TABLE_COUNTERS(X)                                             \
  X(NameTableCounters, NamesInterned, "names_interned", Counter)               \
  X(NameTableCounters, InternHits, "intern_hits", Counter)                     \
  X(NameTableCounters, InternExtraProbes, "intern_extra_probes", Counter)      \
  X(NameTableCounters, NameTableBytes, "name_table_bytes", Gauge)              \
  X(NameTableCounters, SymbolProbes, "symbol_probes", Counter)

/// The whole table, every family in turn.
#define DAI_COUNTER_TABLE(X)                                                   \
  DAI_STATISTICS_COUNTERS(X)                                                   \
  DAI_CLOSURE_COUNTERS(X)                                                      \
  DAI_ZONE_COUNTERS(X)                                                         \
  DAI_STAGED_COUNTERS(X)                                                       \
  DAI_DIS_INTERVAL_COUNTERS(X)                                                 \
  DAI_BUDGET_COUNTERS(X)                                                       \
  DAI_NAME_TABLE_COUNTERS(X)

namespace dai {

//===----------------------------------------------------------------------===//
// Generated families
//===----------------------------------------------------------------------===//

enum class CounterKind : uint8_t { Counter, Gauge };

/// What a counter-table row declares beyond its C++ family and field.
struct CounterInfo {
  const char *Name; ///< Export / bench JSON name ("zone_edges_stored").
  CounterKind Kind;
};

/// The operations every family derives from its table rows (CRTP base).
template <class Fam> struct CounterFamily {
  void reset() { self() = Fam(); }

  /// Calls \p F(Info, Value) for every counter, in table order.
  template <class Fn> void forEachCounter(Fn &&F) const {
    Fam::forEachField(
        [&](const CounterInfo &I, uint64_t Fam::*M) { F(I, self().*M); });
  }

  /// Cross-thread merge: counters add; gauges take the max (the
  /// process-wide peak is the max of the per-thread peaks). TaskPool folds
  /// each worker's per-batch ThreadCounters delta into the calling
  /// thread's block with this.
  void mergeFrom(const Fam &O) {
    Fam::forEachField([&](const CounterInfo &I, uint64_t Fam::*M) {
      uint64_t &V = self().*M;
      V = I.Kind == CounterKind::Gauge ? std::max(V, O.*M) : V + O.*M;
    });
  }

  /// The work done since \p O. A gauge is not subtractable: the delta
  /// carries this snapshot's value, which covers the whole history. A
  /// region that wants its OWN peak (the fig10 per-size sweep does) zeroes
  /// the gauge when it opens: `closureCounters().PeakDbmBytes = 0`.
  Fam operator-(const Fam &O) const {
    Fam R = self();
    Fam::forEachField([&](const CounterInfo &I, uint64_t Fam::*M) {
      if (I.Kind == CounterKind::Counter)
        R.*M -= O.*M;
    });
    return R;
  }

  /// Prints {name=value ...} under the export names, in table order.
  friend std::ostream &operator<<(std::ostream &OS, const Fam &C) {
    char Sep = '{';
    C.forEachCounter([&](const CounterInfo &I, uint64_t V) {
      OS << Sep << I.Name << '=' << V;
      Sep = ' ';
    });
    return OS << '}';
  }

private:
  Fam &self() { return static_cast<Fam &>(*this); }
  const Fam &self() const { return static_cast<const Fam &>(*this); }
};

#define DAI_COUNTER_FIELD(Fam, Field, Name, Kind) uint64_t Field = 0;
#define DAI_COUNTER_VISIT(Fam, Field, Name, Kind)                              \
  F(CounterInfo{Name, CounterKind::Kind}, &Fam::Field);

/// A family's fields plus the static visitor CounterFamily is built on:
/// forEachField(F) calls F(Info, &Fam::Field) for each row.
#define DAI_COUNTER_FAMILY(Rows)                                               \
  Rows(DAI_COUNTER_FIELD)                                                      \
  template <class Fn> static void forEachField(Fn &&F) {                       \
    Rows(DAI_COUNTER_VISIT)                                                    \
  }

/// Work counters shared by the DAIG, memo table, and batch interpreter.
struct Statistics : CounterFamily<Statistics> {
  DAI_COUNTER_FAMILY(DAI_STATISTICS_COUNTERS)

  /// Total domain operations (the expensive work in rich domains).
  uint64_t domainOps() const { return Transfers + Joins + Widens; }
};

/// DBM strong-closure work in relational domains (octagon). Closure is the
/// dominant cost of the Fig. 10 workload, so benches report these alongside
/// wall time to explain *why* latency moved: a healthy incremental pipeline
/// shows IncrementalCloses ≫ FullCloses. Kept per thread rather than inside
/// Statistics because domain values are plain data with no back-pointer to
/// an engine; benches snapshot-and-subtract around the region of interest.
struct ClosureCounters : CounterFamily<ClosureCounters> {
  DAI_COUNTER_FAMILY(DAI_CLOSURE_COUNTERS)
};

/// The sparse zone domain's whole point is that transfer/query cost scales
/// with the number of LIVE constraints, not the dimension count: on the
/// mostly-⊤ Fig. 10 workload, ClosureVerticesVisited should grow
/// sub-quadratically in the variable-pool size while the octagon's
/// CellsTouched stays ~n².
struct ZoneCounters : CounterFamily<ZoneCounters> {
  DAI_COUNTER_FAMILY(DAI_ZONE_COUNTERS)
};

/// The staged domain pays octagon work only where a query demands ±x±y
/// precision: ZoneTransfers counts the transfers that skipped the octagon
/// tier, EscalatedTransfers the ones that ran both, and Escalations the
/// demand-driven slice re-evaluations triggered by precision queries.
struct StagedCounters : CounterFamily<StagedCounters> {
  DAI_COUNTER_FAMILY(DAI_STAGED_COUNTERS)
};

/// The dis_interval domain's cost knob is the per-variable partition bound
/// K: joins and ≠-refinements grow the partition list, and normalization
/// merges the closest pair whenever it would exceed K. PartitionsCollapsed
/// counts those forced merges — the precision paid for the bound.
struct DisIntervalCounters : CounterFamily<DisIntervalCounters> {
  DAI_COUNTER_FAMILY(DAI_DIS_INTERVAL_COUNTERS)
};

/// Budget events, bumped once per event by support/budget.h.
struct BudgetCounters : CounterFamily<BudgetCounters> {
  DAI_COUNTER_FAMILY(DAI_BUDGET_COUNTERS)
};

/// Cell keys are built on every edit and query, so benches report these
/// alongside wall time. A DAIG's index lives on the thread that builds the
/// DAIG, so the family is per thread like the ones above.
struct NameTableCounters : CounterFamily<NameTableCounters> {
  DAI_COUNTER_FAMILY(DAI_NAME_TABLE_COUNTERS)
};

//===----------------------------------------------------------------------===//
// The per-thread block
//===----------------------------------------------------------------------===//

/// The thread_local families: X(Type, Member, accessor).
#define DAI_THREAD_COUNTER_FAMILIES(X)                                         \
  X(ClosureCounters, Closure, closureCounters)                                 \
  X(ZoneCounters, Zone, zoneCounters)                                          \
  X(StagedCounters, Staged, stagedCounters)                                    \
  X(DisIntervalCounters, DisInterval, disIntervalCounters)                     \
  X(BudgetCounters, Budget, budgetCounters)                                    \
  X(NameTableCounters, Names, nameTableCounters)

/// Every thread_local counter family in one block. Domain values carry no
/// engine pointer, so these sinks are per thread (one analysis engine per
/// thread); live() is the calling thread's block, and closureCounters(),
/// zoneCounters(), ... return references into it, so hot-path increments
/// stay plain non-atomic adds. A TaskPool worker's deltas would land in the
/// WORKER's block, so each worker snapshots its block once per batch and
/// the pool merges the deltas into the calling thread's block before run()
/// returns.
struct ThreadCounters {
#define DAI_THREAD_MEMBER(Type, Member, Accessor) Type Member;
#define DAI_THREAD_VISIT(Type, Member, Accessor) F(&ThreadCounters::Member);
  DAI_THREAD_COUNTER_FAMILIES(DAI_THREAD_MEMBER)

  /// Calls \p F(&ThreadCounters::Member) for every family.
  template <class Fn> static void forEachFamily(Fn &&F) {
    DAI_THREAD_COUNTER_FAMILIES(DAI_THREAD_VISIT)
  }
#undef DAI_THREAD_VISIT
#undef DAI_THREAD_MEMBER

  /// The calling thread's live block.
  static ThreadCounters &live() {
    static thread_local ThreadCounters Block;
    return Block;
  }

  /// Copies the calling thread's live block.
  static ThreadCounters snapshot() { return live(); }

  /// The work performed since \p Base (both taken on the same thread).
  /// Gauges follow the operator- convention.
  ThreadCounters deltaSince(const ThreadCounters &Base) const {
    ThreadCounters D;
    forEachFamily([&](auto M) { D.*M = this->*M - Base.*M; });
    return D;
  }

  /// Accumulates a delta into this bundle (counters add, gauges max).
  void addDelta(const ThreadCounters &D) {
    forEachFamily([&](auto M) { (this->*M).mergeFrom(D.*M); });
  }

  /// Folds this bundle into the calling thread's live block.
  void mergeIntoCurrentThread() const { live().addDelta(*this); }

  void reset() { *this = ThreadCounters(); }
};

#define DAI_THREAD_ACCESSOR(Type, Member, Accessor)                            \
  inline Type &Accessor() { return ThreadCounters::live().Member; }
DAI_THREAD_COUNTER_FAMILIES(DAI_THREAD_ACCESSOR)
#undef DAI_THREAD_ACCESSOR

/// Records a DBM matrix allocation of \p Cells entries (fresh buffers and
/// copy-on-write clones alike): bumps CellsStored and the PeakDbmBytes
/// high-water mark.
inline void recordDbmAlloc(size_t Cells) {
  ClosureCounters &C = closureCounters();
  C.CellsStored += Cells;
  uint64_t Bytes = static_cast<uint64_t>(Cells) * sizeof(int64_t);
  if (Bytes > C.PeakDbmBytes)
    C.PeakDbmBytes = Bytes;
}

} // namespace dai

#endif // DAI_SUPPORT_STATISTICS_H
