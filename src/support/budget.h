//===-- support/budget.h - Analysis resource governance ---------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource governance for demanded analyses: step and wall-clock budgets,
/// a cooperative cancellation token, and hard iteration ceilings, checked at
/// DAIG cell-evaluation and engine fixpoint boundaries (budgetCheckpoint).
///
/// The contract is degrade-don't-die. Budgets have two thresholds:
///  - SOFT (a configurable fraction of any limit): the analysis keeps
///    producing exact answers for work already in flight but stops paying
///    for precision — the staged domain suppresses NEW octagon escalations
///    and the interprocedural entry widening delay drops to zero. Cells
///    whose value was coarsened this way are flagged `degraded`.
///  - HARD (the limit itself): demand-misses stop evaluating; the affected
///    cell resolves to ⊤ (D::initialEntry({}), an over-approximation of
///    every reachable state, hence sound) and is flagged `degraded`. The
///    flag propagates to every cell computed from a degraded input, so a
///    query answer is either bit-identical to an unbudgeted run or
///    verifiably marked (Daig::cellDegraded / locationDegraded).
///
/// Cancellation is exception-based and cooperative: a requested token makes
/// the next checkpoint throw AnalysisCancelled. Checkpoints sit BEFORE any
/// structure or cell mutation, so unwinding leaves the DAIG audit-clean
/// (Daig::auditInvariants) and a later re-demand — with the token reset —
/// reproduces the uninterrupted run bit for bit: cells completed before the
/// cancel hold exactly the values the clean run computes, and evaluation
/// order is deterministic.
///
/// All state is thread_local (one analysis engine per thread, like the
/// counter sinks in support/statistics.h); budgets nest via BudgetScope.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_SUPPORT_BUDGET_H
#define DAI_SUPPORT_BUDGET_H

#include "support/observe.h"
#include "support/statistics.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace dai {

/// Cooperative cancellation: the owner requests, the analysis honors the
/// request at its next checkpoint by throwing AnalysisCancelled. atomic so
/// a watchdog/UI thread may request while the analysis thread runs.
class CancellationToken {
public:
  void requestCancel() { Flag.store(true, std::memory_order_relaxed); }
  void reset() { Flag.store(false, std::memory_order_relaxed); }
  bool cancelled() const { return Flag.load(std::memory_order_relaxed); }

private:
  std::atomic<bool> Flag{false};
};

/// Resource limits for one analysis region. A zero limit means unlimited;
/// a default-constructed budget governs nothing but still honors a token.
struct AnalysisBudget {
  uint64_t MaxSteps = 0;    ///< Checkpoint count (≈ cell evaluations).
  double MaxWallMs = 0;     ///< Wall-clock deadline in milliseconds.
  unsigned SoftPct = 75;    ///< Percent of any limit at which soft
                            ///< degradation starts (see file header).
  CancellationToken *Cancel = nullptr; ///< Optional; not owned.
};

/// Thrown by budgetCheckpoint when a cancellation token is honored. The
/// DAIG guarantees no partial values are stored across the unwind.
class AnalysisCancelled : public std::runtime_error {
public:
  explicit AnalysisCancelled(const std::string &Site)
      : std::runtime_error("analysis cancelled (cooperative token) at " +
                           Site) {}
};

/// Thrown when a fixpoint loop exceeds its hard iteration ceiling — the
/// diagnostic of last resort against a non-converging (e.g. widening-free)
/// domain or a transfer-function bug. Never thrown under an active budget:
/// budgeted loops degrade to ⊤ instead.
class AnalysisDivergence : public std::runtime_error {
public:
  AnalysisDivergence(const std::string &What, uint64_t Iterations)
      : std::runtime_error(What + " exceeded the iteration ceiling (" +
                           std::to_string(Iterations) +
                           " iterations without convergence); the domain's "
                           "widening is not stabilizing") {}
};

/// Hard ceilings on the two unbounded analysis loops. Defaults are far
/// beyond what any widened domain needs (octagon/zone/interval converge in
/// < 10 fix checks on this repo's workloads) yet turn a hang into a
/// diagnostic in bounded time.
struct AnalysisLimits {
  uint64_t MaxFixUnrollings = 4096;   ///< Per queryFix call (DAIG loops).
  uint64_t MaxQuiescencePasses = 4096; ///< Interproc summary re-passes.
  uint64_t DegradedFixUnrollings = 32; ///< Tightened fix ceiling once a
                                       ///< budget is in soft degradation.
};

/// The thread's ceiling configuration (tests tighten it and restore).
inline AnalysisLimits &analysisLimits() {
  static thread_local AnalysisLimits Limits;
  return Limits;
}

/// Per-thread budget state installed by BudgetScope.
struct BudgetState {
  bool Active = false;
  AnalysisBudget B;
  uint64_t Steps = 0;
  std::chrono::steady_clock::time_point Start;
  bool Soft = false; ///< Latched: soft threshold crossed.
  bool Hard = false; ///< Latched: a hard limit crossed (⊤-degradation on).
  /// Degradation-provenance taint: set when an evaluation consumes a
  /// degraded value (or suppresses precision work); consumed by the DAIG's
  /// per-cell taint scope to mark the cell being computed.
  bool TaintPending = false;
};

inline BudgetState &budgetState() {
  static thread_local BudgetState State;
  return State;
}

inline bool budgetActive() { return budgetState().Active; }

/// Soft-or-hard degraded: precision-sacrificing fallbacks are in effect.
inline bool budgetDegraded() {
  const BudgetState &S = budgetState();
  return S.Active && (S.Soft || S.Hard);
}

/// Hard-exhausted: demand-misses must resolve to ⊤ instead of evaluating.
inline bool budgetExhausted() {
  const BudgetState &S = budgetState();
  return S.Active && S.Hard;
}

/// Count the budget events in BudgetCounters (the bench emits them per
/// sweep size; the regression gate asserts they stay zero on the default,
/// un-budgeted workload).
inline void recordBudgetExhaustion() {
  traceInstant("budget.exhausted");
  ++budgetCounters().BudgetExhaustions;
}
inline void recordDegradedCell() {
  traceInstant("budget.degraded_cell");
  ++budgetCounters().DegradedCells;
}
inline void recordCancellationHonored() {
  traceInstant("budget.cancelled");
  ++budgetCounters().CancellationsHonored;
}

/// The checkpoint: called at DAIG cell evaluation, fix iteration, and
/// engine quiescence boundaries. Counts a step, honors a pending
/// cancellation (throws AnalysisCancelled), and latches the soft/hard
/// thresholds. The wall clock is polled on a small stride — a clock read is
/// not worth paying per cell.
inline void budgetCheckpoint(const char *Site) {
  BudgetState &S = budgetState();
  if (!S.Active)
    return;
  traceInstant("budget.checkpoint", S.Steps);
  if (S.B.Cancel && S.B.Cancel->cancelled()) {
    recordCancellationHonored();
    throw AnalysisCancelled(Site);
  }
  ++S.Steps;
  if (S.Hard)
    return; // already latched; nothing more to learn
  bool SoftNow = false, HardNow = false;
  if (S.B.MaxSteps) {
    if (S.Steps > S.B.MaxSteps)
      HardNow = true;
    else if (S.Steps * 100 > S.B.MaxSteps * S.B.SoftPct)
      SoftNow = true;
  }
  bool PollClock = S.Steps == 1 || (S.Steps & 15) == 0;
  if (S.B.MaxWallMs > 0 && PollClock) {
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - S.Start)
                    .count();
    if (Ms > S.B.MaxWallMs)
      HardNow = true;
    else if (Ms * 100 > S.B.MaxWallMs * S.B.SoftPct)
      SoftNow = true;
  }
  if (HardNow) {
    S.Hard = S.Soft = true;
    recordBudgetExhaustion();
  } else if (SoftNow && !S.Soft) {
    S.Soft = true;
  }
}

/// Installs \p B as the thread's active budget for the scope's lifetime;
/// restores the previous budget state (nesting-safe) on exit.
class BudgetScope {
public:
  explicit BudgetScope(AnalysisBudget B) : Saved(budgetState()) {
    BudgetState &S = budgetState();
    S.Active = true;
    S.B = B;
    S.Steps = 0;
    S.Soft = S.Hard = false;
    S.TaintPending = false;
    S.Start = std::chrono::steady_clock::now();
  }
  ~BudgetScope() { budgetState() = Saved; }
  BudgetScope(const BudgetScope &) = delete;
  BudgetScope &operator=(const BudgetScope &) = delete;

private:
  BudgetState Saved;
};

/// Per-evaluation taint frame (used by Daig::queryState): captures whether
/// THIS evaluation consumed a degraded input, while re-propagating the
/// taint outward on destruction — including across exception unwinds — so
/// a parent evaluation consuming this cell's (marked) result also marks.
class BudgetTaintScope {
public:
  BudgetTaintScope() : Saved(budgetState().TaintPending) {
    budgetState().TaintPending = false;
  }
  /// True when the scoped evaluation consumed a degraded value.
  bool consumed() const { return budgetState().TaintPending; }
  ~BudgetTaintScope() { budgetState().TaintPending |= Saved; }
  BudgetTaintScope(const BudgetTaintScope &) = delete;
  BudgetTaintScope &operator=(const BudgetTaintScope &) = delete;

private:
  bool Saved;
};

} // namespace dai

#endif // DAI_SUPPORT_BUDGET_H
