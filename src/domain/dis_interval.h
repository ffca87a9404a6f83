//===-- domain/dis_interval.h - Disjunctive interval domain -----*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The disjunctive-interval abstract domain (crab's `dis_intervals` lineage):
/// each variable is abstracted by a bounded finite union of disjoint,
/// non-adjacent intervals instead of a single convex hull. Branch joins that
/// a plain interval collapses ("x == 0 or x == 10" becomes [0, 10]) stay
/// exact here as {[0,0], [10,10]} — the path-sensitivity win — and a later
/// `assume x >= 2` prunes whole partitions instead of trimming one bound.
///
/// Precision is paid for with a per-variable partition bound K
/// (disIntervalMaxPartitions(), runtime-configurable): normalization merges
/// the closest pair of partitions whenever a list would exceed K, and each
/// forced merge is counted in DisIntervalCounters::PartitionsCollapsed — the
/// deterministic CI gate metric for this domain's bench rows. At K = 1 the
/// domain degenerates to exactly the interval domain (the differential
/// lockstep oracle in tests/dis_interval_test.cpp pins this).
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DOMAIN_DIS_INTERVAL_H
#define DAI_DOMAIN_DIS_INTERVAL_H

#include "domain/interval.h"

#include <atomic>
#include <vector>

namespace dai {

/// The per-variable partition bound K (≥ 1). Process-global and read with
/// relaxed atomics: benches and tests set it once before running analysis;
/// analyses on pool workers only ever read it.
unsigned disIntervalMaxPartitions();
void setDisIntervalMaxPartitions(unsigned K);

/// RAII partition-bound override for tests (restores the previous K).
class DisIntervalPartitionScope {
public:
  explicit DisIntervalPartitionScope(unsigned K)
      : Saved(disIntervalMaxPartitions()) {
    setDisIntervalMaxPartitions(K);
  }
  ~DisIntervalPartitionScope() { setDisIntervalMaxPartitions(Saved); }
  DisIntervalPartitionScope(const DisIntervalPartitionScope &) = delete;
  DisIntervalPartitionScope &operator=(const DisIntervalPartitionScope &) =
      delete;

private:
  unsigned Saved;
};

/// A bounded finite union of disjoint, non-adjacent, non-empty intervals,
/// kept sorted by lower bound. The empty union is the empty set; a single
/// [−∞, +∞] partition is ⊤. All operations re-normalize (sort, merge
/// overlapping/adjacent parts, enforce the partition bound K).
class DisInterval {
public:
  /// Constructs ⊤.
  DisInterval() : Parts{Interval::top()} {}

  static DisInterval top() { return DisInterval(); }
  static DisInterval empty() {
    DisInterval D;
    D.Parts.clear();
    return D;
  }
  static DisInterval fromInterval(const Interval &I) {
    DisInterval D;
    D.Parts.clear();
    if (!I.isEmpty())
      D.Parts.push_back(I);
    return D;
  }
  static DisInterval constant(int64_t C) {
    return fromInterval(Interval::constant(C));
  }

  bool isEmpty() const { return Parts.empty(); }
  bool isTop() const { return Parts.size() == 1 && Parts.front().isTop(); }
  bool isConstant() const {
    return Parts.size() == 1 && Parts.front().isConstant();
  }
  bool contains(int64_t V) const;
  size_t numParts() const { return Parts.size(); }
  const std::vector<Interval> &parts() const { return Parts; }

  /// The convex hull (the plain-interval over-approximation).
  Interval hull() const;

  bool operator==(const DisInterval &O) const { return Parts == O.Parts; }
  bool operator!=(const DisInterval &O) const { return !(*this == O); }

  /// O ⊑ this: every partition of O lies inside a single partition of this
  /// (exact for normalized partition lists).
  bool subsumes(const DisInterval &O) const;

  DisInterval join(const DisInterval &O) const;
  DisInterval meet(const DisInterval &O) const;
  /// Widening: pairwise interval widening when the partition counts line up,
  /// clamped by the hull widening (so the result never exceeds what a plain
  /// interval would report); hull widening otherwise. Terminates because
  /// bounds only ever move toward the (stabilizing) hull-widened bounds.
  DisInterval widen(const DisInterval &Next) const;

  DisInterval add(const DisInterval &O) const;
  DisInterval sub(const DisInterval &O) const;
  DisInterval mul(const DisInterval &O) const;
  DisInterval div(const DisInterval &O) const;
  DisInterval mod(const DisInterval &O) const;
  DisInterval neg() const;

  // Truth of comparisons, three-valued. Lt/Le mirror the interval domain's
  // hull-based tests exactly; Eq is sharper (a gap can refute equality the
  // hull cannot).
  TriBool cmpLt(const DisInterval &O) const;
  TriBool cmpLe(const DisInterval &O) const;
  TriBool cmpEq(const DisInterval &O) const;

  // Refinements: the largest sub-union satisfying the constraint.
  DisInterval clampLe(int64_t Bound) const;
  DisInterval clampGe(int64_t Bound) const;
  DisInterval clampLt(int64_t Bound) const;
  DisInterval clampGt(int64_t Bound) const;
  /// ≠ V splits the partition containing V in its interior — the refinement
  /// a convex interval can only apply at its endpoints.
  DisInterval clampNe(int64_t V) const;

  uint64_t hash() const;
  std::string toString() const;

private:
  static DisInterval normalized(std::vector<Interval> Raw);

  std::vector<Interval> Parts;
};

/// Per-variable abstraction: disjunctive numeric value plus the same array
/// length/element summaries as the interval domain (kept convex — array
/// metadata never benefits from partitioning on this workload).
struct DisVarAbs {
  DisInterval Num;
  Interval Len;
  Interval Elems;

  static DisVarAbs top() { return DisVarAbs(); }
  static DisVarAbs numeric(DisInterval D) {
    DisVarAbs V;
    V.Num = std::move(D);
    return V;
  }
  bool isTop() const { return Num.isTop() && Len.isTop() && Elems.isTop(); }
  bool operator==(const DisVarAbs &O) const {
    return Num == O.Num && Len == O.Len && Elems == O.Elems;
  }
};

/// An abstract state: ⊥ or a finite map from interned variable symbols to
/// DisVarAbs (absent variables are ⊤, ⊤ bindings are erased — the same
/// normalization and the same SymbolMap environment as IntervalState).
struct DisIntervalState {
  bool Bottom = false;
  SymbolMap<DisVarAbs> Env;

  DisVarAbs get(SymbolId Sym) const {
    auto It = Env.find(Sym);
    return It == Env.end() ? DisVarAbs::top() : It->second;
  }
  DisVarAbs get(const std::string &Var) const {
    SymbolId Sym = lookupSymbol(Var);
    return Sym == kNoSymbol ? DisVarAbs::top() : get(Sym);
  }
  void set(SymbolId Sym, DisVarAbs V) {
    if (V.isTop())
      Env.erase(Sym);
    else
      Env[Sym] = std::move(V);
  }
  void set(const std::string &Var, DisVarAbs V) {
    if (V.isTop()) {
      SymbolId Sym = lookupSymbol(Var);
      if (Sym != kNoSymbol)
        Env.erase(Sym);
      return;
    }
    set(internSymbol(Var), std::move(V));
  }

  /// The convex-hull projection (used by the registry's cross-domain
  /// conversion and the lockstep oracle).
  IntervalState hullState() const;
};

/// The disjunctive-interval abstract domain policy (satisfies
/// AbstractDomain).
struct DisIntervalDomain {
  using Elem = DisIntervalState;

  static Elem bottom();
  static Elem initialEntry(const std::vector<std::string> &Params);
  static Elem transfer(const Stmt &S, const Elem &In);
  static Elem join(const Elem &A, const Elem &B);
  static Elem widen(const Elem &Prev, const Elem &Next);
  static bool leq(const Elem &A, const Elem &B);
  static bool equal(const Elem &A, const Elem &B);
  static uint64_t hash(const Elem &A);
  static std::string toString(const Elem &A);
  static const char *name() { return "dis_interval"; }
  static bool isBottom(const Elem &A) { return A.Bottom; }

  static Elem enterCall(const Elem &Caller, const Stmt &CallSite,
                        const std::vector<std::string> &CalleeParams);
  static Elem exitCall(const Elem &Caller, const Elem &CalleeExit,
                       const Stmt &CallSite);

  /// Abstract evaluation of an expression in \p State.
  static DisVarAbs eval(const ExprPtr &E, const Elem &State);

  /// Refines \p State under the assumption that \p Cond holds.
  static Elem assume(const Elem &State, const ExprPtr &Cond);
};

} // namespace dai

#endif // DAI_DOMAIN_DIS_INTERVAL_H
