//===-- domain/interval.h - Interval abstract domain ------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval abstract domain (Section 7.2 of the paper): the textbook
/// infinite-height lattice requiring widening for convergence. The paper
/// instantiates its framework with APRON's box domain; APRON is unavailable
/// offline, so this is a from-scratch implementation of the same lattice and
/// transformers (see docs/architecture.md, "Substitutions").
///
/// Abstract states map variables to a per-variable abstraction carrying a
/// numeric interval plus, for arrays, a length interval and an element
/// summary interval — enough to discharge the paper's array-bounds
/// verification client (`0 <= i < a.length`).
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DOMAIN_INTERVAL_H
#define DAI_DOMAIN_INTERVAL_H

#include "domain/abstract_domain.h"
#include "domain/symbol.h"
#include "lang/stmt.h"

#include <cstdint>
#include <map>
#include <string>

namespace dai {

/// A (possibly empty) integer interval with −∞/+∞ sentinels.
///
/// Representation: Empty, or [Lo, Hi] with Lo ≤ Hi where Lo = kNegInf means
/// unbounded below and Hi = kPosInf unbounded above. All arithmetic is
/// over-approximating and saturating.
class Interval {
public:
  static constexpr int64_t kNegInf = INT64_MIN;
  static constexpr int64_t kPosInf = INT64_MAX;

  /// Constructs ⊤ = [−∞, +∞].
  Interval() : Lo(kNegInf), Hi(kPosInf), Empty(false) {}

  static Interval top() { return Interval(); }
  static Interval empty() {
    Interval I;
    I.Empty = true;
    I.Lo = 1;
    I.Hi = 0;
    return I;
  }
  static Interval constant(int64_t C) { return range(C, C); }
  static Interval range(int64_t Lo, int64_t Hi) {
    if (Lo > Hi)
      return empty();
    Interval I;
    I.Lo = Lo;
    I.Hi = Hi;
    I.Empty = false;
    return I;
  }
  /// [Lo, +∞].
  static Interval atLeast(int64_t Lo) { return range(Lo, kPosInf); }
  /// [−∞, Hi].
  static Interval atMost(int64_t Hi) { return range(kNegInf, Hi); }

  bool isEmpty() const { return Empty; }
  bool isTop() const { return !Empty && Lo == kNegInf && Hi == kPosInf; }
  int64_t lo() const { return Lo; }
  int64_t hi() const { return Hi; }
  bool isConstant() const { return !Empty && Lo == Hi; }

  bool operator==(const Interval &O) const {
    if (Empty || O.Empty)
      return Empty == O.Empty;
    return Lo == O.Lo && Hi == O.Hi;
  }
  bool operator!=(const Interval &O) const { return !(*this == O); }

  bool contains(int64_t V) const { return !Empty && Lo <= V && V <= Hi; }
  bool subsumes(const Interval &O) const; ///< O ⊑ this.

  Interval join(const Interval &O) const;
  Interval meet(const Interval &O) const;
  /// Standard interval widening: unstable bounds jump to ±∞.
  Interval widen(const Interval &Next) const;

  Interval add(const Interval &O) const;
  Interval sub(const Interval &O) const;
  Interval mul(const Interval &O) const;
  Interval div(const Interval &O) const;
  Interval mod(const Interval &O) const;
  Interval neg() const;

  // Truth of comparisons, three-valued.
  TriBool cmpLt(const Interval &O) const;
  TriBool cmpLe(const Interval &O) const;
  TriBool cmpEq(const Interval &O) const;

  // Refinements: the largest sub-interval satisfying the constraint.
  Interval clampLe(int64_t Bound) const { return meet(atMost(Bound)); }
  Interval clampGe(int64_t Bound) const { return meet(atLeast(Bound)); }
  Interval clampLt(int64_t Bound) const;
  Interval clampGt(int64_t Bound) const;
  Interval clampNe(int64_t V) const;

  uint64_t hash() const;
  std::string toString() const;

private:
  int64_t Lo, Hi;
  bool Empty;
};

/// Per-variable abstraction: numeric interval plus array length/element
/// summaries (all ⊤ for plain unknown values).
struct VarAbs {
  Interval Num;   ///< Numeric value (booleans as 0/1).
  Interval Len;   ///< Array length if this holds an array.
  Interval Elems; ///< Summary of all array elements (weakly updated).

  static VarAbs top() { return VarAbs(); }
  static VarAbs numeric(Interval I) {
    VarAbs V;
    V.Num = I;
    return V;
  }
  bool isTop() const {
    return Num.isTop() && Len.isTop() && Elems.isTop();
  }
  bool operator==(const VarAbs &O) const {
    return Num == O.Num && Len == O.Len && Elems == O.Elems;
  }
};

/// An abstract state: ⊥ or a finite map from interned variable symbols to
/// VarAbs (absent variables are ⊤). Kept normalized: ⊤ bindings are erased.
/// Keys are SymbolIds (domain/symbol.h) so map operations compare integers
/// and the octagon domain's interval fallback crosses the interface without
/// touching strings; the string overloads intern (set) or probe without
/// interning (get — reading a never-seen variable must not grow the table).
struct IntervalState {
  bool Bottom = false;
  std::map<SymbolId, VarAbs> Env;

  /// Lookup with the absent-means-top convention.
  VarAbs get(SymbolId Sym) const {
    auto It = Env.find(Sym);
    return It == Env.end() ? VarAbs::top() : It->second;
  }
  VarAbs get(const std::string &Var) const {
    SymbolId Sym = lookupSymbol(Var);
    return Sym == kNoSymbol ? VarAbs::top() : get(Sym);
  }
  void set(SymbolId Sym, VarAbs V) {
    if (V.isTop())
      Env.erase(Sym);
    else
      Env[Sym] = std::move(V);
  }
  void set(const std::string &Var, VarAbs V) {
    if (V.isTop()) {
      // Erasing a never-interned name is a no-op; don't intern for it.
      SymbolId Sym = lookupSymbol(Var);
      if (Sym != kNoSymbol)
        Env.erase(Sym);
      return;
    }
    set(internSymbol(Var), std::move(V));
  }
};

/// The interval abstract domain policy (satisfies AbstractDomain).
struct IntervalDomain {
  using Elem = IntervalState;

  static Elem bottom();
  static Elem initialEntry(const std::vector<std::string> &Params);
  static Elem transfer(const Stmt &S, const Elem &In);
  static Elem join(const Elem &A, const Elem &B);
  static Elem widen(const Elem &Prev, const Elem &Next);
  static bool leq(const Elem &A, const Elem &B);
  static bool equal(const Elem &A, const Elem &B);
  static uint64_t hash(const Elem &A);
  static std::string toString(const Elem &A);
  static const char *name() { return "interval"; }
  static bool isBottom(const Elem &A) { return A.Bottom; }

  static Elem enterCall(const Elem &Caller, const Stmt &CallSite,
                        const std::vector<std::string> &CalleeParams);
  static Elem exitCall(const Elem &Caller, const Elem &CalleeExit,
                       const Stmt &CallSite);

  /// Abstract evaluation of an expression in \p State.
  static VarAbs eval(const ExprPtr &E, const Elem &State);

  /// Refines \p State under the assumption that \p Cond holds.
  static Elem assume(const Elem &State, const ExprPtr &Cond);
};

/// Array-bounds verification client (the paper's Section 7.2 study).
struct ObligationSummary {
  unsigned Total = 0;    ///< Array accesses in the statement.
  unsigned Verified = 0; ///< Accesses proven in-bounds in the given state.
};

/// Counts and discharges `0 <= i < a.length` obligations for every array
/// access in \p S, evaluated against the abstract pre-state \p Pre.
ObligationSummary checkArrayObligations(const IntervalState &Pre,
                                        const Stmt &S);

} // namespace dai

#endif // DAI_DOMAIN_INTERVAL_H
