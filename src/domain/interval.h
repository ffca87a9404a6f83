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
/// summary interval — enough for the checker's ⊥-probes
/// (analysis/checker.h) to discharge the paper's array-bounds obligations
/// (`0 <= i < a.length`).
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DOMAIN_INTERVAL_H
#define DAI_DOMAIN_INTERVAL_H

#include "domain/abstract_domain.h"
#include "domain/symbol_map.h"
#include "lang/stmt.h"

#include <cstdint>
#include <string>

namespace dai {

/// A (possibly empty) integer interval with −∞/+∞ sentinels.
///
/// Representation: Empty, or [Lo, Hi] with Lo ≤ Hi where Lo = kNegInf means
/// unbounded below and Hi = kPosInf unbounded above. All arithmetic is
/// over-approximating and saturating. The sentinels are never finite
/// bounds on the other side: an upper bound of INT64_MIN or a lower bound
/// of INT64_MAX (which would read as −∞ or +∞) is loosened by one, so the
/// value INT64_MIN is [−∞, INT64_MIN + 1], never a "constant" −∞.
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
    if (Hi == kNegInf)
      Hi = kNegInf + 1;
    if (Lo == kPosInf)
      Lo = kPosInf - 1;
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
/// The map is a SymbolMap (domain/symbol_map.h), so a copy is one
/// allocation and a memcpy, and the octagon domain's interval fallback
/// crosses the interface without touching strings. The domain reads the
/// ids the program carries (Expr::Sym, Stmt::LhsSym); the string overloads,
/// for tests and examples, intern (set) or probe without interning (get —
/// reading a never-seen variable must not grow the table).
struct IntervalState {
  bool Bottom = false;
  SymbolMap<VarAbs> Env;

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

} // namespace dai

#endif // DAI_DOMAIN_INTERVAL_H
