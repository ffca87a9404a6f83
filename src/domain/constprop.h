//===-- domain/constprop.h - Flat constant-propagation domain ---*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat constant propagation: each variable maps to ⊥ < c < ⊤ in the flat
/// lattice of integer constants. Finite height, so join doubles as a valid
/// widening. This domain exists primarily to exercise the framework's
/// no-widening-needed path in tests and to serve as a cheap reference domain
/// in property tests (from-scratch consistency over random programs).
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DOMAIN_CONSTPROP_H
#define DAI_DOMAIN_CONSTPROP_H

#include "cfg/program.h"
#include "domain/abstract_domain.h"
#include "domain/symbol_map.h"
#include "support/hashing.h"

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

namespace dai {

/// ⊥ or a finite map var → constant (absent = ⊤), keyed by interned
/// SymbolIds like the other non-relational states (domain/symbol_map.h).
/// The transfers read the ids the program carries (Expr::Sym,
/// Stmt::LhsSym); the string overloads, for tests and examples, intern on
/// writes and probe without interning on reads.
struct ConstState {
  bool Bottom = false;
  SymbolMap<int64_t> Env;

  std::optional<int64_t> get(SymbolId Sym) const {
    auto It = Env.find(Sym);
    if (It == Env.end())
      return std::nullopt;
    return It->second;
  }
  std::optional<int64_t> get(const std::string &Var) const {
    SymbolId Sym = lookupSymbol(Var);
    return Sym == kNoSymbol ? std::nullopt : get(Sym);
  }
  void setVar(SymbolId Sym, int64_t V) { Env[Sym] = V; }
  void setVar(const std::string &Var, int64_t V) {
    setVar(internSymbol(Var), V);
  }
  void eraseVar(SymbolId Sym) { Env.erase(Sym); }
  void eraseVar(const std::string &Var) {
    SymbolId Sym = lookupSymbol(Var);
    if (Sym != kNoSymbol)
      eraseVar(Sym);
  }
};

/// The flat constants domain policy (satisfies AbstractDomain).
struct ConstPropDomain {
  using Elem = ConstState;

  static Elem bottom() {
    Elem E;
    E.Bottom = true;
    return E;
  }

  static Elem initialEntry(const std::vector<std::string> &) { return Elem(); }

  static bool isBottom(const Elem &A) { return A.Bottom; }

  /// Evaluates \p E to a constant if possible. Arithmetic that leaves int64
  /// has no constant (the value is unknown), never a wrapped one.
  static std::optional<int64_t> eval(const ExprPtr &E, const Elem &S) {
    if (!E)
      return std::nullopt;
    switch (E->Kind) {
    case ExprKind::IntLit:
      return E->IntVal;
    case ExprKind::BoolLit:
      return E->BoolVal ? 1 : 0;
    case ExprKind::Var:
      return S.get(E->Sym);
    case ExprKind::Unary: {
      auto V = eval(E->Lhs, S);
      if (!V)
        return std::nullopt;
      if (E->UOp != UnaryOp::Neg)
        return *V == 0 ? 1 : 0;
      return *V == INT64_MIN ? std::nullopt : std::optional(-*V);
    }
    case ExprKind::Binary: {
      auto L = eval(E->Lhs, S), R = eval(E->Rhs, S);
      if (!L || !R)
        return std::nullopt;
      int64_t V;
      switch (E->BOp) {
      case BinaryOp::Add:
        return __builtin_add_overflow(*L, *R, &V) ? std::nullopt
                                                  : std::optional(V);
      case BinaryOp::Sub:
        return __builtin_sub_overflow(*L, *R, &V) ? std::nullopt
                                                  : std::optional(V);
      case BinaryOp::Mul:
        return __builtin_mul_overflow(*L, *R, &V) ? std::nullopt
                                                  : std::optional(V);
      case BinaryOp::Div:
      case BinaryOp::Mod:
        // x / 0 has no value; INT64_MIN / −1 leaves int64.
        if (*R == 0 || (*L == INT64_MIN && *R == -1))
          return std::nullopt;
        return E->BOp == BinaryOp::Div ? *L / *R : *L % *R;
      case BinaryOp::Lt: return *L < *R ? 1 : 0;
      case BinaryOp::Le: return *L <= *R ? 1 : 0;
      case BinaryOp::Gt: return *L > *R ? 1 : 0;
      case BinaryOp::Ge: return *L >= *R ? 1 : 0;
      case BinaryOp::Eq: return *L == *R ? 1 : 0;
      case BinaryOp::Ne: return *L != *R ? 1 : 0;
      case BinaryOp::And: return (*L != 0 && *R != 0) ? 1 : 0;
      case BinaryOp::Or: return (*L != 0 || *R != 0) ? 1 : 0;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt; // arrays / heap: not tracked
    }
  }

  static Elem transfer(const Stmt &S, const Elem &In) {
    if (In.Bottom)
      return In;
    Elem Out = In;
    switch (S.Kind) {
    case StmtKind::Skip:
    case StmtKind::Print:
    case StmtKind::FieldWrite:
    case StmtKind::ArrayWrite:
      return Out;
    case StmtKind::Alloc:
    case StmtKind::Call:
      Out.eraseVar(S.LhsSym);
      return Out;
    case StmtKind::Assign: {
      if (auto V = eval(S.Rhs, In))
        Out.setVar(S.LhsSym, *V);
      else
        Out.eraseVar(S.LhsSym);
      return Out;
    }
    case StmtKind::Assume:
    case StmtKind::Assert: { // Aborts on failure: the condition holds after.
      auto V = eval(S.Rhs, In);
      if (V && *V == 0)
        return bottom();
      // Refine equalities `x == c` / truthy conjunctions.
      refine(Out, S.Rhs);
      return Out;
    }
    }
    return Out;
  }

  static Elem join(const Elem &A, const Elem &B) {
    if (A.Bottom)
      return B;
    if (B.Bottom)
      return A;
    // A variable stays bound only to a constant both sides agree on.
    Elem R;
    R.Env = SymbolMap<int64_t>::intersect(
        A.Env, B.Env, [](int64_t VA, int64_t VB) -> std::optional<int64_t> {
          if (VA != VB)
            return std::nullopt;
          return VA;
        });
    return R;
  }

  // Finite height: join is a valid widening.
  static Elem widen(const Elem &Prev, const Elem &Next) {
    return join(Prev, Next);
  }

  static bool leq(const Elem &A, const Elem &B) {
    if (A.Bottom)
      return true;
    if (B.Bottom)
      return false;
    for (const auto &[Var, VB] : B.Env) {
      auto VA = A.get(Var);
      if (!VA || *VA != VB)
        return false;
    }
    return true;
  }

  static bool equal(const Elem &A, const Elem &B) {
    if (A.Bottom || B.Bottom)
      return A.Bottom == B.Bottom;
    return A.Env == B.Env;
  }

  static uint64_t hash(const Elem &A) {
    if (A.Bottom)
      return 0xb0770f000000ULL;
    uint64_t H = 0x5bd1e995cb1ab31fULL;
    for (const auto &[Var, V] : A.Env) {
      H = hashCombine(H, static_cast<uint64_t>(Var));
      H = hashCombine(H, static_cast<uint64_t>(V));
    }
    return H;
  }

  static std::string toString(const Elem &A) {
    if (A.Bottom)
      return "⊥";
    std::ostringstream OS;
    OS << "{";
    bool First = true;
    for (const auto &[Var, V] : A.Env) {
      if (!First)
        OS << ", ";
      First = false;
      OS << symbolName(Var) << "=" << V;
    }
    OS << "}";
    return OS.str();
  }

  static const char *name() { return "constprop"; }

  static Elem enterCall(const Elem &Caller, const Stmt &CallSite,
                        const std::vector<std::string> &CalleeParams) {
    if (Caller.Bottom)
      return Caller;
    Elem Entry;
    for (size_t I = 0, E = CalleeParams.size(); I != E; ++I) {
      if (I < CallSite.Args.size())
        if (auto V = eval(CallSite.Args[I], Caller))
          Entry.setVar(CalleeParams[I], *V);
    }
    return Entry;
  }

  static Elem exitCall(const Elem &Caller, const Elem &CalleeExit,
                       const Stmt &CallSite) {
    if (Caller.Bottom)
      return Caller;
    if (CalleeExit.Bottom)
      return bottom();
    Elem Out = Caller;
    if (auto V = CalleeExit.get(RetVar))
      Out.setVar(CallSite.LhsSym, *V);
    else
      Out.eraseVar(CallSite.LhsSym);
    return Out;
  }

private:
  /// Refines \p S under a true condition: learns `x == c` bindings through
  /// conjunctions.
  static void refine(Elem &S, const ExprPtr &Cond) {
    if (!Cond || Cond->Kind != ExprKind::Binary)
      return;
    if (Cond->BOp == BinaryOp::And) {
      refine(S, Cond->Lhs);
      refine(S, Cond->Rhs);
      return;
    }
    if (Cond->BOp != BinaryOp::Eq)
      return;
    auto Learn = [&](const ExprPtr &VarSide, const ExprPtr &ValSide) {
      if (VarSide && VarSide->Kind == ExprKind::Var)
        if (auto V = eval(ValSide, S))
          S.setVar(VarSide->Sym, *V);
    };
    Learn(Cond->Lhs, Cond->Rhs);
    Learn(Cond->Rhs, Cond->Lhs);
  }
};

} // namespace dai

#endif // DAI_DOMAIN_CONSTPROP_H
