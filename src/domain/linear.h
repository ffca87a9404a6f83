//===-- domain/linear.h - Linear forms over interned symbols ----*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linearization of expressions into Σ coeff·var + const form, shared by the
/// relational domains (octagon, zone): each domain pattern-matches the
/// resulting LinForm against the constraint shapes it can represent exactly
/// (±x ± y ≤ c for octagons, x − y ≤ c / ±x ≤ c for zones) and falls back
/// to interval reasoning otherwise. A variable enters the form by the id
/// its node was built with (Expr::Sym), so everything downstream works over
/// integer symbol ids and linearization never probes the symbol table.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DOMAIN_LINEAR_H
#define DAI_DOMAIN_LINEAR_H

#include "lang/expr.h"

#include <cstdint>
#include <map>

namespace dai {

/// Linear form Σ coeff·var + Const; Ok is false for non-linear expressions
/// and for forms whose arithmetic overflows int64 (a wrapped constant or
/// coefficient would be unsound). Callers treat a failed form as
/// non-linear and fall back to interval reasoning, which saturates.
struct LinForm {
  bool Ok = false;
  std::map<SymbolId, int64_t> Coeffs;
  int64_t Const = 0;

  static LinForm fail() { return LinForm(); }
  static LinForm constant(int64_t C) {
    LinForm F;
    F.Ok = true;
    F.Const = C;
    return F;
  }
  LinForm scaled(int64_t K) const {
    LinForm F = *this;
    if (__builtin_mul_overflow(F.Const, K, &F.Const))
      return fail();
    for (auto &[V, C] : F.Coeffs)
      if (__builtin_mul_overflow(C, K, &C))
        return fail();
    std::erase_if(F.Coeffs, [](const auto &P) { return P.second == 0; });
    return F;
  }
  /// this + Sign·O, for Sign = ±1.
  LinForm plus(const LinForm &O, int64_t Sign) const {
    LinForm F = *this;
    int64_t T;
    if (__builtin_mul_overflow(Sign, O.Const, &T) ||
        __builtin_add_overflow(F.Const, T, &F.Const))
      return fail();
    for (const auto &[V, C] : O.Coeffs) {
      int64_t &Slot = F.Coeffs[V];
      if (__builtin_mul_overflow(Sign, C, &T) ||
          __builtin_add_overflow(Slot, T, &Slot))
        return fail();
      if (Slot == 0)
        F.Coeffs.erase(V);
    }
    return F;
  }
};

inline LinForm linearize(const ExprPtr &E) {
  if (!E)
    return LinForm::fail();
  switch (E->Kind) {
  case ExprKind::IntLit:
    return LinForm::constant(E->IntVal);
  case ExprKind::BoolLit:
    return LinForm::constant(E->BoolVal ? 1 : 0);
  case ExprKind::Var: {
    LinForm F;
    F.Ok = true;
    F.Coeffs[E->Sym] = 1;
    return F;
  }
  case ExprKind::Unary: {
    if (E->UOp != UnaryOp::Neg)
      return LinForm::fail();
    LinForm Sub = linearize(E->Lhs);
    return Sub.Ok ? Sub.scaled(-1) : LinForm::fail();
  }
  case ExprKind::Binary: {
    if (E->BOp == BinaryOp::Add || E->BOp == BinaryOp::Sub) {
      LinForm L = linearize(E->Lhs), R = linearize(E->Rhs);
      if (!L.Ok || !R.Ok)
        return LinForm::fail();
      return L.plus(R, E->BOp == BinaryOp::Add ? 1 : -1);
    }
    if (E->BOp == BinaryOp::Mul) {
      LinForm L = linearize(E->Lhs), R = linearize(E->Rhs);
      if (L.Ok && L.Coeffs.empty() && R.Ok)
        return R.scaled(L.Const);
      if (R.Ok && R.Coeffs.empty() && L.Ok)
        return L.scaled(R.Const);
      return LinForm::fail();
    }
    return LinForm::fail();
  }
  default:
    return LinForm::fail();
  }
}

} // namespace dai

#endif // DAI_DOMAIN_LINEAR_H
