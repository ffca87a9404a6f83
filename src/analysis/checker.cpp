//===-- analysis/checker.cpp - Obligation collection ----------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/checker.h"

#include "lang/expr.h"

using namespace dai;

namespace {

/// The mini-language's nominal machine-integer range (32-bit signed). The
/// symmetric lower bound keeps `-x` of any in-range x in range, matching
/// the usual "no INT_MIN edge case" checker convention.
constexpr int64_t kIntMin = -2147483647;
constexpr int64_t kIntMax = 2147483647;

/// `lo <= e && e <= hi` — the overflow-containment property for node e.
ExprPtr containedIn(const ExprPtr &E, int64_t Lo, int64_t Hi) {
  return Expr::mkBinary(BinaryOp::And,
                        Expr::mkBinary(BinaryOp::Ge, E, Expr::mkInt(Lo)),
                        Expr::mkBinary(BinaryOp::Le, E, Expr::mkInt(Hi)));
}

/// `0 <= i && i < base.length` — the bounds property for base[i].
ExprPtr inBounds(const ExprPtr &Base, const ExprPtr &Idx) {
  return Expr::mkBinary(
      BinaryOp::And,
      Expr::mkBinary(BinaryOp::Ge, Idx, Expr::mkInt(0)),
      Expr::mkBinary(BinaryOp::Lt, Idx, Expr::mkField(Base, "length")));
}

struct Collector {
  EdgeId Edge;
  Loc At;
  uint32_t Mask;
  std::vector<Obligation> &Out;
  uint32_t Next = 0; ///< SubIndex allocator (running, collection order).

  void emit(CheckKind K, ExprPtr Prop, std::string Text) {
    Stmt NotProp = Stmt::mkAssume(negate(Prop));
    Stmt IsProp = Stmt::mkAssume(Prop);
    Out.push_back(Obligation{K, Edge, At, Next++, std::move(Prop),
                             std::move(Text), std::move(NotProp),
                             std::move(IsProp)});
  }

  bool wants(CheckKind K) const { return (Mask & checkMask(K)) != 0; }

  /// Walks \p E post-order (operand obligations precede the operator's own,
  /// matching evaluation order) emitting derived obligations.
  void walk(const ExprPtr &E) {
    if (!E)
      return;
    switch (E->Kind) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::NullLit:
    case ExprKind::Var:
      return;
    case ExprKind::Unary:
      walk(E->Lhs);
      return;
    case ExprKind::Binary:
      walk(E->Lhs);
      walk(E->Rhs);
      switch (E->BOp) {
      case BinaryOp::Div:
      case BinaryOp::Mod:
        if (wants(CheckKind::DivByZero))
          emit(CheckKind::DivByZero,
               Expr::mkBinary(BinaryOp::Ne, E->Rhs, Expr::mkInt(0)),
               exprToString(E->Rhs) + " != 0");
        break;
      case BinaryOp::Add:
      case BinaryOp::Sub:
      case BinaryOp::Mul:
        if (wants(CheckKind::Overflow))
          emit(CheckKind::Overflow, containedIn(E, kIntMin, kIntMax),
               exprToString(E) + " in int32 range");
        break;
      default:
        break;
      }
      return;
    case ExprKind::ArrayLit:
      for (const ExprPtr &Elem : E->Elems)
        walk(Elem);
      return;
    case ExprKind::Index:
      walk(E->Lhs);
      walk(E->Rhs);
      if (wants(CheckKind::ArrayBounds))
        emit(CheckKind::ArrayBounds, inBounds(E->Lhs, E->Rhs),
             "0 <= " + exprToString(E->Rhs) + " < " + exprToString(E->Lhs) +
                 ".length");
      return;
    case ExprKind::FieldRead:
      walk(E->Lhs);
      return;
    }
  }
};

} // namespace

void dai::collectObligations(const Stmt &S, EdgeId Edge, Loc At,
                             std::vector<Obligation> &Out, uint32_t Mask) {
  Collector C{Edge, At, Mask, Out};
  // Sub-expression obligations first (evaluation order), in the statement's
  // operand order: Index, then Rhs, then Args.
  C.walk(S.Index);
  C.walk(S.Rhs);
  for (const ExprPtr &A : S.Args)
    C.walk(A);
  switch (S.Kind) {
  case StmtKind::Assert:
    if (C.wants(CheckKind::UserAssertion))
      C.emit(CheckKind::UserAssertion, S.Rhs,
             "assert(" + exprToString(S.Rhs) + ")");
    break;
  case StmtKind::ArrayWrite:
    if (C.wants(CheckKind::ArrayBounds))
      C.emit(CheckKind::ArrayBounds,
             inBounds(Expr::mkVar(S.Lhs), S.Index),
             "0 <= " + exprToString(S.Index) + " < " + S.Lhs + ".length");
    break;
  default:
    break;
  }
}

std::vector<Obligation> dai::collectObligations(const Cfg &G, uint32_t Mask) {
  std::vector<Obligation> Out;
  for (auto [Id, E] : G.edges())
    collectObligations(E.Label, Id, E.Src, Out, Mask);
  return Out;
}
