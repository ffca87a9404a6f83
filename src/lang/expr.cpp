//===-- lang/expr.cpp - Expression language implementation ----------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/expr.h"

#include "support/hashing.h"

#include <cassert>
#include <sstream>

using namespace dai;

const char *dai::spelling(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Neg: return "-";
  case UnaryOp::Not: return "!";
  }
  assert(false && "unknown unary operator");
  return "?";
}

const char *dai::spelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add: return "+";
  case BinaryOp::Sub: return "-";
  case BinaryOp::Mul: return "*";
  case BinaryOp::Div: return "/";
  case BinaryOp::Mod: return "%";
  case BinaryOp::Lt: return "<";
  case BinaryOp::Le: return "<=";
  case BinaryOp::Gt: return ">";
  case BinaryOp::Ge: return ">=";
  case BinaryOp::Eq: return "==";
  case BinaryOp::Ne: return "!=";
  case BinaryOp::And: return "&&";
  case BinaryOp::Or: return "||";
  }
  assert(false && "unknown binary operator");
  return "?";
}

bool dai::isComparison(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
  case BinaryOp::Eq:
  case BinaryOp::Ne:
    return true;
  default:
    return false;
  }
}

ExprPtr Expr::mkInt(int64_t V) {
  auto E = std::make_shared<Expr>();
  E->Kind = ExprKind::IntLit;
  E->IntVal = V;
  return E;
}

ExprPtr Expr::mkBool(bool V) {
  auto E = std::make_shared<Expr>();
  E->Kind = ExprKind::BoolLit;
  E->BoolVal = V;
  return E;
}

ExprPtr Expr::mkNull() {
  auto E = std::make_shared<Expr>();
  E->Kind = ExprKind::NullLit;
  return E;
}

ExprPtr Expr::mkVar(std::string Name) {
  auto E = std::make_shared<Expr>();
  E->Kind = ExprKind::Var;
  E->Sym = internSymbol(Name);
  E->Name = std::move(Name);
  return E;
}

ExprPtr Expr::mkUnary(UnaryOp Op, ExprPtr Sub) {
  auto E = std::make_shared<Expr>();
  E->Kind = ExprKind::Unary;
  E->UOp = Op;
  E->Lhs = std::move(Sub);
  return E;
}

ExprPtr Expr::mkBinary(BinaryOp Op, ExprPtr L, ExprPtr R) {
  auto E = std::make_shared<Expr>();
  E->Kind = ExprKind::Binary;
  E->BOp = Op;
  E->Lhs = std::move(L);
  E->Rhs = std::move(R);
  return E;
}

ExprPtr Expr::mkArray(std::vector<ExprPtr> Elems) {
  auto E = std::make_shared<Expr>();
  E->Kind = ExprKind::ArrayLit;
  E->Elems = std::move(Elems);
  return E;
}

ExprPtr Expr::mkIndex(ExprPtr Base, ExprPtr Idx) {
  auto E = std::make_shared<Expr>();
  E->Kind = ExprKind::Index;
  E->Lhs = std::move(Base);
  E->Rhs = std::move(Idx);
  return E;
}

ExprPtr Expr::mkField(ExprPtr Base, std::string Field) {
  auto E = std::make_shared<Expr>();
  E->Kind = ExprKind::FieldRead;
  E->Lhs = std::move(Base);
  E->Name = std::move(Field);
  return E;
}

bool dai::exprEquals(const ExprPtr &A, const ExprPtr &B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  if (A->Kind != B->Kind)
    return false;
  switch (A->Kind) {
  case ExprKind::IntLit:
    return A->IntVal == B->IntVal;
  case ExprKind::BoolLit:
    return A->BoolVal == B->BoolVal;
  case ExprKind::NullLit:
    return true;
  case ExprKind::Var:
    return A->Name == B->Name;
  case ExprKind::Unary:
    return A->UOp == B->UOp && exprEquals(A->Lhs, B->Lhs);
  case ExprKind::Binary:
    return A->BOp == B->BOp && exprEquals(A->Lhs, B->Lhs) &&
           exprEquals(A->Rhs, B->Rhs);
  case ExprKind::ArrayLit: {
    if (A->Elems.size() != B->Elems.size())
      return false;
    for (size_t I = 0, E = A->Elems.size(); I != E; ++I)
      if (!exprEquals(A->Elems[I], B->Elems[I]))
        return false;
    return true;
  }
  case ExprKind::Index:
    return exprEquals(A->Lhs, B->Lhs) && exprEquals(A->Rhs, B->Rhs);
  case ExprKind::FieldRead:
    return A->Name == B->Name && exprEquals(A->Lhs, B->Lhs);
  }
  assert(false && "unknown expression kind");
  return false;
}

uint64_t dai::exprHash(const ExprPtr &E) {
  if (!E)
    return 0x517cc1b727220a95ULL;
  uint64_t H = hashValues(static_cast<uint64_t>(E->Kind));
  switch (E->Kind) {
  case ExprKind::IntLit:
    return hashCombine(H, static_cast<uint64_t>(E->IntVal));
  case ExprKind::BoolLit:
    return hashCombine(H, E->BoolVal ? 1 : 2);
  case ExprKind::NullLit:
    return H;
  case ExprKind::Var:
    return hashCombine(H, hashString(E->Name));
  case ExprKind::Unary:
    H = hashCombine(H, static_cast<uint64_t>(E->UOp));
    return hashCombine(H, exprHash(E->Lhs));
  case ExprKind::Binary:
    H = hashCombine(H, static_cast<uint64_t>(E->BOp));
    H = hashCombine(H, exprHash(E->Lhs));
    return hashCombine(H, exprHash(E->Rhs));
  case ExprKind::ArrayLit:
    for (const auto &Elem : E->Elems)
      H = hashCombine(H, exprHash(Elem));
    return hashCombine(H, E->Elems.size());
  case ExprKind::Index:
    H = hashCombine(H, exprHash(E->Lhs));
    return hashCombine(H, hashCombine(exprHash(E->Rhs), 0xaaULL));
  case ExprKind::FieldRead:
    H = hashCombine(H, hashString(E->Name));
    return hashCombine(H, exprHash(E->Lhs));
  }
  assert(false && "unknown expression kind");
  return H;
}

namespace {

/// Precedence levels for printing with minimal parentheses.
int precedence(const Expr &E) {
  if (E.Kind != ExprKind::Binary)
    return 100;
  switch (E.BOp) {
  case BinaryOp::Or: return 1;
  case BinaryOp::And: return 2;
  case BinaryOp::Eq:
  case BinaryOp::Ne: return 3;
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge: return 4;
  case BinaryOp::Add:
  case BinaryOp::Sub: return 5;
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Mod: return 6;
  }
  return 100;
}

void print(const ExprPtr &E, std::ostringstream &OS, int ParentPrec) {
  if (!E) {
    OS << "<null-expr>";
    return;
  }
  switch (E->Kind) {
  case ExprKind::IntLit:
    OS << E->IntVal;
    return;
  case ExprKind::BoolLit:
    OS << (E->BoolVal ? "true" : "false");
    return;
  case ExprKind::NullLit:
    OS << "null";
    return;
  case ExprKind::Var:
    OS << E->Name;
    return;
  case ExprKind::Unary:
    OS << spelling(E->UOp);
    print(E->Lhs, OS, 99);
    return;
  case ExprKind::Binary: {
    int P = precedence(*E);
    bool Paren = P < ParentPrec;
    if (Paren)
      OS << "(";
    print(E->Lhs, OS, P);
    OS << " " << spelling(E->BOp) << " ";
    print(E->Rhs, OS, P + 1);
    if (Paren)
      OS << ")";
    return;
  }
  case ExprKind::ArrayLit: {
    OS << "[";
    bool First = true;
    for (const auto &Elem : E->Elems) {
      if (!First)
        OS << ", ";
      First = false;
      print(Elem, OS, 0);
    }
    OS << "]";
    return;
  }
  case ExprKind::Index:
    print(E->Lhs, OS, 100);
    OS << "[";
    print(E->Rhs, OS, 0);
    OS << "]";
    return;
  case ExprKind::FieldRead:
    print(E->Lhs, OS, 100);
    OS << "." << E->Name;
    return;
  }
}

} // namespace

std::string dai::exprToString(const ExprPtr &E) {
  std::ostringstream OS;
  print(E, OS, 0);
  return OS.str();
}

ExprPtr dai::negate(const ExprPtr &E) {
  assert(E && "cannot negate a missing expression");
  if (E->Kind == ExprKind::BoolLit)
    return Expr::mkBool(!E->BoolVal);
  if (E->Kind == ExprKind::Unary && E->UOp == UnaryOp::Not)
    return E->Lhs;
  if (E->Kind == ExprKind::Binary) {
    switch (E->BOp) {
    case BinaryOp::Lt: return Expr::mkBinary(BinaryOp::Ge, E->Lhs, E->Rhs);
    case BinaryOp::Le: return Expr::mkBinary(BinaryOp::Gt, E->Lhs, E->Rhs);
    case BinaryOp::Gt: return Expr::mkBinary(BinaryOp::Le, E->Lhs, E->Rhs);
    case BinaryOp::Ge: return Expr::mkBinary(BinaryOp::Lt, E->Lhs, E->Rhs);
    case BinaryOp::Eq: return Expr::mkBinary(BinaryOp::Ne, E->Lhs, E->Rhs);
    case BinaryOp::Ne: return Expr::mkBinary(BinaryOp::Eq, E->Lhs, E->Rhs);
    // De Morgan: !(a && b) == !a || !b.
    case BinaryOp::And:
      return Expr::mkBinary(BinaryOp::Or, negate(E->Lhs), negate(E->Rhs));
    case BinaryOp::Or:
      return Expr::mkBinary(BinaryOp::And, negate(E->Lhs), negate(E->Rhs));
    default:
      break;
    }
  }
  return Expr::mkUnary(UnaryOp::Not, E);
}
