//===-- lang/stmt.cpp - Atomic CFG statement language ---------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/stmt.h"

#include "support/hashing.h"

#include <cassert>
#include <sstream>

using namespace dai;

namespace {

/// The id of a statement target; a statement without one interns nothing.
SymbolId targetSym(const std::string &Lhs) {
  return Lhs.empty() ? kNoSymbol : internSymbol(Lhs);
}

} // namespace

Stmt Stmt::mkSkip() { return Stmt(); }

Stmt Stmt::mkAssign(std::string Lhs, ExprPtr Rhs) {
  Stmt S;
  S.Kind = StmtKind::Assign;
  S.LhsSym = targetSym(Lhs);
  S.Lhs = std::move(Lhs);
  S.Rhs = std::move(Rhs);
  return S;
}

Stmt Stmt::mkAssume(ExprPtr Cond) {
  Stmt S;
  S.Kind = StmtKind::Assume;
  S.Rhs = std::move(Cond);
  return S;
}

Stmt Stmt::mkArrayWrite(std::string Lhs, ExprPtr Index, ExprPtr Rhs) {
  Stmt S;
  S.Kind = StmtKind::ArrayWrite;
  S.LhsSym = targetSym(Lhs);
  S.Lhs = std::move(Lhs);
  S.Index = std::move(Index);
  S.Rhs = std::move(Rhs);
  return S;
}

Stmt Stmt::mkFieldWrite(std::string Lhs, ExprPtr Rhs) {
  Stmt S;
  S.Kind = StmtKind::FieldWrite;
  S.LhsSym = targetSym(Lhs);
  S.Lhs = std::move(Lhs);
  S.Rhs = std::move(Rhs);
  return S;
}

Stmt Stmt::mkAlloc(std::string Lhs) {
  Stmt S;
  S.Kind = StmtKind::Alloc;
  S.LhsSym = targetSym(Lhs);
  S.Lhs = std::move(Lhs);
  return S;
}

Stmt Stmt::mkCall(std::string Lhs, std::string Callee,
                  std::vector<ExprPtr> Args) {
  Stmt S;
  S.Kind = StmtKind::Call;
  S.LhsSym = targetSym(Lhs);
  S.Lhs = std::move(Lhs);
  S.Callee = std::move(Callee);
  S.Args = std::move(Args);
  return S;
}

Stmt Stmt::mkPrint(ExprPtr Arg) {
  Stmt S;
  S.Kind = StmtKind::Print;
  S.Rhs = std::move(Arg);
  return S;
}

Stmt Stmt::mkAssert(ExprPtr Cond) {
  Stmt S;
  S.Kind = StmtKind::Assert;
  S.Rhs = std::move(Cond);
  return S;
}

bool Stmt::operator==(const Stmt &O) const {
  if (Kind != O.Kind || Lhs != O.Lhs || Callee != O.Callee)
    return false;
  if (!exprEquals(Index, O.Index) || !exprEquals(Rhs, O.Rhs))
    return false;
  if (Args.size() != O.Args.size())
    return false;
  for (size_t I = 0, E = Args.size(); I != E; ++I)
    if (!exprEquals(Args[I], O.Args[I]))
      return false;
  return true;
}

uint64_t Stmt::hash() const {
  uint64_t H = hashValues(static_cast<uint64_t>(Kind));
  H = hashCombine(H, hashString(Lhs));
  H = hashCombine(H, hashString(Callee));
  H = hashCombine(H, exprHash(Index));
  H = hashCombine(H, exprHash(Rhs));
  for (const auto &A : Args)
    H = hashCombine(H, exprHash(A));
  return hashCombine(H, Args.size());
}

std::string Stmt::toString() const {
  std::ostringstream OS;
  switch (Kind) {
  case StmtKind::Skip:
    OS << "skip";
    break;
  case StmtKind::Assign:
    OS << Lhs << " = " << exprToString(Rhs);
    break;
  case StmtKind::Assume:
    OS << "assume " << exprToString(Rhs);
    break;
  case StmtKind::ArrayWrite:
    OS << Lhs << "[" << exprToString(Index) << "] = " << exprToString(Rhs);
    break;
  case StmtKind::FieldWrite:
    OS << Lhs << ".next = " << exprToString(Rhs);
    break;
  case StmtKind::Alloc:
    OS << Lhs << " = new List";
    break;
  case StmtKind::Call: {
    OS << Lhs << " = " << Callee << "(";
    bool First = true;
    for (const auto &A : Args) {
      if (!First)
        OS << ", ";
      First = false;
      OS << exprToString(A);
    }
    OS << ")";
    break;
  }
  case StmtKind::Print:
    OS << "print(" << exprToString(Rhs) << ")";
    break;
  case StmtKind::Assert:
    OS << "assert(" << exprToString(Rhs) << ")";
    break;
  }
  return OS.str();
}

