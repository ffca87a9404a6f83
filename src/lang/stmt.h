//===-- lang/stmt.h - Atomic CFG statement language -------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The atomic statement language labelling CFG edges (the `Stmt` of Fig. 5).
/// Structured control flow (if/while) is lowered to `assume` edges by the
/// AST→CFG lowering pass, exactly as in Fig. 2 of the paper.
///
/// Statements support structural equality, hashing, and printing: DAIG names
/// and the auxiliary memo table key computations by statement content
/// (Section 5, names of the form ⟦·⟧♯·s·φ).
///
//===----------------------------------------------------------------------===//

#ifndef DAI_LANG_STMT_H
#define DAI_LANG_STMT_H

#include "lang/expr.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dai {

/// Atomic statement kinds.
enum class StmtKind : uint8_t {
  Skip,       ///< No-op (also used for deleted statements).
  Assign,     ///< `x = e` (e may contain field/array reads).
  Assume,     ///< `assume e` — branch guard edge.
  ArrayWrite, ///< `x[i] = e`.
  FieldWrite, ///< `x.next = y` (heap mutation; Rhs is a var or null).
  Alloc,      ///< `x = new List` — fresh list node with `next = null`.
  Call,       ///< `x = f(e1, ..., ek)` — static, non-virtual call.
  Print,      ///< `print(e)` — analysis no-op with a data dependence on e.
  Assert,     ///< `assert(e)` — checkable obligation; transfers refine like
              ///< `assume e` (execution aborts on failure), and the checker
              ///< pass evaluates e against the pre-state to raise alarms.
};

/// An atomic program statement. Value-type with structural semantics.
/// The factories intern a non-empty target once and keep its id in LhsSym
/// (kNoSymbol without a target); like Expr::Sym it is derived from Lhs and
/// takes no part in equality or hashing.
struct Stmt {
  StmtKind Kind = StmtKind::Skip;
  SymbolId LhsSym = kNoSymbol; ///< The interned Lhs.
  std::string Lhs;            ///< Assign/ArrayWrite/FieldWrite/Alloc/Call target.
  ExprPtr Index;              ///< ArrayWrite index.
  ExprPtr Rhs;                ///< Assign/ArrayWrite/FieldWrite/Print payload.
  std::string Callee;         ///< Call target function name.
  std::vector<ExprPtr> Args;  ///< Call arguments.

  static Stmt mkSkip();
  static Stmt mkAssign(std::string Lhs, ExprPtr Rhs);
  static Stmt mkAssume(ExprPtr Cond);
  static Stmt mkArrayWrite(std::string Lhs, ExprPtr Index, ExprPtr Rhs);
  static Stmt mkFieldWrite(std::string Lhs, ExprPtr Rhs);
  static Stmt mkAlloc(std::string Lhs);
  static Stmt mkCall(std::string Lhs, std::string Callee,
                     std::vector<ExprPtr> Args);
  static Stmt mkPrint(ExprPtr Arg);
  static Stmt mkAssert(ExprPtr Cond);

  bool operator==(const Stmt &O) const;
  bool operator!=(const Stmt &O) const { return !(*this == O); }

  /// Deterministic structural hash (stable across runs).
  uint64_t hash() const;

  /// Renders this statement as source text.
  std::string toString() const;

  /// Returns the variable written by this statement, or empty if none.
  const std::string &def() const { return Lhs; }
};

} // namespace dai

#endif // DAI_LANG_STMT_H
