//===-- lang/expr.h - Expression language -----------------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expression language shared by the structured AST and the atomic CFG
/// statement language (Fig. 5 of the paper leaves the statement language
/// unspecified; this is our concrete instantiation, chosen to match the
/// JavaScript subset of the paper's evaluation: integers, booleans, arrays,
/// null, and `next`-field reads on heap lists).
///
/// Expressions are immutable trees shared via shared_ptr; they support
/// structural equality, hashing (for DAIG names and memo-table keys), and
/// printing. A variable node carries its interned symbol (support/symbol.h),
/// resolved once by mkVar, so the abstract domains read ids and never look
/// a name up while they evaluate.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_LANG_EXPR_H
#define DAI_LANG_EXPR_H

#include "support/symbol.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dai {

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Expression node kinds.
enum class ExprKind : uint8_t {
  IntLit,    ///< Integer literal.
  BoolLit,   ///< Boolean literal.
  NullLit,   ///< The `null` constant.
  Var,       ///< Variable reference.
  Unary,     ///< Unary operation (negation, logical not).
  Binary,    ///< Binary operation.
  ArrayLit,  ///< Array literal `[e1, ..., ek]`.
  Index,     ///< Array read `a[i]`.
  FieldRead, ///< Field read `x.f` (`next` for lists, `length` for arrays).
};

enum class UnaryOp : uint8_t { Neg, Not };

enum class BinaryOp : uint8_t {
  Add, Sub, Mul, Div, Mod,
  Lt, Le, Gt, Ge, Eq, Ne,
  And, Or,
};

/// Returns the source spelling of \p Op.
const char *spelling(UnaryOp Op);
const char *spelling(BinaryOp Op);

/// Returns true if \p Op is a comparison producing a boolean.
bool isComparison(BinaryOp Op);

/// An immutable expression tree node.
///
/// All fields are populated according to Kind; unused fields hold default
/// values and participate in neither equality nor hashing. Sym is derived
/// from Name (equal names intern to equal ids), so it takes no part in
/// either.
struct Expr {
  ExprKind Kind;
  SymbolId Sym = kNoSymbol;  ///< Var: the interned Name.
  int64_t IntVal = 0;        ///< IntLit.
  bool BoolVal = false;      ///< BoolLit.
  std::string Name;          ///< Var name or FieldRead field name.
  UnaryOp UOp = UnaryOp::Neg;
  BinaryOp BOp = BinaryOp::Add;
  ExprPtr Lhs, Rhs;                ///< Unary uses Lhs; Index uses Lhs[Rhs].
  std::vector<ExprPtr> Elems;      ///< ArrayLit elements.

  // Factory functions. Expressions must be built through these.
  static ExprPtr mkInt(int64_t V);
  static ExprPtr mkBool(bool V);
  static ExprPtr mkNull();
  static ExprPtr mkVar(std::string Name);
  static ExprPtr mkUnary(UnaryOp Op, ExprPtr E);
  static ExprPtr mkBinary(BinaryOp Op, ExprPtr L, ExprPtr R);
  static ExprPtr mkArray(std::vector<ExprPtr> Elems);
  static ExprPtr mkIndex(ExprPtr Base, ExprPtr Idx);
  static ExprPtr mkField(ExprPtr Base, std::string Field);
};

/// Structural equality on expression trees (null pointers compare equal).
bool exprEquals(const ExprPtr &A, const ExprPtr &B);

/// Deterministic structural hash.
uint64_t exprHash(const ExprPtr &E);

/// Renders \p E as source text.
std::string exprToString(const ExprPtr &E);

/// Builds the logical negation of a boolean expression, pushing the negation
/// through comparisons (e.g. `!(x < y)` becomes `x >= y`) so that abstract
/// domains see refinable atoms on both branch edges.
ExprPtr negate(const ExprPtr &E);

} // namespace dai

#endif // DAI_LANG_EXPR_H
