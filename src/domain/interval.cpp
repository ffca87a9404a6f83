//===-- domain/interval.cpp - Interval abstract domain --------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "domain/interval.h"

#include "cfg/program.h"
#include "support/hashing.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace dai;

namespace {

constexpr int64_t NegInf = Interval::kNegInf;
constexpr int64_t PosInf = Interval::kPosInf;

bool isInf(int64_t V) { return V == NegInf || V == PosInf; }

/// Saturating addition with ±∞ absorption. Callers never add opposite
/// infinities (bounds of the same kind are combined).
int64_t boundAdd(int64_t A, int64_t B) {
  if (A == NegInf || B == NegInf)
    return NegInf;
  if (A == PosInf || B == PosInf)
    return PosInf;
  int64_t R;
  if (__builtin_add_overflow(A, B, &R))
    return (A > 0) ? PosInf : NegInf;
  return R;
}

int64_t boundNeg(int64_t A) {
  if (A == NegInf)
    return PosInf;
  if (A == PosInf)
    return NegInf;
  return A == INT64_MIN ? PosInf : -A;
}

/// Bound multiplication with the standard 0·∞ = 0 convention (sound for
/// corner-product interval multiplication).
int64_t boundMul(int64_t A, int64_t B) {
  if (A == 0 || B == 0)
    return 0;
  if (isInf(A) || isInf(B)) {
    bool Negative = (A < 0) != (B < 0);
    return Negative ? NegInf : PosInf;
  }
  int64_t R;
  if (__builtin_mul_overflow(A, B, &R))
    return ((A < 0) != (B < 0)) ? NegInf : PosInf;
  return R;
}

int64_t boundDiv(int64_t A, int64_t B) {
  assert(B != 0 && "divisor corner must be nonzero");
  if (isInf(A)) {
    bool Negative = (A < 0) != (B < 0);
    return Negative ? NegInf : PosInf;
  }
  if (isInf(B))
    return 0; // finite / ±∞ truncates toward 0
  return A / B;
}

} // namespace

bool Interval::subsumes(const Interval &O) const {
  if (O.Empty)
    return true;
  if (Empty)
    return false;
  return Lo <= O.Lo && O.Hi <= Hi;
}

Interval Interval::join(const Interval &O) const {
  if (Empty)
    return O;
  if (O.Empty)
    return *this;
  return range(std::min(Lo, O.Lo), std::max(Hi, O.Hi));
}

Interval Interval::meet(const Interval &O) const {
  if (Empty || O.Empty)
    return empty();
  return range(std::max(Lo, O.Lo), std::min(Hi, O.Hi));
}

Interval Interval::widen(const Interval &Next) const {
  if (Empty)
    return Next;
  if (Next.Empty)
    return *this;
  int64_t L = Next.Lo < Lo ? NegInf : Lo;
  int64_t H = Next.Hi > Hi ? PosInf : Hi;
  return range(L, H);
}

Interval Interval::add(const Interval &O) const {
  if (Empty || O.Empty)
    return empty();
  return range(boundAdd(Lo, O.Lo), boundAdd(Hi, O.Hi));
}

Interval Interval::sub(const Interval &O) const { return add(O.neg()); }

Interval Interval::neg() const {
  if (Empty)
    return empty();
  return range(boundNeg(Hi), boundNeg(Lo));
}

Interval Interval::mul(const Interval &O) const {
  if (Empty || O.Empty)
    return empty();
  int64_t C[4] = {boundMul(Lo, O.Lo), boundMul(Lo, O.Hi), boundMul(Hi, O.Lo),
                  boundMul(Hi, O.Hi)};
  return range(*std::min_element(C, C + 4), *std::max_element(C, C + 4));
}

Interval Interval::div(const Interval &O) const {
  if (Empty || O.Empty)
    return empty();
  // Only handle divisors of a definite sign precisely; a divisor interval
  // containing 0 is split into its negative and positive parts.
  if (O.contains(0)) {
    Interval NegPart = O.meet(atMost(-1));
    Interval PosPart = O.meet(atLeast(1));
    Interval R = empty();
    if (!NegPart.isEmpty())
      R = R.join(div(NegPart));
    if (!PosPart.isEmpty())
      R = R.join(div(PosPart));
    // Division by exactly zero has no defined result; over-approximate the
    // all-zero divisor case as ⊤ only when nothing else constrains it.
    return R.isEmpty() ? top() : R;
  }
  int64_t C[4] = {boundDiv(Lo, O.Lo), boundDiv(Lo, O.Hi), boundDiv(Hi, O.Lo),
                  boundDiv(Hi, O.Hi)};
  return range(*std::min_element(C, C + 4), *std::max_element(C, C + 4));
}

Interval Interval::mod(const Interval &O) const {
  if (Empty || O.Empty)
    return empty();
  // |a % b| < |b| with the sign of the dividend (C semantics).
  int64_t MaxMag;
  if (isInf(O.Lo) || isInf(O.Hi))
    MaxMag = PosInf;
  else
    MaxMag = std::max(O.Lo == INT64_MIN ? PosInf : std::abs(O.Lo),
                      std::abs(O.Hi)) -
             1;
  Interval R = range(boundNeg(MaxMag), MaxMag);
  if (Lo >= 0)
    R = R.meet(atLeast(0));
  if (Hi <= 0)
    R = R.meet(atMost(0));
  return R;
}

TriBool Interval::cmpLt(const Interval &O) const {
  if (Empty || O.Empty)
    return TriBool::Unknown;
  // The sentinel encoding makes plain comparisons sound: kPosInf is never
  // strictly below anything, and kNegInf is never strictly above anything.
  if (Hi < O.Lo)
    return TriBool::True;
  if (Lo >= O.Hi)
    return TriBool::False;
  return TriBool::Unknown;
}

TriBool Interval::cmpLe(const Interval &O) const {
  // a <= b  ⟺  !(b < a)
  return triNot(O.cmpLt(*this));
}

TriBool Interval::cmpEq(const Interval &O) const {
  if (Empty || O.Empty)
    return TriBool::Unknown;
  if (isConstant() && O.isConstant() && Lo == O.Lo)
    return TriBool::True;
  if (meet(O).isEmpty())
    return TriBool::False;
  return TriBool::Unknown;
}

Interval Interval::clampLt(int64_t Bound) const {
  if (Bound == PosInf)
    return *this; // x < (unbounded) imposes nothing
  if (Bound == NegInf)
    return empty();
  return meet(atMost(Bound - 1));
}

Interval Interval::clampGt(int64_t Bound) const {
  if (Bound == NegInf)
    return *this;
  if (Bound == PosInf)
    return empty();
  return meet(atLeast(Bound + 1));
}

Interval Interval::clampNe(int64_t V) const {
  if (Empty || isInf(V))
    return *this;
  if (Lo == V && Hi == V)
    return empty();
  if (Lo == V)
    return range(V + 1, Hi);
  if (Hi == V)
    return range(Lo, V - 1);
  return *this;
}

uint64_t Interval::hash() const {
  if (Empty)
    return 0x9d5f3c1bULL;
  return hashValues(static_cast<uint64_t>(Lo), static_cast<uint64_t>(Hi));
}

std::string Interval::toString() const {
  if (Empty)
    return "⊥";
  std::ostringstream OS;
  OS << "[";
  if (Lo == NegInf)
    OS << "-oo";
  else
    OS << Lo;
  OS << ", ";
  if (Hi == PosInf)
    OS << "+oo";
  else
    OS << Hi;
  OS << "]";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// IntervalDomain
//===----------------------------------------------------------------------===//

namespace {

IntervalState bottomState() {
  IntervalState S;
  S.Bottom = true;
  return S;
}

VarAbs joinVar(const VarAbs &A, const VarAbs &B) {
  VarAbs R;
  R.Num = A.Num.join(B.Num);
  R.Len = A.Len.join(B.Len);
  R.Elems = A.Elems.join(B.Elems);
  return R;
}

VarAbs widenVar(const VarAbs &A, const VarAbs &B) {
  VarAbs R;
  R.Num = A.Num.widen(B.Num);
  R.Len = A.Len.widen(B.Len);
  R.Elems = A.Elems.widen(B.Elems);
  return R;
}

bool leqVar(const VarAbs &A, const VarAbs &B) {
  return B.Num.subsumes(A.Num) && B.Len.subsumes(A.Len) &&
         B.Elems.subsumes(A.Elems);
}

TriBool truth(const ExprPtr &E, const IntervalState &S);

/// Converts a three-valued truth to a 0/1 interval.
Interval triToInterval(TriBool T) {
  switch (T) {
  case TriBool::False: return Interval::constant(0);
  case TriBool::True: return Interval::constant(1);
  case TriBool::Unknown: return Interval::range(0, 1);
  }
  return Interval::range(0, 1);
}

VarAbs evalImpl(const ExprPtr &E, const IntervalState &S) {
  if (!E)
    return VarAbs::top();
  switch (E->Kind) {
  case ExprKind::IntLit:
    return VarAbs::numeric(Interval::constant(E->IntVal));
  case ExprKind::BoolLit:
    return VarAbs::numeric(Interval::constant(E->BoolVal ? 1 : 0));
  case ExprKind::NullLit:
    return VarAbs::top(); // null carries no numeric information
  case ExprKind::Var:
    return S.get(E->Name);
  case ExprKind::Unary: {
    if (E->UOp == UnaryOp::Neg)
      return VarAbs::numeric(evalImpl(E->Lhs, S).Num.neg());
    return VarAbs::numeric(triToInterval(triNot(truth(E->Lhs, S))));
  }
  case ExprKind::Binary: {
    switch (E->BOp) {
    case BinaryOp::Add:
      return VarAbs::numeric(evalImpl(E->Lhs, S).Num.add(evalImpl(E->Rhs, S).Num));
    case BinaryOp::Sub:
      return VarAbs::numeric(evalImpl(E->Lhs, S).Num.sub(evalImpl(E->Rhs, S).Num));
    case BinaryOp::Mul:
      return VarAbs::numeric(evalImpl(E->Lhs, S).Num.mul(evalImpl(E->Rhs, S).Num));
    case BinaryOp::Div:
      return VarAbs::numeric(evalImpl(E->Lhs, S).Num.div(evalImpl(E->Rhs, S).Num));
    case BinaryOp::Mod:
      return VarAbs::numeric(evalImpl(E->Lhs, S).Num.mod(evalImpl(E->Rhs, S).Num));
    default:
      return VarAbs::numeric(triToInterval(truth(E, S)));
    }
  }
  case ExprKind::ArrayLit: {
    VarAbs V;
    V.Num = Interval::top();
    V.Len = Interval::constant(static_cast<int64_t>(E->Elems.size()));
    Interval Summary = Interval::empty();
    for (const auto &Elem : E->Elems)
      Summary = Summary.join(evalImpl(Elem, S).Num);
    V.Elems = Summary;
    return V;
  }
  case ExprKind::Index:
    return VarAbs::numeric(evalImpl(E->Lhs, S).Elems);
  case ExprKind::FieldRead:
    if (E->Name == "length")
      return VarAbs::numeric(evalImpl(E->Lhs, S).Len);
    return VarAbs::top(); // .next et al.: not numeric
  }
  return VarAbs::top();
}

TriBool truth(const ExprPtr &E, const IntervalState &S) {
  if (!E)
    return TriBool::Unknown;
  switch (E->Kind) {
  case ExprKind::BoolLit:
    return E->BoolVal ? TriBool::True : TriBool::False;
  case ExprKind::IntLit:
    return E->IntVal != 0 ? TriBool::True : TriBool::False;
  case ExprKind::NullLit:
    return TriBool::False;
  case ExprKind::Var: {
    Interval I = S.get(E->Name).Num;
    if (I.isConstant())
      return I.contains(0) ? TriBool::False : TriBool::True;
    if (!I.contains(0) && !I.isEmpty() && !I.isTop())
      return TriBool::True;
    return TriBool::Unknown;
  }
  case ExprKind::Unary:
    if (E->UOp == UnaryOp::Not)
      return triNot(truth(E->Lhs, S));
    return TriBool::Unknown;
  case ExprKind::Binary: {
    // Null comparisons carry no interval information.
    if ((E->Lhs && E->Lhs->Kind == ExprKind::NullLit) ||
        (E->Rhs && E->Rhs->Kind == ExprKind::NullLit))
      return TriBool::Unknown;
    Interval L = evalImpl(E->Lhs, S).Num;
    Interval R = evalImpl(E->Rhs, S).Num;
    switch (E->BOp) {
    case BinaryOp::Lt: return L.cmpLt(R);
    case BinaryOp::Le: return L.cmpLe(R);
    case BinaryOp::Gt: return R.cmpLt(L);
    case BinaryOp::Ge: return R.cmpLe(L);
    case BinaryOp::Eq: return L.cmpEq(R);
    case BinaryOp::Ne: return triNot(L.cmpEq(R));
    case BinaryOp::And: return triAnd(truth(E->Lhs, S), truth(E->Rhs, S));
    case BinaryOp::Or: return triOr(truth(E->Lhs, S), truth(E->Rhs, S));
    default: return TriBool::Unknown;
    }
  }
  default:
    return TriBool::Unknown;
  }
}

/// Clamps the numeric abstraction of the *refinable* expression \p Target
/// (a variable or `a.length`) against bound interval \p Other under
/// comparison \p Op (Target Op Other). Returns false if the refinement
/// empties the value (state becomes ⊥).
bool refineSide(IntervalState &S, BinaryOp Op, const ExprPtr &Target,
                const Interval &Other) {
  if (!Target)
    return true;
  // Identify what we are refining: a variable's Num, or a variable's Len.
  std::string Var;
  bool IsLen = false;
  if (Target->Kind == ExprKind::Var) {
    Var = Target->Name;
  } else if (Target->Kind == ExprKind::FieldRead && Target->Name == "length" &&
             Target->Lhs && Target->Lhs->Kind == ExprKind::Var) {
    Var = Target->Lhs->Name;
    IsLen = true;
  } else {
    return true; // Not a refinable atom.
  }
  VarAbs V = S.get(Var);
  Interval &I = IsLen ? V.Len : V.Num;
  switch (Op) {
  case BinaryOp::Lt: I = I.clampLt(Other.hi()); break;
  case BinaryOp::Le: I = I.clampLe(Other.hi()); break;
  case BinaryOp::Gt: I = I.clampGt(Other.lo()); break;
  case BinaryOp::Ge: I = I.clampGe(Other.lo()); break;
  case BinaryOp::Eq: I = I.meet(Other); break;
  case BinaryOp::Ne:
    if (Other.isConstant())
      I = I.clampNe(Other.lo());
    break;
  default:
    return true;
  }
  if (I.isEmpty())
    return false;
  S.set(Var, V);
  return true;
}

BinaryOp flipCmp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt: return BinaryOp::Gt;
  case BinaryOp::Le: return BinaryOp::Ge;
  case BinaryOp::Gt: return BinaryOp::Lt;
  case BinaryOp::Ge: return BinaryOp::Le;
  default: return Op; // Eq/Ne are symmetric
  }
}

} // namespace

IntervalState IntervalDomain::bottom() { return bottomState(); }

IntervalState
IntervalDomain::initialEntry(const std::vector<std::string> &Params) {
  (void)Params; // Parameters are unknown (⊤) at an uncalled entry.
  return IntervalState();
}

VarAbs IntervalDomain::eval(const ExprPtr &E, const IntervalState &S) {
  if (S.Bottom)
    return VarAbs::numeric(Interval::empty());
  return evalImpl(E, S);
}

IntervalState IntervalDomain::assume(const IntervalState &In,
                                     const ExprPtr &Cond) {
  if (In.Bottom || !Cond)
    return In;
  switch (Cond->Kind) {
  case ExprKind::BoolLit:
    return Cond->BoolVal ? In : bottomState();
  case ExprKind::IntLit:
    return Cond->IntVal != 0 ? In : bottomState();
  case ExprKind::Unary:
    if (Cond->UOp == UnaryOp::Not)
      return assume(In, negate(Cond->Lhs));
    return In;
  case ExprKind::Var:
    // Truthiness: x != 0.
    return assume(In, Expr::mkBinary(BinaryOp::Ne, Cond, Expr::mkInt(0)));
  case ExprKind::Binary: {
    if (Cond->BOp == BinaryOp::And)
      return assume(assume(In, Cond->Lhs), Cond->Rhs);
    if (Cond->BOp == BinaryOp::Or)
      return join(assume(In, Cond->Lhs), assume(In, Cond->Rhs));
    if (!isComparison(Cond->BOp))
      return In;
    if (truth(Cond, In) == TriBool::False)
      return bottomState();
    // Null comparisons carry no interval information.
    if ((Cond->Lhs && Cond->Lhs->Kind == ExprKind::NullLit) ||
        (Cond->Rhs && Cond->Rhs->Kind == ExprKind::NullLit))
      return In;
    IntervalState Out = In;
    Interval L = evalImpl(Cond->Lhs, In).Num;
    Interval R = evalImpl(Cond->Rhs, In).Num;
    if (!refineSide(Out, Cond->BOp, Cond->Lhs, R))
      return bottomState();
    if (!refineSide(Out, flipCmp(Cond->BOp), Cond->Rhs, L))
      return bottomState();
    return Out;
  }
  default:
    return In;
  }
}

IntervalState IntervalDomain::transfer(const Stmt &S, const IntervalState &In) {
  if (In.Bottom)
    return In;
  IntervalState Out = In;
  switch (S.Kind) {
  case StmtKind::Skip:
  case StmtKind::Print:
  case StmtKind::FieldWrite: // Heap mutation: no numeric effect.
    return Out;
  case StmtKind::Alloc:
    Out.set(S.Lhs, VarAbs::top());
    return Out;
  case StmtKind::Assign:
    Out.set(S.Lhs, evalImpl(S.Rhs, In));
    return Out;
  case StmtKind::Assume:
  case StmtKind::Assert: // Execution aborts on failure, so e holds after.
    return assume(In, S.Rhs);
  case StmtKind::ArrayWrite: {
    VarAbs A = In.get(S.Lhs);
    A.Elems = A.Elems.join(evalImpl(S.Rhs, In).Num);
    Out.set(S.Lhs, A);
    return Out;
  }
  case StmtKind::Call:
    // Intraprocedural default: havoc the result. The interprocedural engine
    // replaces this with a demanded callee summary (Section 7.1).
    Out.set(S.Lhs, VarAbs::top());
    return Out;
  }
  return Out;
}

IntervalState IntervalDomain::join(const IntervalState &A,
                                   const IntervalState &B) {
  if (A.Bottom)
    return B;
  if (B.Bottom)
    return A;
  IntervalState R;
  // Absent = ⊤, so only variables bound in both sides stay bound.
  for (const auto &[Var, VA] : A.Env) {
    auto It = B.Env.find(Var);
    if (It != B.Env.end())
      R.set(Var, joinVar(VA, It->second));
  }
  return R;
}

IntervalState IntervalDomain::widen(const IntervalState &Prev,
                                    const IntervalState &Next) {
  if (Prev.Bottom)
    return Next;
  if (Next.Bottom)
    return Prev;
  IntervalState R;
  for (const auto &[Var, VP] : Prev.Env) {
    auto It = Next.Env.find(Var);
    if (It != Next.Env.end())
      R.set(Var, widenVar(VP, It->second));
  }
  return R;
}

bool IntervalDomain::leq(const IntervalState &A, const IntervalState &B) {
  if (A.Bottom)
    return true;
  if (B.Bottom)
    return false;
  for (const auto &[Var, VB] : B.Env)
    if (!leqVar(A.get(Var), VB))
      return false;
  return true;
}

bool IntervalDomain::equal(const IntervalState &A, const IntervalState &B) {
  if (A.Bottom || B.Bottom)
    return A.Bottom == B.Bottom;
  return A.Env == B.Env;
}

uint64_t IntervalDomain::hash(const IntervalState &A) {
  if (A.Bottom)
    return 0x707ea1b2c3d4e5f6ULL;
  uint64_t H = 0x1234abcd5678ef01ULL;
  for (const auto &[Var, V] : A.Env) {
    H = hashCombine(H, mix64(Var));
    H = hashCombine(H, mix64(V.Num.hash()));
    H = hashCombine(H, mix64(V.Len.hash()));
    H = hashCombine(H, mix64(V.Elems.hash()));
  }
  return H;
}

std::string IntervalDomain::toString(const IntervalState &A) {
  if (A.Bottom)
    return "⊥";
  std::ostringstream OS;
  OS << "{";
  bool First = true;
  for (const auto &[Var, V] : A.Env) {
    if (!First)
      OS << ", ";
    First = false;
    OS << symbolName(Var) << ": " << V.Num.toString();
    if (!V.Len.isTop())
      OS << " len" << V.Len.toString();
    if (!V.Elems.isTop())
      OS << " elems" << V.Elems.toString();
  }
  OS << "}";
  return OS.str();
}

IntervalState
IntervalDomain::enterCall(const IntervalState &Caller, const Stmt &CallSite,
                          const std::vector<std::string> &CalleeParams) {
  if (Caller.Bottom)
    return Caller;
  assert(CallSite.Kind == StmtKind::Call && "enterCall requires a call site");
  IntervalState Entry;
  for (size_t I = 0, E = CalleeParams.size(); I != E; ++I) {
    if (I < CallSite.Args.size())
      Entry.set(CalleeParams[I], evalImpl(CallSite.Args[I], Caller));
  }
  return Entry;
}

IntervalState IntervalDomain::exitCall(const IntervalState &Caller,
                                       const IntervalState &CalleeExit,
                                       const Stmt &CallSite) {
  if (Caller.Bottom)
    return Caller;
  if (CalleeExit.Bottom)
    return bottomState(); // The call never returns.
  assert(CallSite.Kind == StmtKind::Call && "exitCall requires a call site");
  IntervalState Out = Caller;
  // Arrays are passed by reference: the callee may have written elements,
  // but can never change a length (the statement language has no resize).
  for (const auto &Arg : CallSite.Args) {
    if (Arg && Arg->Kind == ExprKind::Var) {
      VarAbs V = Out.get(Arg->Name);
      if (!V.Elems.isTop()) {
        V.Elems = Interval::top();
        Out.set(Arg->Name, V);
      }
    }
  }
  Out.set(CallSite.Lhs, CalleeExit.get(RetVar));
  return Out;
}

//===----------------------------------------------------------------------===//
// Array-bounds verification client
//===----------------------------------------------------------------------===//

namespace {

void checkExprAccesses(const ExprPtr &E, const IntervalState &Pre,
                       ObligationSummary &Sum) {
  if (!E)
    return;
  if (E->Kind == ExprKind::Index) {
    ++Sum.Total;
    Interval Idx = evalImpl(E->Rhs, Pre).Num;
    Interval Len = evalImpl(E->Lhs, Pre).Len;
    bool InBounds = !Idx.isEmpty() && Idx.lo() >= 0 &&
                    Len.lo() != Interval::kNegInf && Len.lo() >= 1 &&
                    Idx.hi() != Interval::kPosInf && Idx.hi() <= Len.lo() - 1;
    if (InBounds)
      ++Sum.Verified;
  }
  checkExprAccesses(E->Lhs, Pre, Sum);
  checkExprAccesses(E->Rhs, Pre, Sum);
  for (const auto &Elem : E->Elems)
    checkExprAccesses(Elem, Pre, Sum);
}

} // namespace

ObligationSummary dai::checkArrayObligations(const IntervalState &Pre,
                                             const Stmt &S) {
  ObligationSummary Sum;
  if (Pre.Bottom) {
    // Unreachable code: obligations hold vacuously. Count accesses so totals
    // are stable across context policies.
    IntervalState Top;
    ObligationSummary Counted;
    checkExprAccesses(S.Index, Top, Counted);
    checkExprAccesses(S.Rhs, Top, Counted);
    for (const auto &A : S.Args)
      checkExprAccesses(A, Top, Counted);
    if (S.Kind == StmtKind::ArrayWrite)
      ++Counted.Total;
    Counted.Verified = Counted.Total;
    return Counted;
  }
  checkExprAccesses(S.Index, Pre, Sum);
  checkExprAccesses(S.Rhs, Pre, Sum);
  for (const auto &A : S.Args)
    checkExprAccesses(A, Pre, Sum);
  if (S.Kind == StmtKind::ArrayWrite) {
    ++Sum.Total;
    Interval Idx = IntervalDomain::eval(S.Index, Pre).Num;
    Interval Len = Pre.get(S.Lhs).Len;
    bool InBounds = !Idx.isEmpty() && Idx.lo() >= 0 &&
                    Len.lo() != Interval::kNegInf && Len.lo() >= 1 &&
                    Idx.hi() != Interval::kPosInf && Idx.hi() <= Len.lo() - 1;
    if (InBounds)
      ++Sum.Verified;
  }
  return Sum;
}
