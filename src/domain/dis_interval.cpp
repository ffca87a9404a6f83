//===-- domain/dis_interval.cpp - Disjunctive interval domain -------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "domain/dis_interval.h"

#include "cfg/program.h"
#include "support/hashing.h"
#include "support/statistics.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace dai;

namespace {

constexpr int64_t NegInf = Interval::kNegInf;
constexpr int64_t PosInf = Interval::kPosInf;

bool isInf(int64_t V) { return V == NegInf || V == PosInf; }

std::atomic<unsigned> MaxPartitions{4};

} // namespace

unsigned dai::disIntervalMaxPartitions() {
  return MaxPartitions.load(std::memory_order_relaxed);
}

void dai::setDisIntervalMaxPartitions(unsigned K) {
  MaxPartitions.store(K < 1 ? 1 : K, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// DisInterval
//===----------------------------------------------------------------------===//

DisInterval DisInterval::normalized(std::vector<Interval> Raw) {
  std::vector<Interval> Sorted;
  Sorted.reserve(Raw.size());
  for (const Interval &I : Raw)
    if (!I.isEmpty())
      Sorted.push_back(I);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Interval &A, const Interval &B) {
              return A.lo() != B.lo() ? A.lo() < B.lo() : A.hi() < B.hi();
            });
  // Merge overlapping and adjacent parts ({[0,1],[2,3]} has the same
  // concretization as [0,3]; canonical form keeps the gap-only invariant).
  std::vector<Interval> Out;
  for (const Interval &I : Sorted) {
    if (!Out.empty()) {
      Interval &Last = Out.back();
      // Last.lo <= I.lo by the sort; mergeable iff no gap of width >= 1.
      bool Mergeable =
          Last.hi() == PosInf || I.lo() <= Last.hi() ||
          (I.lo() != NegInf && I.lo() == Last.hi() + 1);
      if (Mergeable) {
        Last = Interval::range(Last.lo(), std::max(Last.hi(), I.hi()));
        continue;
      }
    }
    Out.push_back(I);
  }
  // Enforce the partition bound: merge the closest pair until within K.
  // Each forced merge is real precision lost to the bound — the gate metric.
  const unsigned K = disIntervalMaxPartitions();
  while (Out.size() > K) {
    size_t Best = 0;
    uint64_t BestGap = UINT64_MAX;
    for (size_t I = 0; I + 1 < Out.size(); ++I) {
      // Interior bounds are finite (only the first part may reach -oo and
      // only the last +oo), and Out[I+1].lo > Out[I].hi by disjointness, so
      // the unsigned difference is the true gap width.
      uint64_t Gap = static_cast<uint64_t>(Out[I + 1].lo()) -
                     static_cast<uint64_t>(Out[I].hi());
      if (Gap < BestGap) {
        BestGap = Gap;
        Best = I;
      }
    }
    Out[Best] =
        Interval::range(Out[Best].lo(), std::max(Out[Best].hi(), Out[Best + 1].hi()));
    Out.erase(Out.begin() + static_cast<ptrdiff_t>(Best) + 1);
    ++disIntervalCounters().PartitionsCollapsed;
  }
  DisInterval D;
  D.Parts = std::move(Out);
  return D;
}

bool DisInterval::contains(int64_t V) const {
  for (const Interval &P : Parts)
    if (P.contains(V))
      return true;
  return false;
}

Interval DisInterval::hull() const {
  if (Parts.empty())
    return Interval::empty();
  return Interval::range(Parts.front().lo(), Parts.back().hi());
}

bool DisInterval::subsumes(const DisInterval &O) const {
  // Every O-part must fit inside a single part here: parts are disjoint and
  // non-adjacent, so a convex O-part can never be covered by two of ours.
  for (const Interval &P : O.Parts) {
    bool Covered = false;
    for (const Interval &Q : Parts)
      if (Q.subsumes(P)) {
        Covered = true;
        break;
      }
    if (!Covered)
      return false;
  }
  return true;
}

DisInterval DisInterval::join(const DisInterval &O) const {
  std::vector<Interval> Raw = Parts;
  Raw.insert(Raw.end(), O.Parts.begin(), O.Parts.end());
  DisInterval R = normalized(std::move(Raw));
  if (R.Parts.size() >= 2)
    ++disIntervalCounters().DisjunctiveJoins;
  return R;
}

DisInterval DisInterval::meet(const DisInterval &O) const {
  std::vector<Interval> Raw;
  for (const Interval &A : Parts)
    for (const Interval &B : O.Parts) {
      Interval M = A.meet(B);
      if (!M.isEmpty())
        Raw.push_back(M);
    }
  return normalized(std::move(Raw));
}

DisInterval DisInterval::widen(const DisInterval &Next) const {
  if (Parts.empty())
    return Next;
  if (Next.Parts.empty())
    return *this;
  Interval HullW = hull().widen(Next.hull());
  if (Parts.size() != Next.Parts.size())
    return fromInterval(HullW);
  // Matched partition counts: widen pairwise, clamped by the hull widening
  // so the result never escapes what a plain interval would report. Covers
  // both arguments (pairwise interval widening does; the clamp is an upper
  // bound of both hulls) and terminates: once the hull widening stabilizes,
  // every bound either stays put or jumps to a hull-widened bound.
  std::vector<Interval> Raw;
  Raw.reserve(Parts.size());
  for (size_t I = 0, E = Parts.size(); I != E; ++I)
    Raw.push_back(Parts[I].widen(Next.Parts[I]).meet(HullW));
  return normalized(std::move(Raw));
}

DisInterval DisInterval::add(const DisInterval &O) const {
  std::vector<Interval> Raw;
  for (const Interval &A : Parts)
    for (const Interval &B : O.Parts)
      Raw.push_back(A.add(B));
  return normalized(std::move(Raw));
}

DisInterval DisInterval::sub(const DisInterval &O) const {
  return add(O.neg());
}

DisInterval DisInterval::neg() const {
  std::vector<Interval> Raw;
  for (const Interval &A : Parts)
    Raw.push_back(A.neg());
  return normalized(std::move(Raw));
}

DisInterval DisInterval::mul(const DisInterval &O) const {
  std::vector<Interval> Raw;
  for (const Interval &A : Parts)
    for (const Interval &B : O.Parts)
      Raw.push_back(A.mul(B));
  return normalized(std::move(Raw));
}

DisInterval DisInterval::div(const DisInterval &O) const {
  std::vector<Interval> Raw;
  for (const Interval &A : Parts)
    for (const Interval &B : O.Parts)
      Raw.push_back(A.div(B));
  return normalized(std::move(Raw));
}

DisInterval DisInterval::mod(const DisInterval &O) const {
  std::vector<Interval> Raw;
  for (const Interval &A : Parts)
    for (const Interval &B : O.Parts)
      Raw.push_back(A.mod(B));
  return normalized(std::move(Raw));
}

TriBool DisInterval::cmpLt(const DisInterval &O) const {
  // Hull-based, mirroring Interval::cmpLt exactly (gaps cannot sharpen a
  // strict order test beyond the hull bounds).
  if (Parts.empty() || O.Parts.empty())
    return TriBool::Unknown;
  return hull().cmpLt(O.hull());
}

TriBool DisInterval::cmpLe(const DisInterval &O) const {
  return triNot(O.cmpLt(*this));
}

TriBool DisInterval::cmpEq(const DisInterval &O) const {
  if (Parts.empty() || O.Parts.empty())
    return TriBool::Unknown;
  if (isConstant() && O.isConstant() &&
      Parts.front().lo() == O.Parts.front().lo())
    return TriBool::True;
  if (meet(O).isEmpty()) // Sharper than the hull: a gap refutes equality.
    return TriBool::False;
  return TriBool::Unknown;
}

DisInterval DisInterval::clampLe(int64_t Bound) const {
  std::vector<Interval> Raw;
  for (const Interval &P : Parts) {
    Interval C = P.clampLe(Bound);
    if (!C.isEmpty())
      Raw.push_back(C);
  }
  return normalized(std::move(Raw));
}

DisInterval DisInterval::clampGe(int64_t Bound) const {
  std::vector<Interval> Raw;
  for (const Interval &P : Parts) {
    Interval C = P.clampGe(Bound);
    if (!C.isEmpty())
      Raw.push_back(C);
  }
  return normalized(std::move(Raw));
}

DisInterval DisInterval::clampLt(int64_t Bound) const {
  if (Bound == PosInf)
    return *this;
  if (Bound == NegInf)
    return empty();
  return clampLe(Bound - 1);
}

DisInterval DisInterval::clampGt(int64_t Bound) const {
  if (Bound == NegInf)
    return *this;
  if (Bound == PosInf)
    return empty();
  return clampGe(Bound + 1);
}

DisInterval DisInterval::clampNe(int64_t V) const {
  if (Parts.empty() || isInf(V))
    return *this;
  std::vector<Interval> Raw;
  bool DidSplit = false;
  for (const Interval &P : Parts) {
    if (!P.contains(V)) {
      Raw.push_back(P);
      continue;
    }
    if (P.isConstant())
      continue; // {V} \ {V} = empty
    if (P.lo() == V) {
      Raw.push_back(Interval::range(V + 1, P.hi()));
    } else if (P.hi() == V) {
      Raw.push_back(Interval::range(P.lo(), V - 1));
    } else {
      // V strictly inside: split — the refinement a convex interval cannot
      // make (it would return the part unchanged).
      Raw.push_back(Interval::range(P.lo(), V - 1));
      Raw.push_back(Interval::range(V + 1, P.hi()));
      DidSplit = true;
    }
  }
  if (DidSplit)
    ++disIntervalCounters().PartitionSplits;
  return normalized(std::move(Raw));
}

uint64_t DisInterval::hash() const {
  uint64_t H = 0xd15a17e6b7c8d9e0ULL;
  for (const Interval &P : Parts)
    H = hashCombine(H, P.hash());
  return H;
}

std::string DisInterval::toString() const {
  if (Parts.empty())
    return "⊥";
  std::ostringstream OS;
  bool First = true;
  for (const Interval &P : Parts) {
    if (!First)
      OS << " ∪ ";
    First = false;
    OS << P.toString();
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// DisIntervalDomain
//===----------------------------------------------------------------------===//

namespace {

DisIntervalState disBottomState() {
  DisIntervalState S;
  S.Bottom = true;
  return S;
}

DisVarAbs joinVar(const DisVarAbs &A, const DisVarAbs &B) {
  DisVarAbs R;
  R.Num = A.Num.join(B.Num);
  R.Len = A.Len.join(B.Len);
  R.Elems = A.Elems.join(B.Elems);
  return R;
}

DisVarAbs widenVar(const DisVarAbs &A, const DisVarAbs &B) {
  DisVarAbs R;
  R.Num = A.Num.widen(B.Num);
  R.Len = A.Len.widen(B.Len);
  R.Elems = A.Elems.widen(B.Elems);
  return R;
}

bool leqVar(const DisVarAbs &A, const DisVarAbs &B) {
  return B.Num.subsumes(A.Num) && B.Len.subsumes(A.Len) &&
         B.Elems.subsumes(A.Elems);
}

TriBool truth(const ExprPtr &E, const DisIntervalState &S);

DisInterval triToDis(TriBool T) {
  switch (T) {
  case TriBool::False: return DisInterval::constant(0);
  case TriBool::True: return DisInterval::constant(1);
  case TriBool::Unknown: return DisInterval::fromInterval(Interval::range(0, 1));
  }
  return DisInterval::fromInterval(Interval::range(0, 1));
}

DisVarAbs evalImpl(const ExprPtr &E, const DisIntervalState &S) {
  if (!E)
    return DisVarAbs::top();
  switch (E->Kind) {
  case ExprKind::IntLit:
    return DisVarAbs::numeric(DisInterval::constant(E->IntVal));
  case ExprKind::BoolLit:
    return DisVarAbs::numeric(DisInterval::constant(E->BoolVal ? 1 : 0));
  case ExprKind::NullLit:
    return DisVarAbs::top();
  case ExprKind::Var:
    return S.get(E->Name);
  case ExprKind::Unary: {
    if (E->UOp == UnaryOp::Neg)
      return DisVarAbs::numeric(evalImpl(E->Lhs, S).Num.neg());
    return DisVarAbs::numeric(triToDis(triNot(truth(E->Lhs, S))));
  }
  case ExprKind::Binary: {
    switch (E->BOp) {
    case BinaryOp::Add:
      return DisVarAbs::numeric(
          evalImpl(E->Lhs, S).Num.add(evalImpl(E->Rhs, S).Num));
    case BinaryOp::Sub:
      return DisVarAbs::numeric(
          evalImpl(E->Lhs, S).Num.sub(evalImpl(E->Rhs, S).Num));
    case BinaryOp::Mul:
      return DisVarAbs::numeric(
          evalImpl(E->Lhs, S).Num.mul(evalImpl(E->Rhs, S).Num));
    case BinaryOp::Div:
      return DisVarAbs::numeric(
          evalImpl(E->Lhs, S).Num.div(evalImpl(E->Rhs, S).Num));
    case BinaryOp::Mod:
      return DisVarAbs::numeric(
          evalImpl(E->Lhs, S).Num.mod(evalImpl(E->Rhs, S).Num));
    default:
      return DisVarAbs::numeric(triToDis(truth(E, S)));
    }
  }
  case ExprKind::ArrayLit: {
    DisVarAbs V;
    V.Num = DisInterval::top();
    V.Len = Interval::constant(static_cast<int64_t>(E->Elems.size()));
    Interval Summary = Interval::empty();
    for (const auto &Elem : E->Elems)
      Summary = Summary.join(evalImpl(Elem, S).Num.hull());
    V.Elems = Summary;
    return V;
  }
  case ExprKind::Index:
    return DisVarAbs::numeric(
        DisInterval::fromInterval(evalImpl(E->Lhs, S).Elems));
  case ExprKind::FieldRead:
    if (E->Name == "length")
      return DisVarAbs::numeric(
          DisInterval::fromInterval(evalImpl(E->Lhs, S).Len));
    return DisVarAbs::top();
  }
  return DisVarAbs::top();
}

TriBool truth(const ExprPtr &E, const DisIntervalState &S) {
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
    DisInterval I = S.get(E->Name).Num;
    if (I.isConstant())
      return I.contains(0) ? TriBool::False : TriBool::True;
    // A gap over 0 decides truthiness where the hull cannot.
    if (!I.contains(0) && !I.isEmpty() && !I.isTop())
      return TriBool::True;
    return TriBool::Unknown;
  }
  case ExprKind::Unary:
    if (E->UOp == UnaryOp::Not)
      return triNot(truth(E->Lhs, S));
    return TriBool::Unknown;
  case ExprKind::Binary: {
    if ((E->Lhs && E->Lhs->Kind == ExprKind::NullLit) ||
        (E->Rhs && E->Rhs->Kind == ExprKind::NullLit))
      return TriBool::Unknown;
    DisInterval L = evalImpl(E->Lhs, S).Num;
    DisInterval R = evalImpl(E->Rhs, S).Num;
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

/// Clamps the refinable atom \p Target (a variable or `a.length`) against
/// \p Other under comparison \p Op. Returns false if the refinement empties
/// the value (state becomes ⊥). Mirrors interval.cpp's refineSide; the Num
/// side uses disjunctive refinements (Eq meets the full partition list, Ne
/// splits interiors).
bool refineSide(DisIntervalState &S, BinaryOp Op, const ExprPtr &Target,
                const DisInterval &Other) {
  if (!Target)
    return true;
  std::string Var;
  bool IsLen = false;
  if (Target->Kind == ExprKind::Var) {
    Var = Target->Name;
  } else if (Target->Kind == ExprKind::FieldRead && Target->Name == "length" &&
             Target->Lhs && Target->Lhs->Kind == ExprKind::Var) {
    Var = Target->Lhs->Name;
    IsLen = true;
  } else {
    return true;
  }
  DisVarAbs V = S.get(Var);
  Interval OtherHull = Other.hull();
  if (IsLen) {
    Interval &I = V.Len;
    switch (Op) {
    case BinaryOp::Lt: I = I.clampLt(OtherHull.hi()); break;
    case BinaryOp::Le: I = I.clampLe(OtherHull.hi()); break;
    case BinaryOp::Gt: I = I.clampGt(OtherHull.lo()); break;
    case BinaryOp::Ge: I = I.clampGe(OtherHull.lo()); break;
    case BinaryOp::Eq: I = I.meet(OtherHull); break;
    case BinaryOp::Ne:
      if (OtherHull.isConstant())
        I = I.clampNe(OtherHull.lo());
      break;
    default:
      return true;
    }
    if (I.isEmpty())
      return false;
  } else {
    DisInterval &I = V.Num;
    switch (Op) {
    case BinaryOp::Lt: I = I.clampLt(OtherHull.hi()); break;
    case BinaryOp::Le: I = I.clampLe(OtherHull.hi()); break;
    case BinaryOp::Gt: I = I.clampGt(OtherHull.lo()); break;
    case BinaryOp::Ge: I = I.clampGe(OtherHull.lo()); break;
    case BinaryOp::Eq: I = I.meet(Other); break;
    case BinaryOp::Ne:
      if (Other.isConstant())
        I = I.clampNe(OtherHull.lo());
      break;
    default:
      return true;
    }
    if (I.isEmpty())
      return false;
  }
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

IntervalState DisIntervalState::hullState() const {
  IntervalState S;
  S.Bottom = Bottom;
  if (Bottom)
    return S;
  for (const auto &[Var, V] : Env) {
    VarAbs H;
    H.Num = V.Num.hull();
    H.Len = V.Len;
    H.Elems = V.Elems;
    S.set(Var, H);
  }
  return S;
}

DisIntervalState DisIntervalDomain::bottom() { return disBottomState(); }

DisIntervalState
DisIntervalDomain::initialEntry(const std::vector<std::string> &Params) {
  (void)Params; // Parameters are unknown (⊤) at an uncalled entry.
  return DisIntervalState();
}

DisVarAbs DisIntervalDomain::eval(const ExprPtr &E,
                                  const DisIntervalState &S) {
  if (S.Bottom)
    return DisVarAbs::numeric(DisInterval::empty());
  return evalImpl(E, S);
}

DisIntervalState DisIntervalDomain::assume(const DisIntervalState &In,
                                           const ExprPtr &Cond) {
  if (In.Bottom || !Cond)
    return In;
  switch (Cond->Kind) {
  case ExprKind::BoolLit:
    return Cond->BoolVal ? In : disBottomState();
  case ExprKind::IntLit:
    return Cond->IntVal != 0 ? In : disBottomState();
  case ExprKind::Unary:
    if (Cond->UOp == UnaryOp::Not)
      return assume(In, negate(Cond->Lhs));
    return In;
  case ExprKind::Var:
    return assume(In, Expr::mkBinary(BinaryOp::Ne, Cond, Expr::mkInt(0)));
  case ExprKind::Binary: {
    if (Cond->BOp == BinaryOp::And)
      return assume(assume(In, Cond->Lhs), Cond->Rhs);
    if (Cond->BOp == BinaryOp::Or)
      // The payoff join: each disjunct's refinement survives as its own
      // partition (up to K) instead of being hulled away.
      return join(assume(In, Cond->Lhs), assume(In, Cond->Rhs));
    if (!isComparison(Cond->BOp))
      return In;
    if (truth(Cond, In) == TriBool::False)
      return disBottomState();
    if ((Cond->Lhs && Cond->Lhs->Kind == ExprKind::NullLit) ||
        (Cond->Rhs && Cond->Rhs->Kind == ExprKind::NullLit))
      return In;
    DisIntervalState Out = In;
    DisInterval L = evalImpl(Cond->Lhs, In).Num;
    DisInterval R = evalImpl(Cond->Rhs, In).Num;
    if (!refineSide(Out, Cond->BOp, Cond->Lhs, R))
      return disBottomState();
    if (!refineSide(Out, flipCmp(Cond->BOp), Cond->Rhs, L))
      return disBottomState();
    return Out;
  }
  default:
    return In;
  }
}

DisIntervalState DisIntervalDomain::transfer(const Stmt &S,
                                             const DisIntervalState &In) {
  if (In.Bottom)
    return In;
  DisIntervalState Out = In;
  switch (S.Kind) {
  case StmtKind::Skip:
  case StmtKind::Print:
  case StmtKind::FieldWrite: // Heap mutation: no numeric effect.
    return Out;
  case StmtKind::Alloc:
    Out.set(S.Lhs, DisVarAbs::top());
    return Out;
  case StmtKind::Assign:
    Out.set(S.Lhs, evalImpl(S.Rhs, In));
    return Out;
  case StmtKind::Assume:
  case StmtKind::Assert: // Execution aborts on failure, so e holds after.
    return assume(In, S.Rhs);
  case StmtKind::ArrayWrite: {
    DisVarAbs A = In.get(S.Lhs);
    A.Elems = A.Elems.join(evalImpl(S.Rhs, In).Num.hull());
    Out.set(S.Lhs, A);
    return Out;
  }
  case StmtKind::Call:
    // Intraprocedural default: havoc the result. The interprocedural engine
    // replaces this with a demanded callee summary.
    Out.set(S.Lhs, DisVarAbs::top());
    return Out;
  }
  return Out;
}

DisIntervalState DisIntervalDomain::join(const DisIntervalState &A,
                                         const DisIntervalState &B) {
  if (A.Bottom)
    return B;
  if (B.Bottom)
    return A;
  DisIntervalState R;
  // Absent = ⊤, so only variables bound in both sides stay bound.
  for (const auto &[Var, VA] : A.Env) {
    auto It = B.Env.find(Var);
    if (It != B.Env.end())
      R.set(Var, joinVar(VA, It->second));
  }
  return R;
}

DisIntervalState DisIntervalDomain::widen(const DisIntervalState &Prev,
                                          const DisIntervalState &Next) {
  if (Prev.Bottom)
    return Next;
  if (Next.Bottom)
    return Prev;
  DisIntervalState R;
  for (const auto &[Var, VP] : Prev.Env) {
    auto It = Next.Env.find(Var);
    if (It != Next.Env.end())
      R.set(Var, widenVar(VP, It->second));
  }
  return R;
}

bool DisIntervalDomain::leq(const DisIntervalState &A,
                            const DisIntervalState &B) {
  if (A.Bottom)
    return true;
  if (B.Bottom)
    return false;
  for (const auto &[Var, VB] : B.Env)
    if (!leqVar(A.get(Var), VB))
      return false;
  return true;
}

bool DisIntervalDomain::equal(const DisIntervalState &A,
                              const DisIntervalState &B) {
  if (A.Bottom || B.Bottom)
    return A.Bottom == B.Bottom;
  return A.Env == B.Env;
}

uint64_t DisIntervalDomain::hash(const DisIntervalState &A) {
  if (A.Bottom)
    return 0xd15b0770a1b2c3d4ULL;
  uint64_t H = 0x5eedface90217f3bULL;
  for (const auto &[Var, V] : A.Env) {
    H = hashCombine(H, mix64(Var));
    H = hashCombine(H, mix64(V.Num.hash()));
    H = hashCombine(H, mix64(V.Len.hash()));
    H = hashCombine(H, mix64(V.Elems.hash()));
  }
  return H;
}

std::string DisIntervalDomain::toString(const DisIntervalState &A) {
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

DisIntervalState
DisIntervalDomain::enterCall(const DisIntervalState &Caller,
                             const Stmt &CallSite,
                             const std::vector<std::string> &CalleeParams) {
  if (Caller.Bottom)
    return Caller;
  assert(CallSite.Kind == StmtKind::Call && "enterCall requires a call site");
  DisIntervalState Entry;
  for (size_t I = 0, E = CalleeParams.size(); I != E; ++I) {
    if (I < CallSite.Args.size())
      Entry.set(CalleeParams[I], evalImpl(CallSite.Args[I], Caller));
  }
  return Entry;
}

DisIntervalState DisIntervalDomain::exitCall(const DisIntervalState &Caller,
                                             const DisIntervalState &CalleeExit,
                                             const Stmt &CallSite) {
  if (Caller.Bottom)
    return Caller;
  if (CalleeExit.Bottom)
    return disBottomState(); // The call never returns.
  assert(CallSite.Kind == StmtKind::Call && "exitCall requires a call site");
  DisIntervalState Out = Caller;
  // Arrays are passed by reference: the callee may have written elements,
  // but can never change a length (the statement language has no resize).
  for (const auto &Arg : CallSite.Args) {
    if (Arg && Arg->Kind == ExprKind::Var) {
      DisVarAbs V = Out.get(Arg->Name);
      if (!V.Elems.isTop()) {
        V.Elems = Interval::top();
        Out.set(Arg->Name, V);
      }
    }
  }
  Out.set(CallSite.Lhs, CalleeExit.get(RetVar));
  return Out;
}
