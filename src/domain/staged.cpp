//===-- domain/staged.cpp - Staged zone→octagon domain --------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "domain/staged.h"

#include "domain/linear.h"
#include "support/budget.h"
#include "support/hashing.h"

#include <sstream>

using namespace dai;

namespace {

constexpr size_t npos = static_cast<size_t>(-1);

bool &escalationFlag() {
  static thread_local bool On = false;
  return On;
}

/// Budget degradation gate for NEW escalations: while the active budget is
/// soft- or hard-degraded, zone-only values stay zone-only even when
/// escalation mode or an octagonal guard asks for the octagon tier — the
/// staged domain drops to its cheap tier. Values that ALREADY carry an
/// octagon tier keep it (dropping committed precision saves nothing and
/// would break the dual-tier lockstep of escalated slices). A suppressed
/// escalation raises the budget taint so the evaluating DAIG cell is
/// recorded with degraded provenance — queries over it report as degraded
/// rather than silently answering with zone precision.
bool suppressEscalation(bool WantDual, bool HaveTier) {
  if (!WantDual || HaveTier || !budgetDegraded())
    return false;
  budgetState().TaintPending = true;
  return true;
}

/// The octagon tier of \p V, materializing a seed from the zone when the
/// value is zone-only. \p Storage keeps a materialized seed alive for the
/// caller's scope. Sets \p WasSeeded when a seed was materialized.
const Octagon &effectiveOct(const Staged &V, Octagon &Storage,
                            bool &WasSeeded) {
  if (V.escalated())
    return *V.Oct;
  Storage = seedOctagonFromZone(V.Z);
  WasSeeded = true;
  return Storage;
}

/// Octagon-⊥ collapse + octagon→zone unary reduction (see the reduction
/// discipline in staged.h). Keeps the ⊥ canonical-form invariant. Must NOT
/// run on widening results.
void reduce(Staged &V) {
  if (V.Z.isBottom()) {
    V = StagedDomain::bottom();
    return;
  }
  if (!V.Oct)
    return;
  if (OctagonDomain::isBottom(*V.Oct)) {
    V = StagedDomain::bottom();
    return;
  }
  const Octagon &OC = V.Oct->closedView();
  for (SymbolId S : OC.vars()) {
    Interval B = OC.boundsOf(S);
    if (B.isTop())
      continue;
    if (V.Z.varIndex(S) == npos)
      V.Z.addVar(S);
    if (B.hi() != Interval::kPosInf)
      V.Z.addUpperBound(S, B.hi());
    if (!V.Z.isBottom() && B.lo() != Interval::kNegInf)
      V.Z.addLowerBound(S, B.lo());
    if (V.Z.isBottom()) {
      // The tiers' facts are jointly infeasible: each over-approximates
      // the same concrete set, so that set is empty.
      V = StagedDomain::bottom();
      return;
    }
  }
}

/// Shared dual-tier application core of transfer() and assume(): runs the
/// per-tier functions, seeding the octagon when a zone-only input must
/// escalate, and OWNS the work counters and the reduction — every
/// octagon-tier evaluation is visible to the gate metric
/// (StagedCounters::EscalatedTransfers) no matter which entry point ran
/// it, and the two paths cannot drift.
template <typename ZoneFn, typename OctFn>
Staged applyTiered(const Staged &In, bool Dual, ZoneFn &&ZF, OctFn &&OF) {
  Staged Out;
  Out.Z = ZF(In.Z);
  if (!Dual) {
    ++stagedCounters().ZoneTransfers;
    return Out;
  }
  ++stagedCounters().EscalatedTransfers;
  TraceSpan Tsp("staged.escalated_transfer");
  Octagon SeedStorage;
  bool WasSeeded = false;
  const Octagon &OctIn = effectiveOct(In, SeedStorage, WasSeeded);
  Out.Oct = std::make_shared<Octagon>(OF(OctIn));
  Out.Seeded = In.Seeded || WasSeeded;
  reduce(Out);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Seeding and guard classification
//===----------------------------------------------------------------------===//

Octagon dai::seedOctagonFromZone(const Zone &Zv) {
  if (Zv.isBottom())
    return Octagon::bottomValue();
  ++stagedCounters().OctSeeds;
  TraceSpan Sp("staged.seed_octagon");
  const Zone &C = Zv.closedView();
  Octagon O;
  O.addVars(C.vars()); // unconstrained dimensions keep the fresh ⊤ closed
  std::vector<size_t> Touched;
  auto touch = [&Touched](size_t Idx) {
    Touched.push_back(Idx); // closeIncrementalMulti deduplicates
  };
  C.forEachConstraint([&](SymbolId U, SymbolId V, int64_t W) {
    // Edge u→v encodes x_v − x_u ≤ W; kNoSymbol is the zero vertex.
    if (U == kNoSymbol) { // x_v ≤ W
      size_t I = O.varIndex(V);
      O.addConstraint(I, /*PosX=*/true, npos, true, W);
      touch(I);
    } else if (V == kNoSymbol) { // −x_u ≤ W
      size_t I = O.varIndex(U);
      O.addConstraint(I, /*PosX=*/false, npos, true, W);
      touch(I);
    } else { // x_v − x_u ≤ W
      size_t I = O.varIndex(V), J = O.varIndex(U);
      O.addConstraint(I, /*PosX=*/true, J, /*PosY=*/false, W);
      touch(I);
      touch(J);
    }
  });
  // The seed started closed (⊤ plus neutral dimensions) and every added
  // constraint touched a variable in Touched, so one k-pivot batch sweep
  // restores strong closure exactly. A feasible zone cannot seed ⊥.
  O.closeIncrementalMulti(Touched);
  assert(!O.isBottom() && "feasible zone seeded an empty octagon");
  return O;
}

bool dai::guardNeedsOctagon(const ExprPtr &Cond) {
  if (!Cond)
    return false;
  switch (Cond->Kind) {
  case ExprKind::Unary:
    // Classify the NEGATED guard, exactly as both tiers' assume() will
    // evaluate it: ¬(x + y == c) becomes a Ne atom, which falls back to
    // intervals in BOTH tiers and must not escalate, while ¬(x + y ≤ c)
    // becomes an octagonal Gt.
    return Cond->UOp == UnaryOp::Not && guardNeedsOctagon(negate(Cond->Lhs));
  case ExprKind::Binary: {
    if (Cond->BOp == BinaryOp::And || Cond->BOp == BinaryOp::Or)
      return guardNeedsOctagon(Cond->Lhs) || guardNeedsOctagon(Cond->Rhs);
    if (!isComparison(Cond->BOp) || Cond->BOp == BinaryOp::Ne)
      return false; // Ne falls back to intervals in BOTH tiers
    LinForm L = linearize(Cond->Lhs), R = linearize(Cond->Rhs);
    if (!L.Ok || !R.Ok)
      return false;
    LinForm Diff = L.plus(R, -1);
    if (Diff.Coeffs.size() != 2)
      return false;
    auto It = Diff.Coeffs.begin();
    auto It2 = std::next(It);
    // Unit coefficients of the SAME sign: ±(x + y) ≤ c — octagonal, and
    // exactly the shape zone's addLinearLeqZero rejects.
    if (It->second != It2->second)
      return false;
    return It->second == 1 || It->second == -1;
  }
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Readers
//===----------------------------------------------------------------------===//

Interval Staged::boundsOf(SymbolId Sym) const {
  if (Z.isBottom())
    return Interval::empty();
  Interval B = Z.closedView().boundsOf(Sym);
  if (!escalated())
    return B;
  const Octagon &OC = Oct->closedView();
  if (OC.isBottom())
    return Interval::empty();
  return B.meet(OC.boundsOf(Sym));
}

Interval Staged::boundsOf(const std::string &Var) const {
  SymbolId Sym = lookupSymbol(Var);
  return Sym == kNoSymbol
             ? (Z.isBottom() ? Interval::empty() : Interval::top())
             : boundsOf(Sym);
}

Interval Staged::sumBounds(SymbolId X, SymbolId Y) const {
  ++stagedCounters().SumQueries;
  if (Z.isBottom())
    return Interval::empty();
  if (escalated()) {
    const Octagon &OC = Oct->closedView();
    if (OC.isBottom())
      return Interval::empty();
    // The octagon tier alone: under the full-escalation protocol this is
    // the pure-octagon answer (meeting in the zone's interval sum could
    // only return something TIGHTER than a pure octagon run, which the
    // bench's lockstep verification would flag as divergence).
    return OC.sumBounds(X, Y);
  }
  const Zone &CZ = Z.closedView();
  return CZ.boundsOf(X).add(CZ.boundsOf(Y)); // zone-tier degraded answer
}

Interval Staged::diffBounds(SymbolId X, SymbolId Y) const {
  if (Z.isBottom())
    return Interval::empty();
  const Zone &CZ = Z.closedView();
  int64_t Up = CZ.constraintOn(Y, X); // x − y ≤ Up
  int64_t Dn = CZ.constraintOn(X, Y); // y − x ≤ Dn
  Interval B = Interval::range(
      Dn == Zone::kPosInf ? Interval::kNegInf : -Dn,
      Up == Zone::kPosInf ? Interval::kPosInf : Up);
  if (!escalated())
    return B;
  const Octagon &OC = Oct->closedView();
  if (OC.isBottom())
    return Interval::empty();
  return B.meet(OC.diffBounds(X, Y));
}

std::string Staged::toString() const {
  if (Z.isBottom())
    return "⊥";
  std::ostringstream OS;
  OS << "zone:" << ZoneDomain::toString(Z);
  if (escalated())
    OS << " ⋉ oct:" << OctagonDomain::toString(*Oct);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// StagedDomain
//===----------------------------------------------------------------------===//

static_assert(AbstractDomain<StagedDomain>,
              "StagedDomain must satisfy the Section 3 domain concept");

bool StagedDomain::escalationEnabled() { return escalationFlag(); }
void StagedDomain::setEscalation(bool On) { escalationFlag() = On; }

Staged StagedDomain::bottom() {
  Staged V;
  V.Z = Zone::bottomValue();
  return V;
}

bool StagedDomain::isBottom(const Elem &A) {
  // ⊥ is canonical (see Staged's invariant): the zone flag is the answer.
  return A.Z.isBottom();
}

Staged StagedDomain::initialEntry(const std::vector<std::string> &Params) {
  Staged V;
  V.Z = ZoneDomain::initialEntry(Params);
  if (escalationEnabled() &&
      !suppressEscalation(/*WantDual=*/true, /*HaveTier=*/false))
    V.Oct =
        std::make_shared<Octagon>(OctagonDomain::initialEntry(Params));
  return V;
}

Staged StagedDomain::transfer(const Stmt &S, const Elem &In) {
  if (In.Z.isBottom())
    return bottom();
  bool Dual = In.escalated() || escalationEnabled() ||
              ((S.Kind == StmtKind::Assume || S.Kind == StmtKind::Assert) &&
               guardNeedsOctagon(S.Rhs));
  if (suppressEscalation(Dual, In.escalated()))
    Dual = false;
  return applyTiered(
      In, Dual, [&](const Zone &Z) { return ZoneDomain::transfer(S, Z); },
      [&](const Octagon &O) { return OctagonDomain::transfer(S, O); });
}

Staged StagedDomain::assume(const Elem &In, const ExprPtr &Cond) {
  if (In.Z.isBottom())
    return bottom();
  bool Dual =
      In.escalated() || escalationEnabled() || guardNeedsOctagon(Cond);
  if (suppressEscalation(Dual, In.escalated()))
    Dual = false;
  return applyTiered(
      In, Dual, [&](const Zone &Z) { return ZoneDomain::assume(Z, Cond); },
      [&](const Octagon &O) { return OctagonDomain::assume(O, Cond); });
}

Staged StagedDomain::join(const Elem &A, const Elem &B) {
  if (A.Z.isBottom())
    return B;
  if (B.Z.isBottom())
    return A;
  Staged Out;
  Out.Z = ZoneDomain::join(A.Z, B.Z);
  bool Dual = A.escalated() || B.escalated() || escalationEnabled();
  if (suppressEscalation(Dual, A.escalated() || B.escalated()))
    Dual = false;
  if (!Dual)
    return Out;
  Octagon SA, SB;
  bool SeededA = false, SeededB = false;
  const Octagon &OA = effectiveOct(A, SA, SeededA);
  const Octagon &OB = effectiveOct(B, SB, SeededB);
  Out.Oct = std::make_shared<Octagon>(OctagonDomain::join(OA, OB));
  Out.Seeded = A.Seeded || B.Seeded || SeededA || SeededB;
  reduce(Out);
  return Out;
}

Staged StagedDomain::widen(const Elem &Prev, const Elem &Next) {
  if (Prev.Z.isBottom())
    return Next;
  if (Next.Z.isBottom())
    return Prev;
  Staged Out;
  Out.Z = ZoneDomain::widen(Prev.Z, Next.Z);
  bool Dual = Prev.escalated() || Next.escalated() || escalationEnabled();
  if (suppressEscalation(Dual, Prev.escalated() || Next.escalated()))
    Dual = false;
  if (!Dual) {
    Out.Seeded = false;
    return Out;
  }
  Octagon SP, SN;
  bool SeededP = false, SeededN = false;
  const Octagon &OP = effectiveOct(Prev, SP, SeededP);
  const Octagon &ON = effectiveOct(Next, SN, SeededN);
  Out.Oct = std::make_shared<Octagon>(OctagonDomain::widen(OP, ON));
  Out.Seeded = Prev.Seeded || Next.Seeded || SeededP || SeededN;
  // NO reduction on widening results: importing octagon bounds back into
  // the freshly widened zone would re-tighten edges the widening just
  // dropped and defeat convergence (and widening of non-⊥ arguments
  // cannot produce ⊥, so no collapse is needed either).
  return Out;
}

bool StagedDomain::leq(const Elem &A, const Elem &B) {
  if (A.Z.isBottom())
    return true;
  if (B.Z.isBottom())
    return false;
  if (!ZoneDomain::leq(A.Z, B.Z))
    return false;
  if (!B.escalated())
    return true; // γ(B) is its zone tier; γ(A) ⊆ γ(A.Z) ⊆ γ(B.Z)
  Octagon SA;
  bool SeededA = false;
  const Octagon &OA = effectiveOct(A, SA, SeededA);
  return OctagonDomain::leq(OA, *B.Oct);
}

bool StagedDomain::equal(const Elem &A, const Elem &B) {
  // Escalation status AND seeding provenance are part of the value's
  // identity (finer than pure semantic equality, which keeps hash()
  // consistent and costs at most a few extra fix iterations while a
  // loop's status stabilizes — both flags propagate monotonically).
  //
  // Like every D::equal, this must stay reflexive on copies: the escalated
  // tier shares its Octagon behind a copy-on-write pointer, so a value and
  // its copy may alias the same Oct — the dereference below is only safe
  // because escalated() implies Oct is non-null on BOTH sides, which the
  // flag check above guarantees for same-origin values. Cross-domain
  // comparisons never reach here: the type-erased AnyDomain::equal returns
  // false before dispatching when the operands' domains differ.
  if (A.escalated() != B.escalated() || A.Seeded != B.Seeded)
    return false;
  if (!ZoneDomain::equal(A.Z, B.Z))
    return false;
  return !A.escalated() || OctagonDomain::equal(*A.Oct, *B.Oct);
}

uint64_t StagedDomain::hash(const Elem &A) {
  uint64_t H = ZoneDomain::hash(A.Z);
  if (A.escalated())
    H = hashCombine(hashCombine(H, 0x57a6edULL),
                    OctagonDomain::hash(*A.Oct));
  if (A.Seeded)
    H = hashCombine(H, 0x5eededULL);
  return H;
}

std::string StagedDomain::toString(const Elem &A) { return A.toString(); }

Staged StagedDomain::enterCall(const Elem &Caller, const Stmt &CallSite,
                               const std::vector<std::string> &CalleeParams) {
  if (Caller.Z.isBottom())
    return bottom();
  Staged Out;
  Out.Z = ZoneDomain::enterCall(Caller.Z, CallSite, CalleeParams);
  bool Dual = Caller.escalated() || escalationEnabled();
  if (suppressEscalation(Dual, Caller.escalated()))
    Dual = false;
  if (!Dual)
    return Out;
  Octagon SC;
  bool WasSeeded = false;
  const Octagon &OC = effectiveOct(Caller, SC, WasSeeded);
  Out.Oct = std::make_shared<Octagon>(
      OctagonDomain::enterCall(OC, CallSite, CalleeParams));
  Out.Seeded = Caller.Seeded || WasSeeded;
  reduce(Out);
  return Out;
}

Staged StagedDomain::exitCall(const Elem &Caller, const Elem &CalleeExit,
                              const Stmt &CallSite) {
  if (Caller.Z.isBottom() || CalleeExit.Z.isBottom())
    return bottom();
  Staged Out;
  Out.Z = ZoneDomain::exitCall(Caller.Z, CalleeExit.Z, CallSite);
  bool Dual = Caller.escalated() || CalleeExit.escalated() ||
              escalationEnabled();
  if (suppressEscalation(Dual, Caller.escalated() || CalleeExit.escalated()))
    Dual = false;
  if (!Dual)
    return Out;
  Octagon SC, SE;
  bool SeededC = false, SeededE = false;
  const Octagon &OC = effectiveOct(Caller, SC, SeededC);
  const Octagon &OE = effectiveOct(CalleeExit, SE, SeededE);
  Out.Oct = std::make_shared<Octagon>(
      OctagonDomain::exitCall(OC, OE, CallSite));
  Out.Seeded =
      Caller.Seeded || CalleeExit.Seeded || SeededC || SeededE;
  reduce(Out);
  return Out;
}
