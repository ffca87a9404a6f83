//===-- domain/registry.cpp - Type-erased domain registry -----------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "domain/registry.h"

#include "domain/array_smash.h"
#include "domain/constprop.h"
#include "domain/dis_interval.h"
#include "domain/octagon.h"
#include "domain/shape.h"
#include "domain/staged.h"
#include "domain/zone.h"
#include "support/hashing.h"

#include <cassert>

using namespace dai;

namespace {

using Ptr = DomainVTable::Ptr;

uint64_t hashKey(const char *Key) {
  // FNV-1a: stable across runs (unlike pointer identity), so type-tagged
  // memo hashes are deterministic and reproducible.
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const char *P = Key; *P; ++P) {
    H ^= static_cast<unsigned char>(*P);
    H *= 0x100000001b3ULL;
  }
  return H;
}

template <typename D>
const typename D::Elem &un(const Ptr &P) {
  return *static_cast<const typename D::Elem *>(P.get());
}

template <typename D>
Ptr wrapElem(typename D::Elem E) {
  return std::make_shared<typename D::Elem>(std::move(E));
}

//===----------------------------------------------------------------------===//
// Box conversions (IntervalState is the cross-domain interchange format)
//===----------------------------------------------------------------------===//

// ToBox: overloads on the concrete Elem type. Functor domains that reuse a
// base Elem (ArraySmashDomain<B>::Elem == B::Elem) share the base overload,
// which is exactly right: ghost variables are ordinary dimensions, and the
// ghost naming convention is uniform across the arr_* family.

IntervalState toBoxImpl(const IntervalState &S) { return S; }

IntervalState toBoxImpl(const DisIntervalState &S) { return S.hullState(); }

IntervalState toBoxImpl(const ConstState &S) {
  IntervalState R;
  if (S.Bottom) {
    R.Bottom = true;
    return R;
  }
  R.Env.reserve(S.Env.size());
  for (const auto &[Var, V] : S.Env)
    R.set(Var, VarAbs::numeric(Interval::constant(V)));
  return R;
}

IntervalState toBoxImpl(const Zone &Z) {
  IntervalState R;
  if (Z.isBottom()) {
    R.Bottom = true;
    return R;
  }
  const Zone &C = Z.closedView();
  if (C.isBottom()) {
    R.Bottom = true;
    return R;
  }
  std::vector<SymbolId> Vars = C.constrainedVars();
  R.Env.reserve(Vars.size());
  for (SymbolId V : Vars) {
    Interval I = C.boundsOf(V);
    if (!I.isTop())
      R.set(V, VarAbs::numeric(I));
  }
  return R;
}

IntervalState toBoxImpl(const Octagon &O) {
  IntervalState R;
  if (O.isBottom()) {
    R.Bottom = true;
    return R;
  }
  const Octagon &C = O.closedView();
  if (C.isBottom()) {
    R.Bottom = true;
    return R;
  }
  R.Env.reserve(C.numVars());
  for (SymbolId V : C.vars()) {
    Interval I = C.boundsOf(V);
    if (!I.isTop())
      R.set(V, VarAbs::numeric(I));
  }
  return R;
}

IntervalState toBoxImpl(const Staged &S) {
  // The zone tier is always on and always sound; the octagon tier only adds
  // ±x±y relations, whose variable projections the zone already covers.
  return toBoxImpl(S.Z);
}

IntervalState toBoxImpl(const ShapeState &S) {
  IntervalState R;
  if (S.isBottom()) {
    R.Bottom = true;
    return R;
  }
  return R; // Heap shapes carry no numeric bounds: ⊤ box.
}

/// Generic sound embedding: start from the domain's ⊤-like entry state and
/// replay the box's bounds as assume-refinements. Domains that cannot
/// represent a bound simply keep ⊤ for it (still ⊒ the box).
template <typename D>
typename D::Elem fromBoxGeneric(const IntervalState &Box) {
  if (Box.Bottom)
    return D::bottom();
  typename D::Elem S = D::initialEntry({});
  for (const auto &[Sym, V] : Box.Env) {
    const Interval &I = V.Num;
    if (I.isTop())
      continue;
    if (I.isEmpty()) // An empty projection means the state is unreachable.
      return D::bottom();
    const std::string &Name = symbolName(Sym);
    if (I.isConstant()) {
      S = D::transfer(Stmt::mkAssume(Expr::mkBinary(
                          BinaryOp::Eq, Expr::mkVar(Name), Expr::mkInt(I.lo()))),
                      S);
      continue;
    }
    if (I.lo() != Interval::kNegInf)
      S = D::transfer(Stmt::mkAssume(Expr::mkBinary(
                          BinaryOp::Ge, Expr::mkVar(Name), Expr::mkInt(I.lo()))),
                      S);
    if (I.hi() != Interval::kPosInf)
      S = D::transfer(Stmt::mkAssume(Expr::mkBinary(
                          BinaryOp::Le, Expr::mkVar(Name), Expr::mkInt(I.hi()))),
                      S);
  }
  return S;
}

DisIntervalState disFromBox(const IntervalState &Box) {
  DisIntervalState S;
  S.Bottom = Box.Bottom;
  if (Box.Bottom)
    return S;
  S.Env.reserve(Box.Env.size());
  for (const auto &[Var, V] : Box.Env) {
    DisVarAbs D;
    D.Num = DisInterval::fromInterval(V.Num);
    D.Len = V.Len;
    D.Elems = V.Elems;
    S.set(Var, D);
  }
  return S;
}

template <typename D>
typename D::Elem fromBoxFor(const IntervalState &Box) {
  // The interval-shaped domains embed the box exactly (including array
  // length/element summaries); everything else replays numeric bounds.
  if constexpr (std::is_same_v<typename D::Elem, IntervalState>)
    return Box;
  else if constexpr (std::is_same_v<typename D::Elem, DisIntervalState>)
    return disFromBox(Box);
  else
    return fromBoxGeneric<D>(Box);
}

//===----------------------------------------------------------------------===//
// VTable adapter
//===----------------------------------------------------------------------===//

template <typename D>
  requires AbstractDomain<D>
const DomainVTable *makeVTable(const char *Key) {
  static const DomainVTable VT = {
      Key,
      D::name(),
      hashKey(Key),
      +[]() -> Ptr { return wrapElem<D>(D::bottom()); },
      +[](const std::vector<std::string> &Params) -> Ptr {
        return wrapElem<D>(D::initialEntry(Params));
      },
      +[](const Stmt &S, const Ptr &In) -> Ptr {
        return wrapElem<D>(D::transfer(S, un<D>(In)));
      },
      +[](const Ptr &A, const Ptr &B) -> Ptr {
        return wrapElem<D>(D::join(un<D>(A), un<D>(B)));
      },
      +[](const Ptr &A, const Ptr &B) -> Ptr {
        return wrapElem<D>(D::widen(un<D>(A), un<D>(B)));
      },
      +[](const Ptr &A, const Ptr &B) { return D::leq(un<D>(A), un<D>(B)); },
      +[](const Ptr &A, const Ptr &B) { return D::equal(un<D>(A), un<D>(B)); },
      +[](const Ptr &A) { return D::hash(un<D>(A)); },
      +[](const Ptr &A) { return D::toString(un<D>(A)); },
      +[](const Ptr &A) { return D::isBottom(un<D>(A)); },
      +[](const Ptr &Caller, const Stmt &CS,
          const std::vector<std::string> &Params) -> Ptr {
        return wrapElem<D>(D::enterCall(un<D>(Caller), CS, Params));
      },
      +[](const Ptr &Caller, const Ptr &Exit, const Stmt &CS) -> Ptr {
        return wrapElem<D>(D::exitCall(un<D>(Caller), un<D>(Exit), CS));
      },
      +[](const Ptr &A) { return toBoxImpl(un<D>(A)); },
      +[](const IntervalState &Box) -> Ptr {
        return wrapElem<D>(fromBoxFor<D>(Box));
      },
  };
  return &VT;
}

} // namespace

//===----------------------------------------------------------------------===//
// DomainRegistry
//===----------------------------------------------------------------------===//

DomainRegistry::DomainRegistry() {
  auto Add = [this](const DomainVTable *VT) { Table.emplace(VT->Key, VT); };
  Add(makeVTable<IntervalDomain>("interval"));
  Add(makeVTable<DisIntervalDomain>("dis_interval"));
  Add(makeVTable<ConstPropDomain>("constprop"));
  Add(makeVTable<ZoneDomain>("zone"));
  Add(makeVTable<OctagonDomain>("octagon"));
  Add(makeVTable<StagedDomain>("staged"));
  Add(makeVTable<ShapeDomain>("shape"));
  Add(makeVTable<ArraySmashDomain<IntervalDomain>>("arr_interval"));
  Add(makeVTable<ArraySmashDomain<ZoneDomain>>("arr_zone"));
  Add(makeVTable<ArraySmashDomain<DisIntervalDomain>>("arr_dis_interval"));
}

DomainRegistry &DomainRegistry::instance() {
  static DomainRegistry R;
  return R;
}

const DomainVTable *DomainRegistry::find(const std::string &Key) const {
  auto It = Table.find(Key);
  return It == Table.end() ? nullptr : It->second;
}

std::vector<std::string> DomainRegistry::keys() const {
  std::vector<std::string> Keys;
  Keys.reserve(Table.size());
  for (const auto &[Key, VT] : Table)
    Keys.push_back(Key);
  return Keys; // std::map iteration: already sorted.
}

//===----------------------------------------------------------------------===//
// FunctionDomainPolicy
//===----------------------------------------------------------------------===//

bool FunctionDomainPolicy::set(const std::string &Fn, const std::string &Key) {
  const DomainVTable *VT = DomainRegistry::instance().find(Key);
  if (!VT)
    return false;
  PerFn[internSymbol(Fn)] = VT;
  return true;
}

bool FunctionDomainPolicy::setDefault(const std::string &Key) {
  const DomainVTable *VT = DomainRegistry::instance().find(Key);
  if (!VT)
    return false;
  Default = VT;
  return true;
}

const DomainVTable *
FunctionDomainPolicy::resolve(SymbolId Fn,
                              const DomainVTable *Fallback) const {
  auto It = PerFn.find(Fn);
  if (It != PerFn.end())
    return It->second;
  return Default ? Default : Fallback;
}

namespace {
// Plain pointers, not atomics: both are configuration written before
// analysis threads start and only read afterwards (data-race-free by
// happens-before at thread creation).
const FunctionDomainPolicy *GlobalPolicy = nullptr;
const DomainVTable *DefaultSlot = nullptr;
} // namespace

void dai::installFunctionDomainPolicy(const FunctionDomainPolicy *P) {
  GlobalPolicy = P;
}

const FunctionDomainPolicy *dai::installedFunctionDomainPolicy() {
  return GlobalPolicy;
}

//===----------------------------------------------------------------------===//
// AnyDomain
//===----------------------------------------------------------------------===//

namespace {

/// Normalizes a default-constructed (vtable-less) value into a typed ⊥ of
/// the bound default domain; typed values pass through untouched.
AnyVal norm(const AnyVal &A) {
  if (A.Ops)
    return A;
  const DomainVTable *VT = AnyDomain::boundDefault();
  return {VT, VT->MakeBottom()};
}

/// Converts \p A into domain \p To through the box (identity if already
/// there). Over-approximating, hence sound in join/widen/leq positions.
AnyVal convertTo(const DomainVTable *To, const AnyVal &A) {
  if (A.Ops == To)
    return A;
  return {To, To->FromBox(A.Ops->ToBox(A.V))};
}

/// The domain the callee at \p CallSite runs in: the installed policy's
/// answer, else the caller's own domain (homogeneous analysis).
const DomainVTable *calleeVT(const Stmt &CallSite,
                             const DomainVTable *CallerVT) {
  const FunctionDomainPolicy *P = installedFunctionDomainPolicy();
  if (!P)
    return CallerVT;
  return P->resolve(internSymbol(CallSite.Callee), CallerVT);
}

} // namespace

const DomainVTable *AnyDomain::boundDefault() {
  if (DefaultSlot)
    return DefaultSlot;
  const DomainVTable *VT = DomainRegistry::instance().find("interval");
  assert(VT && "interval is always registered");
  return VT;
}

bool AnyDomain::bindDefault(const std::string &Key) {
  const DomainVTable *VT = DomainRegistry::instance().find(Key);
  if (!VT)
    return false;
  DefaultSlot = VT;
  return true;
}

AnyVal AnyDomain::bottom() {
  const DomainVTable *VT = boundDefault();
  return {VT, VT->MakeBottom()};
}

AnyVal AnyDomain::initialEntry(const std::vector<std::string> &Params) {
  const DomainVTable *VT = boundDefault();
  return {VT, VT->MakeInitialEntry(Params)};
}

AnyVal AnyDomain::initialEntryFor(SymbolId Fn,
                                  const std::vector<std::string> &Params) {
  const DomainVTable *VT = boundDefault();
  if (const FunctionDomainPolicy *P = installedFunctionDomainPolicy())
    VT = P->resolve(Fn, VT);
  return {VT, VT->MakeInitialEntry(Params)};
}

AnyVal AnyDomain::transfer(const Stmt &S, const AnyVal &In) {
  AnyVal N = norm(In);
  return {N.Ops, N.Ops->Transfer(S, N.V)};
}

AnyVal AnyDomain::join(const AnyVal &A, const AnyVal &B) {
  AnyVal NA = norm(A), NB = norm(B);
  // ⊥ of ANY domain is a join identity — checked first so a default-typed
  // bottom seed never drags a differently-typed operand through the box.
  if (NA.Ops->IsBottom(NA.V))
    return NB;
  if (NB.Ops->IsBottom(NB.V))
    return NA;
  AnyVal RB = convertTo(NA.Ops, NB);
  return {NA.Ops, NA.Ops->Join(NA.V, RB.V)};
}

AnyVal AnyDomain::widen(const AnyVal &Prev, const AnyVal &Next) {
  AnyVal NP = norm(Prev), NN = norm(Next);
  if (NP.Ops->IsBottom(NP.V))
    return NN;
  if (NN.Ops->IsBottom(NN.V))
    return NP;
  AnyVal RN = convertTo(NP.Ops, NN);
  return {NP.Ops, NP.Ops->Widen(NP.V, RN.V)};
}

bool AnyDomain::leq(const AnyVal &A, const AnyVal &B) {
  AnyVal NA = norm(A), NB = norm(B);
  if (NA.Ops->IsBottom(NA.V))
    return true;
  if (NB.Ops->IsBottom(NB.V))
    return false;
  if (NA.Ops == NB.Ops)
    return NA.Ops->Leq(NA.V, NB.V);
  // over(A) ⊑ B implies A ⊑ B; the converse may be lost (conservative).
  AnyVal RA = convertTo(NB.Ops, NA);
  return NB.Ops->Leq(RA.V, NB.V);
}

bool AnyDomain::equal(const AnyVal &A, const AnyVal &B) {
  AnyVal NA = norm(A), NB = norm(B);
  // The pinned erasure contract: values of different concrete domains are
  // UNEQUAL — even two bottoms — and never UB. Convergence checks only
  // compare values produced by the same instance (same domain), so the
  // type tag never costs an extra fixpoint iteration in practice.
  if (NA.Ops != NB.Ops)
    return false;
  return NA.Ops->Equal(NA.V, NB.V);
}

uint64_t AnyDomain::hash(const AnyVal &A) {
  AnyVal N = norm(A);
  // Type-tagged (the satellite-4 fix): memo keys from different concrete
  // domains cannot collide into each other's Q-Match entries. hashCombine
  // with a fixed first argument is injective in the second, so the per-
  // domain remap preserves hit/miss patterns bit-for-bit.
  return hashCombine(N.Ops->KeyHash, N.Ops->Hash(N.V));
}

std::string AnyDomain::toString(const AnyVal &A) {
  AnyVal N = norm(A);
  return N.Ops->ToString(N.V);
}

const char *AnyDomain::name() { return boundDefault()->Key; }

bool AnyDomain::isBottom(const AnyVal &A) {
  AnyVal N = norm(A);
  return N.Ops->IsBottom(N.V);
}

AnyVal AnyDomain::enterCall(const AnyVal &Caller, const Stmt &CallSite,
                            const std::vector<std::string> &CalleeParams) {
  AnyVal NC = norm(Caller);
  const DomainVTable *CV = calleeVT(CallSite, NC.Ops);
  // Actuals are evaluated in the CALLER's domain (that is where their
  // constraints live); a cross-domain callee then receives the boxed entry.
  AnyVal Entry = {NC.Ops, NC.Ops->EnterCall(NC.V, CallSite, CalleeParams)};
  return convertTo(CV, Entry);
}

AnyVal AnyDomain::exitCall(const AnyVal &Caller, const AnyVal &CalleeExit,
                           const Stmt &CallSite) {
  AnyVal NC = norm(Caller);
  AnyVal NE = convertTo(NC.Ops, norm(CalleeExit));
  return {NC.Ops, NC.Ops->ExitCall(NC.V, NE.V, CallSite)};
}

static_assert(AbstractDomain<AnyDomain>,
              "AnyDomain must satisfy the same concept as the concrete "
              "domain policies it erases");
