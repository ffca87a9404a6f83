//===-- tests/domain_properties_test.cpp - Lattice property tests ---------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based tests of the Section 3 abstract-interpreter contract, over
/// randomized elements of every domain (seed-parameterized TEST_P sweeps):
///   - partial order: reflexivity, bottom-least, antisymmetry via equal;
///   - join: upper bound, commutativity (semantic), idempotence;
///   - widen: upper bound of both arguments (the ∇ contract);
///   - widening convergence: iterated widening of a growing chain
///     stabilizes in finitely many steps;
///   - transfer: ⊥ ↦ ⊥ and (spot-checked) monotonicity;
///   - hash/equal agreement.
///
//===----------------------------------------------------------------------===//

#include "domain/constprop.h"
#include "domain/interval.h"
#include "domain/octagon.h"
#include "domain/registry.h"
#include "domain/shape.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace dai;

namespace {

//===----------------------------------------------------------------------===//
// Random element generators
//===----------------------------------------------------------------------===//

Interval randomInterval(Rng &R) {
  switch (R.below(6)) {
  case 0: return Interval::top();
  case 1: return Interval::empty();
  case 2: return Interval::constant(R.range(-20, 20));
  case 3: return Interval::atLeast(R.range(-20, 20));
  case 4: return Interval::atMost(R.range(-20, 20));
  default: {
    int64_t A = R.range(-20, 20), B = R.range(-20, 20);
    return Interval::range(std::min(A, B), std::max(A, B));
  }
  }
}

IntervalState randomIntervalState(Rng &R) {
  if (R.percent(10))
    return IntervalDomain::bottom();
  IntervalState S;
  unsigned N = static_cast<unsigned>(R.below(4));
  for (unsigned I = 0; I < N; ++I) {
    VarAbs V;
    V.Num = randomInterval(R);
    if (R.percent(30))
      V.Len = Interval::range(0, R.range(0, 10));
    S.set("v" + std::to_string(R.below(4)), V);
  }
  return S;
}

Octagon randomOctagon(Rng &R) {
  if (R.percent(10))
    return OctagonDomain::bottom();
  Octagon O;
  unsigned N = 2 + static_cast<unsigned>(R.below(3));
  for (unsigned I = 0; I < N; ++I)
    O.addVar("v" + std::to_string(I));
  unsigned Constraints = static_cast<unsigned>(R.below(5));
  for (unsigned I = 0; I < Constraints; ++I) {
    size_t X = R.below(N);
    size_t Y = R.below(N);
    if (X == Y)
      O.addConstraint(X, R.percent(50), static_cast<size_t>(-1), true,
                      R.range(-15, 15));
    else
      O.addConstraint(X, R.percent(50), Y, R.percent(50), R.range(-15, 15));
  }
  O.close();
  return O;
}

ShapeState randomShape(Rng &R) {
  if (R.percent(10))
    return ShapeDomain::bottom();
  ShapeState S;
  unsigned Disjuncts = 1 + static_cast<unsigned>(R.below(2));
  for (unsigned D = 0; D < Disjuncts; ++D) {
    SymHeap H;
    Sym Prev = NilSym;
    unsigned Chain = static_cast<unsigned>(R.below(3));
    for (unsigned I = 0; I < Chain; ++I) {
      Sym Cur = H.fresh();
      H.Atoms.push_back(HeapAtom{
          R.percent(50) ? HeapAtom::PtsTo : HeapAtom::Lseg, Cur, Prev});
      Prev = Cur;
    }
    std::sort(H.Atoms.begin(), H.Atoms.end());
    H.Env["p"] = Prev;
    if (R.percent(30) && Prev != NilSym)
      H.addDiseq(Prev, NilSym);
    S.Disjuncts.push_back(ShapeDomain::canonicalize(H));
  }
  // States must be canonical (deduplicated) as the domain operations
  // produce them.
  std::sort(S.Disjuncts.begin(), S.Disjuncts.end());
  S.Disjuncts.erase(std::unique(S.Disjuncts.begin(), S.Disjuncts.end()),
                    S.Disjuncts.end());
  return S;
}

ConstState randomConst(Rng &R) {
  if (R.percent(10))
    return ConstPropDomain::bottom();
  ConstState S;
  unsigned N = static_cast<unsigned>(R.below(4));
  for (unsigned I = 0; I < N; ++I)
    S.setVar("v" + std::to_string(R.below(4)), R.range(-9, 9));
  return S;
}

Stmt randomNumericStmt(Rng &R) {
  std::string X = "v" + std::to_string(R.below(4));
  std::string Y = "v" + std::to_string(R.below(4));
  switch (R.below(4)) {
  case 0:
    return Stmt::mkAssign(X, Expr::mkInt(R.range(-9, 9)));
  case 1:
    return Stmt::mkAssign(X, Expr::mkBinary(BinaryOp::Add, Expr::mkVar(Y),
                                            Expr::mkInt(R.range(-5, 5))));
  case 2:
    return Stmt::mkAssume(Expr::mkBinary(BinaryOp::Lt, Expr::mkVar(X),
                                         Expr::mkInt(R.range(-9, 9))));
  default:
    return Stmt::mkAssign(X, Expr::mkBinary(BinaryOp::Mul, Expr::mkVar(Y),
                                            Expr::mkVar(X)));
  }
}

//===----------------------------------------------------------------------===//
// Generic property harness (instantiated per domain via a small adapter)
//===----------------------------------------------------------------------===//

template <typename D, typename Gen>
void checkLatticeProperties(uint64_t Seed, Gen &&Random, unsigned Iters) {
  Rng R(Seed);
  for (unsigned I = 0; I < Iters; ++I) {
    auto A = Random(R);
    auto B = Random(R);
    auto C = Random(R);
    // Reflexivity and bottom-least.
    EXPECT_TRUE(D::leq(A, A));
    EXPECT_TRUE(D::leq(D::bottom(), A));
    EXPECT_TRUE(D::isBottom(D::bottom()));
    // equal agrees with two-sided leq on identical values.
    EXPECT_TRUE(D::equal(A, A));
    EXPECT_EQ(D::hash(A), D::hash(A)) << "hash must be deterministic";
    // Join is an upper bound and idempotent.
    auto J = D::join(A, B);
    EXPECT_TRUE(D::leq(A, J)) << D::toString(A) << " vs " << D::toString(J);
    EXPECT_TRUE(D::leq(B, J)) << D::toString(B) << " vs " << D::toString(J);
    EXPECT_TRUE(D::equal(D::join(A, A), A))
        << "join idempotence: " << D::toString(A);
    // Join is commutative up to semantic equality.
    EXPECT_TRUE(D::equal(J, D::join(B, A)));
    // Widen is an upper bound of both arguments.
    auto W = D::widen(A, B);
    EXPECT_TRUE(D::leq(A, W));
    EXPECT_TRUE(D::leq(B, W));
    // Transfer maps bottom to bottom.
    Stmt S = randomNumericStmt(R);
    EXPECT_TRUE(D::isBottom(D::transfer(S, D::bottom())));
    (void)C;
  }
}

/// Iterated widening of an increasing chain must stabilize.
template <typename D, typename Gen>
void checkWideningConvergence(uint64_t Seed, Gen &&Random, unsigned Chains) {
  Rng R(Seed);
  for (unsigned I = 0; I < Chains; ++I) {
    auto Acc = Random(R);
    unsigned Steps = 0;
    for (; Steps < 300; ++Steps) {
      auto Next = D::join(Acc, Random(R));
      auto Widened = D::widen(Acc, Next);
      if (D::equal(Widened, Acc))
        break;
      Acc = Widened;
    }
    EXPECT_LT(Steps, 300u) << "widening chain failed to converge";
  }
}

class DomainPropertySeed : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DomainPropertySeed, IntervalLattice) {
  checkLatticeProperties<IntervalDomain>(GetParam(), randomIntervalState, 60);
}
TEST_P(DomainPropertySeed, IntervalWideningConverges) {
  checkWideningConvergence<IntervalDomain>(GetParam(), randomIntervalState,
                                           20);
}
TEST_P(DomainPropertySeed, OctagonLattice) {
  checkLatticeProperties<OctagonDomain>(GetParam(), randomOctagon, 40);
}
TEST_P(DomainPropertySeed, OctagonWideningConverges) {
  checkWideningConvergence<OctagonDomain>(GetParam(), randomOctagon, 12);
}
TEST_P(DomainPropertySeed, ShapeLattice) {
  checkLatticeProperties<ShapeDomain>(GetParam(), randomShape, 40);
}
TEST_P(DomainPropertySeed, ShapeWideningConverges) {
  checkWideningConvergence<ShapeDomain>(GetParam(), randomShape, 12);
}
TEST_P(DomainPropertySeed, ConstPropLattice) {
  checkLatticeProperties<ConstPropDomain>(GetParam(), randomConst, 60);
}
TEST_P(DomainPropertySeed, ConstPropWideningConverges) {
  checkWideningConvergence<ConstPropDomain>(GetParam(), randomConst, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomainPropertySeed,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

//===----------------------------------------------------------------------===//
// Interval arithmetic unit properties
//===----------------------------------------------------------------------===//

class IntervalArithSeed : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalArithSeed, ArithmeticSoundOnSamples) {
  // Concrete-sampling soundness: for values drawn from the operand
  // intervals, the concrete result must lie in the abstract result.
  Rng R(GetParam());
  for (int I = 0; I < 200; ++I) {
    int64_t A = R.range(-10, 10), B = R.range(-10, 10);
    int64_t C = R.range(-10, 10), D = R.range(-10, 10);
    Interval X = Interval::range(std::min(A, B), std::max(A, B));
    Interval Y = Interval::range(std::min(C, D), std::max(C, D));
    int64_t VX = R.range(X.lo(), X.hi());
    int64_t VY = R.range(Y.lo(), Y.hi());
    EXPECT_TRUE(X.add(Y).contains(VX + VY));
    EXPECT_TRUE(X.sub(Y).contains(VX - VY));
    EXPECT_TRUE(X.mul(Y).contains(VX * VY));
    if (VY != 0) {
      EXPECT_TRUE(X.div(Y).contains(VX / VY))
          << X.toString() << " / " << Y.toString() << " ∌ " << VX / VY;
    }
    if (VY != 0) {
      EXPECT_TRUE(X.mod(Y).contains(VX % VY));
    }
    EXPECT_TRUE(X.neg().contains(-VX));
    // Meet/join sanity on memberships.
    EXPECT_TRUE(X.join(Y).contains(VX));
    EXPECT_TRUE(X.join(Y).contains(VY));
    if (X.meet(Y).contains(VX)) {
      EXPECT_TRUE(Y.contains(VX));
    }
  }
}

TEST_P(IntervalArithSeed, ComparisonTruthsSound) {
  Rng R(GetParam());
  for (int I = 0; I < 200; ++I) {
    int64_t A = R.range(-10, 10), B = R.range(-10, 10);
    int64_t C = R.range(-10, 10), D = R.range(-10, 10);
    Interval X = Interval::range(std::min(A, B), std::max(A, B));
    Interval Y = Interval::range(std::min(C, D), std::max(C, D));
    int64_t VX = R.range(X.lo(), X.hi());
    int64_t VY = R.range(Y.lo(), Y.hi());
    TriBool Lt = X.cmpLt(Y);
    if (Lt == TriBool::True) {
      EXPECT_LT(VX, VY);
    }
    if (Lt == TriBool::False) {
      EXPECT_GE(VX, VY);
    }
    TriBool Eq = X.cmpEq(Y);
    if (Eq == TriBool::True) {
      EXPECT_EQ(VX, VY);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalArithSeed,
                         ::testing::Values(11u, 22u, 33u, 44u));

//===----------------------------------------------------------------------===//
// Octagon-specific checks
//===----------------------------------------------------------------------===//

TEST(OctagonDomainTest, RelationalAssignExact) {
  Octagon O;
  Stmt S1 = Stmt::mkAssign("x", Expr::mkInt(5));
  Octagon A = OctagonDomain::transfer(S1, O);
  EXPECT_EQ(A.boundsOf("x"), Interval::constant(5));
  Stmt S2 = Stmt::mkAssign("y", Expr::mkBinary(BinaryOp::Add,
                                               Expr::mkVar("x"),
                                               Expr::mkInt(2)));
  Octagon B = OctagonDomain::transfer(S2, A);
  EXPECT_EQ(B.boundsOf("y"), Interval::constant(7));
  // The relation y − x = 2 must survive forgetting the constant: havoc x.
  Octagon C = OctagonDomain::transfer(Stmt::mkCall("x", "unknown", {}), B);
  EXPECT_EQ(C.boundsOf("y"), Interval::constant(7));
}

TEST(OctagonDomainTest, AssumeRelational) {
  Octagon O;
  O.addVar("x");
  O.addVar("y");
  Octagon A = OctagonDomain::assume(
      O, Expr::mkBinary(BinaryOp::Le, Expr::mkVar("x"), Expr::mkVar("y")));
  Octagon B = OctagonDomain::assume(
      A, Expr::mkBinary(BinaryOp::Le, Expr::mkVar("y"), Expr::mkInt(10)));
  B.close();
  EXPECT_EQ(B.boundsOf("x").hi(), 10);
}

TEST(OctagonDomainTest, ContradictionIsBottom) {
  Octagon O;
  Octagon A = OctagonDomain::assume(
      O, Expr::mkBinary(BinaryOp::Lt, Expr::mkVar("x"), Expr::mkInt(0)));
  Octagon B = OctagonDomain::assume(
      A, Expr::mkBinary(BinaryOp::Gt, Expr::mkVar("x"), Expr::mkInt(0)));
  EXPECT_TRUE(OctagonDomain::isBottom(B));
}

TEST(OctagonDomainTest, SelfIncrementShifts) {
  Octagon O;
  Octagon A = OctagonDomain::transfer(Stmt::mkAssign("i", Expr::mkInt(0)), O);
  Stmt Inc = Stmt::mkAssign("i", Expr::mkBinary(BinaryOp::Add,
                                                Expr::mkVar("i"),
                                                Expr::mkInt(1)));
  Octagon B = OctagonDomain::transfer(Inc, A);
  EXPECT_EQ(B.boundsOf("i"), Interval::constant(1));
  Octagon C = OctagonDomain::transfer(Inc, B);
  EXPECT_EQ(C.boundsOf("i"), Interval::constant(2));
}

//===----------------------------------------------------------------------===//
// Registry-driven conformance suite
//
// Enumerates every key in DomainRegistry and re-checks the AbstractDomain
// contract through the erased AnyDomain interface, so a domain cannot be
// selectable at runtime without passing the same laws the compile-time
// domains pass above. Values are grown by random transfer/assume chains
// (the statement pool covers numeric, disjunctive-guard, heap, and array
// forms so every domain's transfer actually fires), and all order-theoretic
// laws are stated via mutual leq — robust to representation differences
// (e.g. closed vs. unclosed zones) that semantic equality must tolerate.
//===----------------------------------------------------------------------===//

/// Statements that exercise every registered domain: numeric assignments
/// and guards (interval/zone/octagon/constprop), disjunctive guards
/// (dis_interval partitions), alloc/field/null forms (shape), and array
/// literals/writes/reads (the arr_* smashing functors).
Stmt randomConformanceStmt(Rng &R) {
  std::string X = "v" + std::to_string(R.below(4));
  std::string Y = "v" + std::to_string(R.below(4));
  auto CmpOp = [&R] {
    switch (R.below(6)) {
    case 0: return BinaryOp::Lt;
    case 1: return BinaryOp::Le;
    case 2: return BinaryOp::Gt;
    case 3: return BinaryOp::Ge;
    case 4: return BinaryOp::Eq;
    default: return BinaryOp::Ne;
    }
  };
  switch (R.below(12)) {
  case 0:
    return Stmt::mkAssign(X, Expr::mkInt(R.range(-9, 9)));
  case 1:
    return Stmt::mkAssign(X, Expr::mkBinary(BinaryOp::Add, Expr::mkVar(Y),
                                            Expr::mkInt(R.range(-5, 5))));
  case 2:
    return Stmt::mkAssign(X, Expr::mkBinary(BinaryOp::Mul, Expr::mkVar(Y),
                                            Expr::mkVar(X)));
  case 3:
    return Stmt::mkAssume(Expr::mkBinary(CmpOp(), Expr::mkVar(X),
                                         Expr::mkInt(R.range(-9, 9))));
  case 4:
    // Disjunctive guard: the partition source for dis_interval, a plain
    // join for the convex domains.
    return Stmt::mkAssume(Expr::mkBinary(
        BinaryOp::Or,
        Expr::mkBinary(BinaryOp::Le, Expr::mkVar(X),
                       Expr::mkInt(R.range(-9, -1))),
        Expr::mkBinary(BinaryOp::Ge, Expr::mkVar(X),
                       Expr::mkInt(R.range(1, 9)))));
  case 5:
    return Stmt::mkAssume(
        Expr::mkBinary(CmpOp(), Expr::mkVar(X), Expr::mkVar(Y)));
  case 6:
    return Stmt::mkAlloc(X);
  case 7:
    return Stmt::mkFieldWrite(X, R.percent(50) ? Expr::mkNull()
                                               : Expr::mkVar(Y));
  case 8:
    return Stmt::mkAssume(Expr::mkBinary(R.percent(50) ? BinaryOp::Eq
                                                       : BinaryOp::Ne,
                                         Expr::mkVar(X), Expr::mkNull()));
  case 9: {
    std::vector<ExprPtr> Elems;
    unsigned N = 1 + static_cast<unsigned>(R.below(3));
    for (unsigned I = 0; I < N; ++I)
      Elems.push_back(Expr::mkInt(R.range(-9, 9)));
    return Stmt::mkAssign(X, Expr::mkArray(std::move(Elems)));
  }
  case 10:
    return Stmt::mkArrayWrite(X, Expr::mkInt(R.range(0, 3)),
                              Expr::mkInt(R.range(-9, 9)));
  default:
    return Stmt::mkAssign(Y, R.percent(50)
                                 ? Expr::mkIndex(Expr::mkVar(X),
                                                 Expr::mkInt(R.range(0, 3)))
                                 : Expr::mkField(Expr::mkVar(X), "length"));
  }
}

/// A random erased value of the currently bound default domain: a chain of
/// random transfers from the entry state, with occasional joins of short
/// sibling chains (so non-chain-shaped elements appear too).
AnyVal randomErasedValue(Rng &R) {
  if (R.percent(8))
    return AnyDomain::bottom();
  AnyVal S = AnyDomain::initialEntry({});
  unsigned N = static_cast<unsigned>(R.below(7));
  for (unsigned I = 0; I < N; ++I) {
    if (R.percent(20)) {
      AnyVal T = AnyDomain::initialEntry({});
      unsigned M = static_cast<unsigned>(R.below(3));
      for (unsigned J = 0; J < M; ++J)
        T = AnyDomain::transfer(randomConformanceStmt(R), T);
      S = AnyDomain::join(S, T);
    } else {
      S = AnyDomain::transfer(randomConformanceStmt(R), S);
    }
  }
  return S;
}

/// Semantic equality: mutual leq (tolerates representation differences).
bool semEq(const AnyVal &A, const AnyVal &B) {
  return AnyDomain::leq(A, B) && AnyDomain::leq(B, A);
}

class DomainConformance
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(DomainConformance, LatticeLaws) {
  const auto &[Key, Seed] = GetParam();
  AnyDomainDefaultScope Bind(Key);
  ASSERT_TRUE(Bind.ok()) << "unregistered key: " << Key;
  EXPECT_STREQ(AnyDomain::name(), Key.c_str());
  Rng R(Seed);
  for (unsigned I = 0; I < 25; ++I) {
    AnyVal A = randomErasedValue(R);
    AnyVal B = randomErasedValue(R);
    AnyVal C = randomErasedValue(R);
    // Partial order: reflexivity, bottom-least.
    EXPECT_TRUE(AnyDomain::leq(A, A));
    EXPECT_TRUE(AnyDomain::leq(AnyDomain::bottom(), A));
    // Join: upper bound of both arguments and idempotent.
    AnyVal J = AnyDomain::join(A, B);
    EXPECT_TRUE(AnyDomain::leq(A, J))
        << AnyDomain::toString(A) << " !<= " << AnyDomain::toString(J);
    EXPECT_TRUE(AnyDomain::leq(B, J))
        << AnyDomain::toString(B) << " !<= " << AnyDomain::toString(J);
    EXPECT_TRUE(semEq(AnyDomain::join(A, A), A));
    // Join: commutative and associative (semantically).
    EXPECT_TRUE(semEq(J, AnyDomain::join(B, A)));
    EXPECT_TRUE(semEq(AnyDomain::join(J, C),
                      AnyDomain::join(A, AnyDomain::join(B, C))));
    // Join is the LEAST upper bound: it sits below every other upper
    // bound we can construct, in particular widen(A, B).
    AnyVal W = AnyDomain::widen(A, B);
    EXPECT_TRUE(AnyDomain::leq(A, W));
    EXPECT_TRUE(AnyDomain::leq(B, W));
    EXPECT_TRUE(AnyDomain::leq(J, W))
        << "widen must cover join: " << AnyDomain::toString(J) << " !<= "
        << AnyDomain::toString(W);
    // Bottom identities: ⊥ ⊔ x ≡ x, and ⊥ stays ⊥ under transfer.
    EXPECT_TRUE(semEq(AnyDomain::join(AnyDomain::bottom(), A), A));
    EXPECT_TRUE(AnyDomain::isBottom(AnyDomain::bottom()));
    EXPECT_TRUE(AnyDomain::isBottom(
        AnyDomain::transfer(randomConformanceStmt(R), AnyDomain::bottom())));
  }
}

TEST_P(DomainConformance, EqualHashCoherence) {
  const auto &[Key, Seed] = GetParam();
  AnyDomainDefaultScope Bind(Key);
  ASSERT_TRUE(Bind.ok()) << "unregistered key: " << Key;
  Rng R(Seed);
  // A default-constructed erased value (no vtable yet) must behave exactly
  // as ⊥ of the bound domain — the normalization half of the erasure
  // contract.
  EXPECT_TRUE(AnyDomain::isBottom(AnyVal{}));
  EXPECT_TRUE(AnyDomain::equal(AnyVal{}, AnyDomain::bottom()));
  EXPECT_EQ(AnyDomain::hash(AnyVal{}), AnyDomain::hash(AnyDomain::bottom()));
  for (unsigned I = 0; I < 25; ++I) {
    AnyVal A = randomErasedValue(R);
    AnyVal B = randomErasedValue(R);
    // equal is an equivalence on identical values and implies equal hashes.
    AnyVal ACopy = A;
    EXPECT_TRUE(AnyDomain::equal(A, ACopy));
    EXPECT_EQ(AnyDomain::hash(A), AnyDomain::hash(ACopy));
    // equal implies mutual leq and hash agreement wherever it fires.
    if (AnyDomain::equal(A, B)) {
      EXPECT_TRUE(semEq(A, B));
      EXPECT_EQ(AnyDomain::hash(A), AnyDomain::hash(B));
    }
    // Reconstructing a value (x ⊔ x) must stay equal-and-equal-hash: the
    // memo layer keys on hash and confirms with equal, so either failing
    // here would break Q-Match.
    AnyVal Rejoined = AnyDomain::join(A, A);
    if (AnyDomain::equal(Rejoined, A)) {
      EXPECT_EQ(AnyDomain::hash(Rejoined), AnyDomain::hash(A));
    }
    EXPECT_EQ(AnyDomain::hash(A), AnyDomain::hash(A))
        << "hash must be deterministic";
  }
}

TEST_P(DomainConformance, TransferMonotone) {
  const auto &[Key, Seed] = GetParam();
  AnyDomainDefaultScope Bind(Key);
  ASSERT_TRUE(Bind.ok()) << "unregistered key: " << Key;
  Rng R(Seed);
  for (unsigned I = 0; I < 15; ++I) {
    AnyVal A = randomErasedValue(R);
    AnyVal C = randomErasedValue(R);
    AnyVal B = AnyDomain::join(A, C); // A <= B by construction.
    Stmt S = randomConformanceStmt(R);
    EXPECT_TRUE(
        AnyDomain::leq(AnyDomain::transfer(S, A), AnyDomain::transfer(S, B)))
        << "transfer not monotone on " << S.toString() << "\n  at   "
        << AnyDomain::toString(A) << "\n  vs   " << AnyDomain::toString(B);
  }
}

TEST_P(DomainConformance, WideningConverges) {
  const auto &[Key, Seed] = GetParam();
  AnyDomainDefaultScope Bind(Key);
  ASSERT_TRUE(Bind.ok()) << "unregistered key: " << Key;
  Rng R(Seed);
  for (unsigned I = 0; I < 8; ++I) {
    AnyVal Acc = randomErasedValue(R);
    unsigned Steps = 0;
    for (; Steps < 300; ++Steps) {
      AnyVal Next = AnyDomain::join(Acc, randomErasedValue(R));
      AnyVal Widened = AnyDomain::widen(Acc, Next);
      if (AnyDomain::equal(Widened, Acc))
        break;
      Acc = Widened;
    }
    EXPECT_LT(Steps, 300u) << "widening chain failed to converge for " << Key;
  }
}

/// The registered universe itself: every key the rest of this PR depends on
/// must be present (the conformance sweep above enumerates this same list).
TEST(DomainRegistryConformance, RegisteredKeys) {
  auto Keys = DomainRegistry::instance().keys();
  EXPECT_GE(Keys.size(), 8u);
  for (const char *Expected :
       {"interval", "dis_interval", "constprop", "zone", "octagon", "staged",
        "shape", "arr_interval", "arr_zone", "arr_dis_interval"}) {
    EXPECT_NE(std::find(Keys.begin(), Keys.end(), Expected), Keys.end())
        << "missing registry key: " << Expected;
    const DomainVTable *VT = DomainRegistry::instance().find(Expected);
    ASSERT_NE(VT, nullptr);
    EXPECT_STREQ(VT->Key, Expected);
  }
  EXPECT_EQ(DomainRegistry::instance().find("no_such_domain"), nullptr);
}

std::vector<std::string> conformanceKeys() {
  return DomainRegistry::instance().keys();
}

INSTANTIATE_TEST_SUITE_P(
    Registry, DomainConformance,
    ::testing::Combine(::testing::ValuesIn(conformanceKeys()),
                       ::testing::Values(1u, 2u, 3u, 5u, 8u)),
    [](const ::testing::TestParamInfo<DomainConformance::ParamType> &Info) {
      return std::get<0>(Info.param) + "_s" +
             std::to_string(std::get<1>(Info.param));
    });

} // namespace
