//===-- tests/domain_registry_test.cpp - Erasure & policy tests -----------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The domain registry's two load-bearing guarantees:
///
///  - Erasure transparency: an end-to-end InterprocEngine workload (seeded
///    edits, per-location queries, checker obligations) run through
///    AnyDomain bound to any registry key is bit-identical — rendered
///    states, every deterministic Statistics counter, the domain's work
///    counters where it has a family, and checker verdicts — to the same
///    workload on the direct template instantiation. Runtime domain
///    selection must cost zero precision and zero behavioral drift.
///
///  - Mixed-type safety: operations on values of different concrete
///    domains are defined (boxed conversion), never UB; equal() between
///    them is pinned FALSE — even for two bottoms — and their hashes are
///    type-tagged apart. The CoW tiers in staged.cpp and the memo Q-Match
///    path in daig.h rely on D::equal being cheap and exact on same-origin
///    values; these regressions pin what happens when origins differ.
///
/// Plus the per-function FunctionDomainPolicy: callee instances adopt the
/// mapped domain at enterCall / instance creation, and policy choices that
/// resolve to the same key leave results untouched.
///
//===----------------------------------------------------------------------===//

#include "domain/registry.h"

#include "analysis/checker.h"
#include "domain/array_smash.h"
#include "domain/constprop.h"
#include "domain/dis_interval.h"
#include "domain/interval.h"
#include "domain/octagon.h"
#include "domain/shape.h"
#include "domain/staged.h"
#include "domain/zone.h"
#include "interproc/engine.h"
#include "support/statistics.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>

using namespace dai;
using namespace dai::test;

namespace {

//===----------------------------------------------------------------------===//
// Erasure transparency: AnyDomain(key) ≡ the key's domain, end to end
//===----------------------------------------------------------------------===//

/// The printed form of a counter family: every row under its export name,
/// in table order, so a comparison covers rows added to the table later.
template <typename Fam> std::string printed(const Fam &C) {
  std::ostringstream OS;
  OS << C;
  return OS.str();
}

/// Zeroes \p Fam's gauges, so that a delta taken over the next region
/// carries that region's own peak rather than the process-wide one.
template <typename Fam> void zeroGauges(Fam &F) {
  Fam::forEachField([&](const CounterInfo &I, uint64_t Fam::*M) {
    if (I.Kind == CounterKind::Gauge)
      F.*M = 0;
  });
}

/// The counter-family argument for a key whose domain has no work-counter
/// family of its own.
struct NoFamily {};

/// Whether every workload that runs the domain moves \p Fam. The
/// dis_interval rows count optional events (forced collapses, ≠-splits,
/// disjunctive joins); seed 3 triggers none of them under dis_interval.
template <typename Fam>
constexpr bool MovesOnEveryWorkload = !std::is_same_v<Fam, DisIntervalCounters>;

/// Runs one seeded edit-and-query workload on InterprocEngine<D> and on
/// InterprocEngine<AnyDomain> bound to \p Key, and checks that the two
/// agree on every rendered query state, on the per-query delta of the work
/// counter family \p Counters returns (if the key has one), on every
/// Statistics counter and on every checker verdict.
template <typename D, typename CountersFn = NoFamily>
void expectErasureTransparent(const std::string &Key, uint64_t Seed,
                              CountersFn Counters = {}) {
  constexpr bool HasFamily = !std::is_same_v<CountersFn, NoFamily>;
  AnyDomainDefaultScope Bind(Key);
  ASSERT_TRUE(Bind.ok());

  // Two identically-seeded generators so both engines see the same edit
  // and query streams on their own program copies.
  WorkloadOptions Opts;
  Opts.Seed = Seed;
  WorkloadGenerator GenD(Opts), GenE(Opts);
  Program ProgD = GenD.makeInitialProgram();
  Program ProgE = GenE.makeInitialProgram();

  InterprocEngine<D> Direct(ProgD, "main", /*K=*/1);
  InterprocEngine<AnyDomain> Erased(ProgE, "main", /*K=*/1);
  ASSERT_TRUE(Direct.valid()) << Direct.error();
  ASSERT_TRUE(Erased.valid()) << Erased.error();

  // Runs \p Query and returns the printed family delta over it ("" for a
  // key with no family); Work sums every counter of every delta.
  uint64_t Work = 0;
  auto Counted = [&](auto Query) -> std::string {
    if constexpr (HasFamily) {
      zeroGauges(Counters());
      auto Before = Counters();
      Query();
      auto Delta = Counters() - Before;
      Delta.forEachCounter(
          [&](const CounterInfo &, uint64_t V) { Work += V; });
      return printed(Delta);
    } else {
      Query();
      return "";
    }
  };

  for (unsigned Edit = 0; Edit < 20; ++Edit) {
    EditRecord RD = GenD.applyRandomEdit(Direct.program());
    EditRecord RE = GenE.applyRandomEdit(Erased.program());
    ASSERT_EQ(RD.Kind, RE.Kind) << "generator streams diverged";
    if (RD.Kind == EditKind::InsertStmt) {
      Direct.applyInsertedStatementEdit("main", RD.At, RD.Splice);
      Erased.applyInsertedStatementEdit("main", RE.At, RE.Splice);
    } else {
      Direct.applyStructuralEdit("main");
      Erased.applyStructuralEdit("main");
    }

    std::vector<Loc> QsD = GenD.sampleQueryLocations(Direct.program(), 3);
    std::vector<Loc> QsE = GenE.sampleQueryLocations(Erased.program(), 3);
    ASSERT_EQ(QsD, QsE);
    for (size_t I = 0; I < QsD.size(); ++I) {
      // The domain work performed per query must be identical op-for-op.
      typename D::Elem SD;
      AnyVal SE;
      std::string DeltaD = Counted([&] { SD = Direct.queryMain(QsD[I]); });
      std::string DeltaE = Counted([&] { SE = Erased.queryMain(QsE[I]); });
      EXPECT_EQ(D::toString(SD), AnyDomain::toString(SE))
          << "state drift at edit " << Edit << " loc l" << QsD[I];
      EXPECT_EQ(DeltaD, DeltaE)
          << Key << " counter drift at edit " << Edit << " loc l" << QsD[I];
    }
  }

  // Not vacuous: the workload ran domain operations and, for a family that
  // every workload moves, moved it.
  EXPECT_GT(Direct.statistics().domainOps(), 0u)
      << "the workload did no " << Key << " work";
  if constexpr (HasFamily) {
    using Fam = std::decay_t<decltype(Counters())>;
    if constexpr (MovesOnEveryWorkload<Fam>) {
      EXPECT_GT(Work, 0u) << "the workload did no " << Key << " family work";
    }
  }

  // The engines' deterministic counters (memo hits/misses, dirtied cells,
  // call summaries, ...) must agree exactly: the type-tagged hash remap is
  // injective, so every Q-Reuse / Q-Match / Q-Miss falls the same way.
  EXPECT_EQ(printed(Direct.statistics()), printed(Erased.statistics()));

  // Checker verdicts obligation-by-obligation on the final programs.
  std::vector<Obligation> ObsD = collectObligations(*Direct.cfgOf("main"));
  std::vector<Obligation> ObsE = collectObligations(*Erased.cfgOf("main"));
  ASSERT_EQ(ObsD.size(), ObsE.size());
  for (size_t I = 0; I < ObsD.size(); ++I) {
    Verdict VD = evaluateObligation<D>(ObsD[I], Direct.queryMain(ObsD[I].At),
                                       false);
    Verdict VE = evaluateObligation<AnyDomain>(
        ObsE[I], Erased.queryMain(ObsE[I].At), false);
    EXPECT_EQ(VD, VE) << "verdict drift on " << ObsD[I].Text;
  }
}

class ErasureTransparencySeed : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ErasureTransparencySeed, ZoneWorkloadBitIdentical) {
  expectErasureTransparent<ZoneDomain>(
      "zone", GetParam(), []() -> ZoneCounters & { return zoneCounters(); });
}

TEST_P(ErasureTransparencySeed, OctagonWorkloadBitIdentical) {
  expectErasureTransparent<OctagonDomain>(
      "octagon", GetParam(),
      []() -> ClosureCounters & { return closureCounters(); });
}

TEST_P(ErasureTransparencySeed, IntervalWorkloadBitIdentical) {
  expectErasureTransparent<IntervalDomain>("interval", GetParam());
}

TEST_P(ErasureTransparencySeed, ConstPropWorkloadBitIdentical) {
  expectErasureTransparent<ConstPropDomain>("constprop", GetParam());
}

TEST_P(ErasureTransparencySeed, DisIntervalWorkloadBitIdentical) {
  expectErasureTransparent<DisIntervalDomain>(
      "dis_interval", GetParam(),
      []() -> DisIntervalCounters & { return disIntervalCounters(); });
}

TEST_P(ErasureTransparencySeed, StagedWorkloadBitIdentical) {
  expectErasureTransparent<StagedDomain>(
      "staged", GetParam(),
      []() -> StagedCounters & { return stagedCounters(); });
}

TEST_P(ErasureTransparencySeed, ShapeWorkloadBitIdentical) {
  expectErasureTransparent<ShapeDomain>("shape", GetParam());
}

TEST_P(ErasureTransparencySeed, ArrIntervalWorkloadBitIdentical) {
  expectErasureTransparent<ArraySmashDomain<IntervalDomain>>("arr_interval",
                                                             GetParam());
}

TEST_P(ErasureTransparencySeed, ArrZoneWorkloadBitIdentical) {
  expectErasureTransparent<ArraySmashDomain<ZoneDomain>>(
      "arr_zone", GetParam(),
      []() -> ZoneCounters & { return zoneCounters(); });
}

TEST_P(ErasureTransparencySeed, ArrDisIntervalWorkloadBitIdentical) {
  expectErasureTransparent<ArraySmashDomain<DisIntervalDomain>>(
      "arr_dis_interval", GetParam(),
      []() -> DisIntervalCounters & { return disIntervalCounters(); });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErasureTransparencySeed,
                         ::testing::Values(3u, 17u, 101u));

//===----------------------------------------------------------------------===//
// Mixed-type regressions (the satellite-4 equal/hash audit)
//===----------------------------------------------------------------------===//

AnyVal valueOf(const std::string &Key, int64_t X) {
  AnyDomainDefaultScope Bind(Key);
  EXPECT_TRUE(Bind.ok());
  return AnyDomain::transfer(Stmt::mkAssign("x", Expr::mkInt(X)),
                             AnyDomain::initialEntry({}));
}

TEST(MixedDomainValues, EqualIsFalseAcrossDomainsNeverUB) {
  AnyVal ZoneV = valueOf("zone", 5);
  AnyVal IntV = valueOf("interval", 5);
  // Same abstract meaning (x = 5), different concrete domains: equal is
  // pinned FALSE in both directions. Anything else would require equal()
  // to reinterpret one representation as the other — the exact UB this
  // contract exists to rule out. Consumers that rely on equal() for
  // convergence (Daig fix edges, staged.cpp's CoW tier promotion, the memo
  // Q-Match confirm in daig.h) only ever compare same-instance values, so
  // the type tag never fires for them.
  EXPECT_FALSE(AnyDomain::equal(ZoneV, IntV));
  EXPECT_FALSE(AnyDomain::equal(IntV, ZoneV));
  EXPECT_NE(AnyDomain::hash(ZoneV), AnyDomain::hash(IntV));
}

TEST(MixedDomainValues, TwoBottomsOfDifferentDomainsAreNotEqual) {
  AnyDomainDefaultScope BindZ("zone");
  AnyVal BotZone = AnyDomain::bottom();
  AnyVal BotInt;
  {
    AnyDomainDefaultScope BindI("interval");
    BotInt = AnyDomain::bottom();
  }
  ASSERT_TRUE(AnyDomain::isBottom(BotZone));
  ASSERT_TRUE(AnyDomain::isBottom(BotInt));
  // Both are ⊥ semantically, but equal() stays representation-honest:
  // cross-domain is false, full stop. (leq is semantic and may hold.)
  EXPECT_FALSE(AnyDomain::equal(BotZone, BotInt));
  EXPECT_FALSE(AnyDomain::equal(BotInt, BotZone));
  EXPECT_NE(AnyDomain::hash(BotZone), AnyDomain::hash(BotInt));
}

TEST(MixedDomainValues, CrossDomainLatticeOpsAreSoundViaBox) {
  for (const std::string &LKey : {"zone", "interval", "dis_interval",
                                  "octagon", "constprop"}) {
    for (const std::string &RKey : {"interval", "shape", "zone"}) {
      AnyVal L = valueOf(LKey, 3);
      AnyVal R = valueOf(RKey, 9);
      // join/widen land in the LEFT operand's domain and stay upper
      // bounds; leq converts the left operand and never crashes.
      AnyVal J = AnyDomain::join(L, R);
      EXPECT_EQ(J.Ops, L.Ops) << LKey << " vs " << RKey;
      EXPECT_TRUE(AnyDomain::leq(L, J)) << LKey << " vs " << RKey;
      AnyVal W = AnyDomain::widen(L, R);
      EXPECT_EQ(W.Ops, L.Ops);
      EXPECT_TRUE(AnyDomain::leq(L, W));
      (void)AnyDomain::leq(R, L); // defined, whatever it answers
      // ⊥ absorbs correctly across the boundary.
      AnyDomainDefaultScope BindR(RKey);
      AnyVal BotR = AnyDomain::bottom();
      AnyVal JB = AnyDomain::join(L, BotR);
      EXPECT_TRUE(AnyDomain::equal(JB, L))
          << LKey << " ⊔ ⊥(" << RKey << ") must be the left value";
    }
  }
}

TEST(MixedDomainValues, HashIsTypeTaggedButInjectivePerDomain) {
  // Same concrete zone value wrapped erased vs. hashed directly: the
  // erased hash differs from the raw hash (type tag mixed in) but is a
  // function of it — two runs over the same value agree, and distinct
  // zone values keep distinct erased hashes (injective remap, so memo
  // hit/miss patterns are preserved exactly).
  AnyVal A5 = valueOf("zone", 5);
  AnyVal B5 = valueOf("zone", 5);
  AnyVal A7 = valueOf("zone", 7);
  EXPECT_EQ(AnyDomain::hash(A5), AnyDomain::hash(B5));
  EXPECT_TRUE(AnyDomain::equal(A5, B5));
  EXPECT_NE(AnyDomain::hash(A5), AnyDomain::hash(A7));
}

//===----------------------------------------------------------------------===//
// Per-function domain policy
//===----------------------------------------------------------------------===//

constexpr const char *CallSource = R"(
function helper(a) {
  var h = a + 2;
  return h;
}
function main(n) {
  var x = helper(5);
  return x;
})";

/// x at main's exit, read back through the value's own ToBox projection.
Interval exitXOf(InterprocEngine<AnyDomain> &Engine) {
  AnyVal Exit = Engine.queryMain(Engine.cfgOf("main")->exit());
  if (!Exit.Ops)
    return Interval::top();
  IntervalState Box = Exit.Ops->ToBox(Exit.V);
  return Box.get("x").Num;
}

TEST(FunctionDomainPolicy, CalleeAdoptsMappedDomainExactly) {
  AnyDomainDefaultScope Bind("zone");
  ASSERT_TRUE(Bind.ok());
  // helper(5) = 7 must come back exact under every numeric caller/callee
  // domain mix: the callee instance runs in the mapped domain and the
  // constant survives both box crossings.
  for (const std::string &CalleeKey :
       {"interval", "constprop", "zone", "octagon", "dis_interval"}) {
    FunctionDomainPolicy Policy;
    ASSERT_TRUE(Policy.set("helper", CalleeKey));
    FunctionDomainPolicyScope Install(&Policy);
    Program P = mustLower(CallSource);
    InterprocEngine<AnyDomain> Engine(P, "main", /*K=*/1);
    ASSERT_TRUE(Engine.valid()) << Engine.error();
    EXPECT_EQ(exitXOf(Engine), Interval::constant(7))
        << "callee domain " << CalleeKey;
  }
}

TEST(FunctionDomainPolicy, SameKeyPolicyIsIdentity) {
  AnyDomainDefaultScope Bind("zone");
  ASSERT_TRUE(Bind.ok());
  // A policy that maps every function to the already-bound key must not
  // change a single rendered state relative to no policy at all.
  Program P1 = mustLower(CallSource);
  InterprocEngine<AnyDomain> Plain(P1, "main", /*K=*/1);
  ASSERT_TRUE(Plain.valid());
  std::string PlainExit =
      AnyDomain::toString(Plain.queryMain(Plain.cfgOf("main")->exit()));

  FunctionDomainPolicy Policy;
  ASSERT_TRUE(Policy.set("helper", "zone"));
  ASSERT_TRUE(Policy.set("main", "zone"));
  ASSERT_TRUE(Policy.setDefault("zone"));
  FunctionDomainPolicyScope Install(&Policy);
  Program P2 = mustLower(CallSource);
  InterprocEngine<AnyDomain> Mapped(P2, "main", /*K=*/1);
  ASSERT_TRUE(Mapped.valid());
  EXPECT_EQ(PlainExit, AnyDomain::toString(
                           Mapped.queryMain(Mapped.cfgOf("main")->exit())));
}

TEST(FunctionDomainPolicy, UnknownKeyIsRejected) {
  FunctionDomainPolicy Policy;
  EXPECT_FALSE(Policy.set("helper", "no_such_domain"));
  EXPECT_FALSE(Policy.setDefault("no_such_domain"));
  EXPECT_TRUE(Policy.set("helper", "interval"));
}

TEST(FunctionDomainPolicy, MixedPolicyStaysSoundOnWorkload) {
  // A deliberately heterogeneous policy over the random interprocedural
  // workload: results must stay sound (never tighter than the from-scratch
  // answer in the same configuration) and the engine must never crash on
  // the cross-domain call boundaries.
  AnyDomainDefaultScope Bind("interval");
  ASSERT_TRUE(Bind.ok());
  FunctionDomainPolicy Policy;
  // The workload generator names its helpers h0, h1, h2, ...
  ASSERT_TRUE(Policy.set("h0", "zone"));
  ASSERT_TRUE(Policy.set("h1", "constprop"));
  ASSERT_TRUE(Policy.set("h2", "dis_interval"));
  FunctionDomainPolicyScope Install(&Policy);

  WorkloadOptions Opts;
  Opts.Seed = 29;
  WorkloadGenerator Gen(Opts);
  Program Initial = Gen.makeInitialProgram();
  InterprocEngine<AnyDomain> Engine(Initial, "main", /*K=*/1);
  ASSERT_TRUE(Engine.valid()) << Engine.error();
  for (unsigned Edit = 0; Edit < 10; ++Edit) {
    EditRecord R = Gen.applyRandomEdit(Engine.program());
    if (R.Kind == EditKind::InsertStmt)
      Engine.applyInsertedStatementEdit("main", R.At, R.Splice);
    else
      Engine.applyStructuralEdit("main");
    for (Loc Q : Gen.sampleQueryLocations(Engine.program(), 3))
      (void)Engine.queryMain(Q);
  }
  InterprocEngine<AnyDomain> Fresh(Engine.program(), "main", /*K=*/1);
  ASSERT_TRUE(Fresh.valid());
  Loc Exit = Engine.cfgOf("main")->exit();
  AnyVal Incr = Engine.queryMain(Exit);
  AnyVal Scratch = Fresh.queryMain(Exit);
  EXPECT_TRUE(AnyDomain::leq(Scratch, Incr))
      << "incremental must over-approximate from-scratch under a mixed "
         "policy\n  incremental: "
      << AnyDomain::toString(Incr)
      << "\n  from-scratch: " << AnyDomain::toString(Scratch);
}

} // namespace
