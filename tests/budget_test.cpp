//===-- tests/budget_test.cpp - Resource-governance tests -----------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis budget layer (support/budget.h): checkpoint latching,
/// cooperative cancellation, graceful degradation to sound ⊤ answers with
/// per-cell degraded provenance, recovery via invalidateDegraded, the
/// staged domain's escalation suppression, and the hard iteration ceilings
/// on the DAIG fix loop and the interprocedural quiescence loop (including
/// a crafted widening-disabled non-converging input).
///
//===----------------------------------------------------------------------===//

#include "support/budget.h"

#include "cfg/cfg_analysis.h"
#include "cfg/edits.h"
#include "domain/interval.h"
#include "domain/staged.h"
#include "interproc/engine.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

using namespace dai;
using namespace dai::test;

namespace {

/// Restores the thread's iteration ceilings on scope exit (tests tighten
/// them to provoke the divergence diagnostics in milliseconds).
struct LimitsGuard {
  AnalysisLimits Saved = analysisLimits();
  ~LimitsGuard() { analysisLimits() = Saved; }
};

/// Interval domain with widening DISABLED (widen = join): iterates of an
/// unbounded counting loop grow forever — the crafted non-converging input
/// the iteration ceiling must turn into a diagnostic rather than a hang.
struct NoWidenInterval : IntervalDomain {
  static Elem widen(const Elem &Prev, const Elem &Next) {
    return join(Prev, Next);
  }
  static const char *name() { return "interval-nowiden"; }
};

//===----------------------------------------------------------------------===//
// Checkpoint mechanics
//===----------------------------------------------------------------------===//

TEST(BudgetCheckpoint, InactiveBudgetIsFree) {
  // No scope installed: checkpoints neither count nor throw.
  budgetCheckpoint("test");
  EXPECT_FALSE(budgetActive());
  EXPECT_FALSE(budgetDegraded());
  EXPECT_FALSE(budgetExhausted());
}

TEST(BudgetCheckpoint, StepLimitLatchesSoftThenHard) {
  AnalysisBudget B;
  B.MaxSteps = 100;
  B.SoftPct = 50;
  BudgetScope Scope(B);
  for (unsigned I = 0; I < 50; ++I)
    budgetCheckpoint("test");
  EXPECT_FALSE(budgetDegraded()) << "soft latched below the soft threshold";
  for (unsigned I = 0; I < 25; ++I)
    budgetCheckpoint("test");
  EXPECT_TRUE(budgetDegraded()) << "soft threshold (50% of 100 steps) passed";
  EXPECT_FALSE(budgetExhausted());
  for (unsigned I = 0; I < 50; ++I)
    budgetCheckpoint("test");
  EXPECT_TRUE(budgetExhausted()) << "hard limit (100 steps) passed";
}

TEST(BudgetCheckpoint, ScopeRestoresOuterState) {
  EXPECT_FALSE(budgetActive());
  {
    AnalysisBudget B;
    B.MaxSteps = 1;
    BudgetScope Scope(B);
    EXPECT_TRUE(budgetActive());
    budgetCheckpoint("test");
    budgetCheckpoint("test");
    EXPECT_TRUE(budgetExhausted());
  }
  EXPECT_FALSE(budgetActive());
  EXPECT_FALSE(budgetExhausted());
}

TEST(BudgetCheckpoint, CancellationHonoredAndCounted) {
  CancellationToken Tok;
  AnalysisBudget B;
  B.Cancel = &Tok;
  BudgetScope Scope(B);
  budgetCheckpoint("test"); // not yet requested: no throw
  uint64_t Before = budgetCounters().CancellationsHonored;
  Tok.requestCancel();
  EXPECT_THROW(budgetCheckpoint("test-site"), AnalysisCancelled);
  EXPECT_EQ(budgetCounters().CancellationsHonored, Before + 1);
  Tok.reset();
  budgetCheckpoint("test"); // reset token: checkpoints pass again
}

TEST(BudgetTaint, ScopeCapturesAndRepropagates) {
  budgetState().TaintPending = false;
  {
    BudgetTaintScope Outer;
    {
      BudgetTaintScope Inner;
      EXPECT_FALSE(Inner.consumed());
      budgetState().TaintPending = true;
      EXPECT_TRUE(Inner.consumed());
    }
    // The inner evaluation's taint re-propagates to the outer frame.
    EXPECT_TRUE(Outer.consumed());
  }
  EXPECT_TRUE(budgetState().TaintPending);
  budgetState().TaintPending = false;
}

//===----------------------------------------------------------------------===//
// Degradation: sound ⊤ answers with provenance, and recovery
//===----------------------------------------------------------------------===//

constexpr const char *LoopSource = R"(
    function main(n) {
      var i = 0;
      var s = 0;
      while (i < n) {
        s = s + 2;
        i = i + 1;
      }
      return s;
    })";

TEST(BudgetDegradation, HardExhaustionYieldsSoundFlaggedTop) {
  Function Oracle = mustLowerFn(LoopSource, "main");
  Daig<IntervalDomain> GOracle(&Oracle.Body,
                               IntervalDomain::initialEntry(Oracle.Params));
  ASSERT_TRUE(GOracle.valid());
  CfgInfo Info = analyzeCfg(Oracle.Body);
  ASSERT_TRUE(Info.valid());
  IntervalState Exact = GOracle.queryLocation(Oracle.Body.exit());

  Function F = mustLowerFn(LoopSource, "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  ASSERT_TRUE(G.valid());
  IntervalState Got;
  {
    AnalysisBudget B;
    B.MaxSteps = 2; // exhausts almost immediately
    BudgetScope Scope(B);
    Got = G.queryLocation(F.Body.exit());
  }
  // Sound: the degraded answer over-approximates the exact one.
  EXPECT_TRUE(IntervalDomain::leq(Exact, Got))
      << "degraded=" << IntervalDomain::toString(Got)
      << " exact=" << IntervalDomain::toString(Exact);
  // Audited: the loss of precision is flagged, not silent.
  EXPECT_GT(G.degradedCellCount(), 0u);
  EXPECT_TRUE(G.locationDegraded(F.Body.exit()));
  EXPECT_EQ(G.auditInvariants(), "");
  EXPECT_EQ(G.checkWellFormed(), "");

  // Non-degraded locations answer bit-identically to the clean run (the
  // budget has expired above, so fresh demands evaluate unbudgeted but
  // still consume — and propagate — degraded provenance).
  for (Loc L : Info.Rpo) {
    if (G.locationDegraded(L))
      continue;
    IntervalState V = G.queryLocation(L);
    EXPECT_TRUE(IntervalDomain::equal(V, GOracle.queryLocation(L)))
        << "non-degraded location l" << L << " diverged";
  }

  // Recovery: dropping the degraded cells and re-demanding converges back
  // to the exact fixpoint.
  EXPECT_GT(G.invalidateDegraded(), 0u);
  EXPECT_EQ(G.degradedCellCount(), 0u);
  IntervalState Recovered = G.queryLocation(F.Body.exit());
  EXPECT_TRUE(IntervalDomain::equal(Recovered, Exact))
      << "recovered=" << IntervalDomain::toString(Recovered)
      << " exact=" << IntervalDomain::toString(Exact);
  EXPECT_EQ(G.auditInvariants(), "");
  EXPECT_EQ(G.checkAiConsistency(), "");
}

TEST(BudgetDegradation, DeadlineExhaustionIsSound) {
  Function Oracle = mustLowerFn(LoopSource, "main");
  Daig<IntervalDomain> GOracle(&Oracle.Body,
                               IntervalDomain::initialEntry(Oracle.Params));
  IntervalState Exact = GOracle.queryLocation(Oracle.Body.exit());

  Function F = mustLowerFn(LoopSource, "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  IntervalState Got;
  {
    AnalysisBudget B;
    B.MaxWallMs = 1e-6; // already expired at the first gauge poll
    BudgetScope Scope(B);
    Got = G.queryLocation(F.Body.exit());
  }
  EXPECT_TRUE(IntervalDomain::leq(Exact, Got));
  EXPECT_TRUE(G.locationDegraded(F.Body.exit()));
  EXPECT_EQ(G.auditInvariants(), "");
}

TEST(BudgetDegradation, CancellationLeavesResumableGraph) {
  Function Oracle = mustLowerFn(LoopSource, "main");
  Daig<IntervalDomain> GOracle(&Oracle.Body,
                               IntervalDomain::initialEntry(Oracle.Params));
  IntervalState Exact = GOracle.queryLocation(Oracle.Body.exit());

  Function F = mustLowerFn(LoopSource, "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  CancellationToken Tok;
  AnalysisBudget B;
  B.Cancel = &Tok;
  BudgetScope Scope(B);
  Tok.requestCancel();
  EXPECT_THROW(G.queryLocation(F.Body.exit()), AnalysisCancelled);
  EXPECT_EQ(G.auditInvariants(), "") << "cancel unwind corrupted the graph";
  Tok.reset();
  // Re-demand with the token reset: bit-identical to the clean run.
  IntervalState V = G.queryLocation(F.Body.exit());
  EXPECT_TRUE(IntervalDomain::equal(V, Exact));
  EXPECT_EQ(G.degradedCellCount(), 0u) << "cancellation must not degrade";
  EXPECT_EQ(G.checkAiConsistency(), "");
}

TEST(BudgetDegradation, EngineDegradesAndRecovers) {
  const char *Src = R"(
    function inc(x) { return x + 1; }
    function main(n) {
      var a = inc(n);
      var i = 0;
      while (i < a) { i = i + 1; }
      var b = inc(i);
      return b;
    })";
  InterprocEngine<IntervalDomain> Oracle(mustLower(Src), "main", 1);
  ASSERT_TRUE(Oracle.valid()) << Oracle.error();
  Loc Exit = Oracle.cfgOf("main")->exit();
  IntervalState Exact = Oracle.queryMain(Exit);

  InterprocEngine<IntervalDomain> E(mustLower(Src), "main", 1);
  ASSERT_TRUE(E.valid());
  IntervalState Got;
  {
    AnalysisBudget B;
    B.MaxSteps = 3;
    BudgetScope Scope(B);
    Got = E.queryMain(Exit);
  }
  EXPECT_TRUE(IntervalDomain::leq(Exact, Got));
  EXPECT_TRUE(E.mainLocationDegraded(Exit));
  EXPECT_GT(E.degradedCellCount(), 0u);
  EXPECT_EQ(E.auditInvariants(), "");

  EXPECT_GT(E.invalidateDegraded(), 0u);
  EXPECT_EQ(E.degradedCellCount(), 0u);
  IntervalState Recovered = E.queryMain(Exit);
  EXPECT_TRUE(IntervalDomain::equal(Recovered, Exact))
      << "recovered=" << IntervalDomain::toString(Recovered)
      << " exact=" << IntervalDomain::toString(Exact);
  EXPECT_FALSE(E.mainLocationDegraded(Exit));
  EXPECT_EQ(E.auditInvariants(), "");
}

TEST(BudgetDegradation, StructuralEditKeepsMarksForRecovery) {
  // A budgeted analysis leaves ⊤-substituted and tainted cells; a
  // structural edit must keep the marks of every cell it keeps, or
  // invalidateDegraded() cannot find them and recovery stays coarse.
  for (uint64_t Seed : {1u, 2u, 3u, 4u}) {
    WorkloadOptions WO;
    WO.Seed = Seed;
    WorkloadGenerator Gen(WO);
    Program P = Gen.makeInitialProgram();
    for (int I = 0; I < 40; ++I)
      Gen.applyRandomEdit(P);
    Function &Main = *P.find("main");
    Daig<IntervalDomain> G(&Main.Body,
                           IntervalDomain::initialEntry(Main.Params));
    {
      AnalysisBudget B;
      B.MaxSteps = 30;
      BudgetScope Scope(B);
      G.queryAllLocations();
    }
    ASSERT_GT(G.degradedCellCount(), 0u) << "seed " << Seed;

    std::vector<Loc> Sites;
    for (Loc L : Main.Body.info().Rpo)
      if (L != Main.Body.exit())
        Sites.push_back(L);
    insertIfAt(Main.Body, Sites[Gen.rng().below(Sites.size())],
               Gen.randomCondition(), Gen.randomStmt(), Gen.randomStmt());
    G.rebuild();
    EXPECT_EQ(G.auditInvariants(), "") << "seed " << Seed;
    G.invalidateDegraded();

    Daig<IntervalDomain> Oracle(&Main.Body,
                                IntervalDomain::initialEntry(Main.Params));
    size_t Coarser = 0;
    for (Loc L : Main.Body.info().Rpo)
      if (!IntervalDomain::equal(G.queryLocation(L), Oracle.queryLocation(L)))
        ++Coarser;
    EXPECT_EQ(Coarser, 0u) << "seed " << Seed
                           << ": locations differ from the unbudgeted run";
    EXPECT_EQ(G.degradedCellCount(), 0u) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Staged domain: escalation suppression under degradation
//===----------------------------------------------------------------------===//

TEST(BudgetStaged, SoftDegradationSuppressesEscalation) {
  const char *Src = R"(
    function main(a, b) {
      var x = a;
      var y = b;
      if (x + y <= 10) {
        var z = x;
        return z;
      }
      return 0;
    })";
  InterprocEngine<StagedDomain> Oracle(mustLower(Src), "main", 1);
  ASSERT_TRUE(Oracle.valid()) << Oracle.error();
  Loc Exit = Oracle.cfgOf("main")->exit();
  Staged Exact = queryEscalatedMain(Oracle, Exit);
  ASSERT_TRUE(Exact.escalated()) << "oracle must escalate on the sum guard";

  InterprocEngine<StagedDomain> E(mustLower(Src), "main", 1);
  ASSERT_TRUE(E.valid());
  uint64_t EscBefore = stagedCounters().Escalations;
  Staged Got;
  {
    AnalysisBudget B;
    B.MaxSteps = 1u << 30;
    B.SoftPct = 0; // soft-degraded from the very first checkpoint
    BudgetScope Scope(B);
    Got = queryEscalatedMain(E, Exit);
  }
  // No re-demand happened and no octagon tier was materialized: the
  // analysis shed the escalation work rather than paying for it.
  EXPECT_EQ(stagedCounters().Escalations, EscBefore);
  EXPECT_FALSE(Got.escalated());
  // The zone tier is still sound: it over-approximates the oracle's.
  EXPECT_TRUE(ZoneDomain::leq(Exact.Z, Got.Z));
  EXPECT_EQ(E.auditInvariants(), "");

  // With the budget gone, the same precision demand escalates exactly.
  Staged Clean = queryEscalatedMain(E, Exit);
  ASSERT_TRUE(Clean.escalated());
  EXPECT_TRUE(StagedDomain::equal(Clean, Exact));
}

TEST(BudgetStaged, NonDegradedLocationsMatchOracleUnderBudget) {
  const char *Src = R"(
    function main(a) {
      var x = a;
      var y = 3;
      var i = 0;
      while (i < x) {
        y = y + 1;
        i = i + 1;
      }
      return y;
    })";
  InterprocEngine<StagedDomain> Oracle(mustLower(Src), "main", 1);
  ASSERT_TRUE(Oracle.valid()) << Oracle.error();
  CfgInfo Info = analyzeCfg(*Oracle.cfgOf("main"));
  ASSERT_TRUE(Info.valid());

  InterprocEngine<StagedDomain> E(mustLower(Src), "main", 1);
  {
    AnalysisBudget B;
    B.MaxSteps = 4;
    BudgetScope Scope(B);
    (void)E.queryMain(Oracle.cfgOf("main")->exit());
  }
  EXPECT_EQ(E.auditInvariants(), "");
  // Zero mismatches against the unbudgeted oracle on every location NOT
  // flagged degraded (the acceptance contract: answers are either exact or
  // verifiably marked).
  for (Loc L : Info.Rpo) {
    if (E.mainLocationDegraded(L))
      continue;
    Staged Got = E.queryMain(L);
    if (E.mainLocationDegraded(L))
      continue; // this very demand consumed a degraded input
    EXPECT_TRUE(StagedDomain::equal(Got, Oracle.queryMain(L)))
        << "unflagged location l" << L << " diverged from the oracle";
  }
}

//===----------------------------------------------------------------------===//
// Iteration ceilings: diagnostics for non-converging inputs
//===----------------------------------------------------------------------===//

constexpr const char *DivergingSource = R"(
    function main() {
      var i = 0;
      while (i >= 0) {
        i = i + 1;
      }
      return i;
    })";

TEST(IterationCeiling, NonConvergingFixThrowsDiagnostic) {
  LimitsGuard Guard;
  analysisLimits().MaxFixUnrollings = 48;
  Function F = mustLowerFn(DivergingSource, "main");
  Daig<NoWidenInterval> G(&F.Body, NoWidenInterval::initialEntry(F.Params));
  ASSERT_TRUE(G.valid());
  try {
    (void)G.queryLocation(F.Body.exit());
    FAIL() << "widening-disabled unbounded loop must not converge";
  } catch (const AnalysisDivergence &E) {
    EXPECT_NE(std::string(E.what()).find("iteration ceiling"),
              std::string::npos)
        << E.what();
  }
  EXPECT_EQ(G.checkWellFormed(), "") << "divergence unwind corrupted graph";
  EXPECT_EQ(G.auditInvariants(), "");
}

TEST(IterationCeiling, WideningConvergesBelowCeiling) {
  // The same program under the REAL interval domain converges fine with the
  // default ceilings — the diagnostic is for broken domains only.
  Function F = mustLowerFn(DivergingSource, "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  EXPECT_NO_THROW((void)G.queryLocation(F.Body.exit()));
}

TEST(IterationCeiling, BudgetedNonConvergingLoopDegradesInstead) {
  LimitsGuard Guard;
  analysisLimits().MaxFixUnrollings = 48;
  Function F = mustLowerFn(DivergingSource, "main");
  Daig<NoWidenInterval> G(&F.Body, NoWidenInterval::initialEntry(F.Params));
  AnalysisBudget B; // active but unlimited: degrade, don't throw
  BudgetScope Scope(B);
  IntervalState V;
  EXPECT_NO_THROW(V = G.queryLocation(F.Body.exit()));
  EXPECT_TRUE(G.locationDegraded(F.Body.exit()));
  EXPECT_EQ(G.auditInvariants(), "");
}

TEST(IterationCeiling, QuiescenceCeilingThrowsDiagnostic) {
  // Two call sites of the same callee under a context-insensitive (k=0)
  // engine: the second site's contribution grows the shared entry, forcing
  // at least one summary-invalidation pass — which a ceiling of 1 turns
  // into the diagnostic.
  const char *Src = R"(
    function f(x) { return x + 1; }
    function main() {
      var a = f(1);
      var b = f(2);
      return a + b;
    })";
  LimitsGuard Guard;
  analysisLimits().MaxQuiescencePasses = 1;
  InterprocEngine<IntervalDomain> E(mustLower(Src), "main", 0);
  ASSERT_TRUE(E.valid()) << E.error();
  try {
    (void)E.queryMain(E.cfgOf("main")->exit());
    FAIL() << "expected the quiescence ceiling to trip at 1 pass";
  } catch (const AnalysisDivergence &Ex) {
    EXPECT_NE(std::string(Ex.what()).find("quiescence"), std::string::npos)
        << Ex.what();
  }
  EXPECT_EQ(E.auditInvariants(), "");
  // With sane limits the same program converges in a couple of passes.
  analysisLimits().MaxQuiescencePasses = 4096;
  InterprocEngine<IntervalDomain> E2(mustLower(Src), "main", 0);
  EXPECT_NO_THROW((void)E2.queryMain(E2.cfgOf("main")->exit()));
}

} // namespace
