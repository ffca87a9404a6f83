//===-- tests/checker_test.cpp - Checker & alarm subsystem tests ----------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The assertion-checking subsystem (analysis/checker.h + checks_db.h):
/// obligation collection and masking, the ⊥-probe verdict rules per check
/// family across the interval/zone/octagon/staged domains, UNREACHABLE on ⊥
/// pre-states, the degraded-provenance clamp (a ⊤-substituted cell can never
/// prove SAFE), ChecksDb bookkeeping, and the core incremental contract:
/// after every random edit, IncrementalChecker's database report is
/// bit-identical to a from-scratch batch re-verification's, over the
/// interval/zone/octagon/staged domains, while re-evaluating strictly fewer
/// obligations than full coverage. Regression tests pin the cases where
/// slice reuse must not fire, and the work counters pin what a pass does.
///
//===----------------------------------------------------------------------===//

#include "analysis/checker.h"

#include "cfg/edits.h"
#include "domain/interval.h"
#include "domain/octagon.h"
#include "domain/staged.h"
#include "domain/zone.h"
#include "support/budget.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

using namespace dai;
using namespace dai::test;

namespace {

//===----------------------------------------------------------------------===//
// Obligation collection
//===----------------------------------------------------------------------===//

TEST(ObligationCollection, DerivesEveryFamilyDeterministically) {
  const char *Src = R"(
    function main(n, d) {
      var a = [1, 2, 3];
      var x = a[n];
      a[x] = n / d;
      assert(x >= 0);
      return x;
    })";
  Function F = mustLowerFn(Src, "main");
  std::vector<Obligation> Obs = collectObligations(F.Body);
  // a[n] read → bounds; a[x] write → bounds; n / d → div-by-zero; assert →
  // user assertion; no +,-,* in sight → no overflow obligations.
  std::map<CheckKind, unsigned> Counts;
  for (const Obligation &Ob : Obs)
    ++Counts[Ob.Kind];
  EXPECT_EQ(Counts[CheckKind::ArrayBounds], 2u);
  EXPECT_EQ(Counts[CheckKind::DivByZero], 1u);
  EXPECT_EQ(Counts[CheckKind::UserAssertion], 1u);
  EXPECT_EQ(Counts[CheckKind::Overflow], 0u);
  // Ascending (EdgeId, SubIndex) order — the DB's determinism contract.
  for (size_t I = 1; I < Obs.size(); ++I)
    EXPECT_TRUE(Obs[I - 1].Edge < Obs[I].Edge ||
                (Obs[I - 1].Edge == Obs[I].Edge &&
                 Obs[I - 1].SubIndex < Obs[I].SubIndex));
}

TEST(ObligationCollection, MaskFiltersFamilies) {
  const char *Src = R"(
    function main(n, d) {
      var x = n / d;
      assert(x > 0);
      return x + 1;
    })";
  Function F = mustLowerFn(Src, "main");
  for (CheckKind K : {CheckKind::UserAssertion, CheckKind::DivByZero,
                      CheckKind::Overflow}) {
    std::vector<Obligation> Obs = collectObligations(F.Body, checkMask(K));
    ASSERT_FALSE(Obs.empty()) << checkKindName(K);
    for (const Obligation &Ob : Obs)
      EXPECT_EQ(Ob.Kind, K);
  }
  EXPECT_TRUE(collectObligations(F.Body, 0u).empty());
}

//===----------------------------------------------------------------------===//
// Verdict rules per domain (typed across the numeric domain stack)
//===----------------------------------------------------------------------===//

template <typename D> class CheckerDomainTest : public ::testing::Test {};
using CheckerDomains =
    ::testing::Types<IntervalDomain, ZoneDomain, OctagonDomain, StagedDomain>;
TYPED_TEST_SUITE(CheckerDomainTest, CheckerDomains, );

/// Evaluates the obligations of `main` in \p Src against a fresh DAIG and
/// returns the database (all families unless \p Mask narrows them).
template <typename D>
ChecksDb verify(const char *Src, uint32_t Mask = kAllChecks) {
  Function F = mustLowerFn(Src, "main");
  Daig<D> G(&F.Body, D::initialEntry(F.Params));
  EXPECT_TRUE(G.valid());
  ChecksDb Db;
  std::vector<Obligation> Obs = collectObligations(F.Body, Mask);
  runChecks<D>(
      Obs, [&](Loc L) { return G.queryLocation(L); },
      [&](Loc L) { return G.locationDegraded(L); }, Db);
  return Db;
}

TYPED_TEST(CheckerDomainTest, ProvenAssertionIsSafe) {
  ChecksDb Db = verify<TypeParam>(R"(
      function main() {
        var x = 5;
        assert(x > 0);
        return x;
      })",
                                  checkMask(CheckKind::UserAssertion));
  ASSERT_EQ(Db.size(), 1u);
  EXPECT_EQ(Db.counts().Safe, 1u);
  EXPECT_FALSE(Db.hasAlarms());
}

TYPED_TEST(CheckerDomainTest, RefutedAssertionIsError) {
  ChecksDb Db = verify<TypeParam>(R"(
      function main() {
        var x = 5;
        assert(x < 0);
        return x;
      })",
                                  checkMask(CheckKind::UserAssertion));
  ASSERT_EQ(Db.size(), 1u);
  EXPECT_EQ(Db.counts().Error, 1u);
  EXPECT_TRUE(Db.hasAlarms());
}

TYPED_TEST(CheckerDomainTest, UnprovenAssertionIsWarning) {
  ChecksDb Db = verify<TypeParam>(R"(
      function main(n) {
        assert(n > 0);
        return n;
      })",
                                  checkMask(CheckKind::UserAssertion));
  ASSERT_EQ(Db.size(), 1u);
  EXPECT_EQ(Db.counts().Warning, 1u);
}

TYPED_TEST(CheckerDomainTest, DeadBranchAssertionIsUnreachable) {
  ChecksDb Db = verify<TypeParam>(R"(
      function main() {
        var x = 1;
        if (x < 0) {
          assert(x == 7);
        }
        return x;
      })",
                                  checkMask(CheckKind::UserAssertion));
  ASSERT_EQ(Db.size(), 1u);
  EXPECT_EQ(Db.counts().Unreachable, 1u);
  EXPECT_FALSE(Db.hasAlarms()) << "vacuous checks are not alarms";
}

TYPED_TEST(CheckerDomainTest, DivByZeroVerdicts) {
  // Nonzero constant divisor: proven safe.
  ChecksDb Safe = verify<TypeParam>(R"(
      function main(n) {
        var x = n / 2;
        return x;
      })",
                                    checkMask(CheckKind::DivByZero));
  ASSERT_EQ(Safe.size(), 1u);
  EXPECT_EQ(Safe.counts().Safe, 1u);

  // Constant zero divisor: refuted on every reaching execution.
  ChecksDb Err = verify<TypeParam>(R"(
      function main(n) {
        var d = 0;
        var x = n / d;
        return x;
      })",
                                   checkMask(CheckKind::DivByZero));
  ASSERT_EQ(Err.size(), 1u);
  EXPECT_EQ(Err.counts().Error, 1u);

  // Unknown divisor: unproven either way.
  ChecksDb Warn = verify<TypeParam>(R"(
      function main(n, d) {
        var x = n % d;
        return x;
      })",
                                    checkMask(CheckKind::DivByZero));
  ASSERT_EQ(Warn.size(), 1u);
  EXPECT_EQ(Warn.counts().Warning, 1u);
}

TEST(CheckerInterval, ArrayBoundsVerdicts) {
  // Constant in-bounds read: proven.
  ChecksDb Safe = verify<IntervalDomain>(R"(
      function main() {
        var a = [1, 2, 3];
        var x = a[1];
        return x;
      })",
                                         checkMask(CheckKind::ArrayBounds));
  ASSERT_EQ(Safe.size(), 1u);
  EXPECT_EQ(Safe.counts().Safe, 1u);

  // Constant out-of-bounds write: refuted.
  ChecksDb Err = verify<IntervalDomain>(R"(
      function main() {
        var a = [1, 2, 3];
        a[5] = 0;
        return a[0];
      })",
                                        checkMask(CheckKind::ArrayBounds));
  EXPECT_GE(Err.counts().Error, 1u);

  // Unknown index: unproven.
  ChecksDb Warn = verify<IntervalDomain>(R"(
      function main(i) {
        var a = [1, 2, 3];
        var x = a[i];
        return x;
      })",
                                         checkMask(CheckKind::ArrayBounds));
  ASSERT_EQ(Warn.size(), 1u);
  EXPECT_EQ(Warn.counts().Warning, 1u);
}

TEST(CheckerInterval, OverflowVerdicts) {
  // Small constant arithmetic: contained in the 32-bit range.
  ChecksDb Safe = verify<IntervalDomain>(R"(
      function main() {
        var x = 1 + 2;
        return x;
      })",
                                         checkMask(CheckKind::Overflow));
  ASSERT_EQ(Safe.size(), 1u);
  EXPECT_EQ(Safe.counts().Safe, 1u);

  // Unbounded operands: unproven.
  ChecksDb Warn = verify<IntervalDomain>(R"(
      function main(n) {
        var x = n + n;
        return x;
      })",
                                         checkMask(CheckKind::Overflow));
  ASSERT_EQ(Warn.size(), 1u);
  EXPECT_EQ(Warn.counts().Warning, 1u);
}

TEST(CheckerUnit, BottomPreStateIsUnreachable) {
  Obligation Ob;
  Ob.Prop = Expr::mkBinary(BinaryOp::Gt, Expr::mkVar("x"), Expr::mkInt(0));
  Statistics Stats;
  EXPECT_EQ(evaluateObligation<IntervalDomain>(Ob, IntervalDomain::bottom(),
                                               /*DegradedPre=*/false, &Stats),
            Verdict::Unreachable);
  EXPECT_EQ(Stats.ChecksEvaluated, 1u);
}

//===----------------------------------------------------------------------===//
// Degraded provenance: a ⊤-substituted cell can never prove SAFE
//===----------------------------------------------------------------------===//

TEST(CheckerDegraded, DbClampsSafeToWarning) {
  ChecksDb Db;
  Statistics Stats;
  CheckResult R;
  R.Kind = CheckKind::UserAssertion;
  R.V = Verdict::Safe;
  R.At = 3;
  R.DegradedPre = true;
  Db.add(R, &Stats);
  EXPECT_EQ(Db.counts().Safe, 0u);
  EXPECT_EQ(Db.counts().Warning, 1u);
  EXPECT_EQ(Db.worstAt(3), Verdict::Warning);
  EXPECT_EQ(Stats.AlarmsRaised, 1u) << "the clamped verdict is an alarm";

  // Non-degraded Safe passes through untouched.
  R.DegradedPre = false;
  R.At = 4;
  Db.add(R, &Stats);
  EXPECT_EQ(Db.counts().Safe, 1u);
  EXPECT_EQ(Db.worstAt(4), Verdict::Safe);
  EXPECT_EQ(Stats.AlarmsRaised, 1u);
}

TEST(CheckerDegraded, ExhaustedBudgetYieldsWarningNotSafe) {
  // assert(0 == 0) holds of ANY state — even the budget's ⊤ substitute —
  // so the entailment probe succeeds; the degraded clamp alone must keep
  // the verdict at WARNING.
  const char *Src = R"(
    function main(n) {
      var i = 0;
      while (i < n) {
        i = i + 1;
      }
      assert(0 == 0);
      return i;
    })";
  Function F = mustLowerFn(Src, "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  ASSERT_TRUE(G.valid());
  ChecksDb Db;
  Statistics Stats;
  std::vector<Obligation> Obs =
      collectObligations(F.Body, checkMask(CheckKind::UserAssertion));
  ASSERT_EQ(Obs.size(), 1u);
  {
    AnalysisBudget B;
    B.MaxSteps = 2; // exhausts almost immediately
    BudgetScope Scope(B);
    runChecks<IntervalDomain>(
        Obs, [&](Loc L) { return G.queryLocation(L); },
        [&](Loc L) { return G.locationDegraded(L); }, Db, &Stats);
  }
  ASSERT_TRUE(G.locationDegraded(Obs[0].At))
      << "budget must have degraded the checked pre-state";
  ASSERT_EQ(Db.size(), 1u);
  const CheckResult &R = Db.at(Obs[0].At)[0];
  EXPECT_EQ(R.V, Verdict::Warning) << "degraded pre-state proved SAFE";
  EXPECT_TRUE(R.DegradedPre);
  EXPECT_EQ(Stats.AlarmsRaised, 1u);

  // Recovery: dropping the degraded cells re-proves the tautology.
  EXPECT_GT(G.invalidateDegraded(), 0u);
  ChecksDb Clean;
  runChecks<IntervalDomain>(
      Obs, [&](Loc L) { return G.queryLocation(L); },
      [&](Loc L) { return G.locationDegraded(L); }, Clean);
  EXPECT_EQ(Clean.counts().Safe, 1u);
  EXPECT_FALSE(Clean.at(Obs[0].At)[0].DegradedPre);
}

//===----------------------------------------------------------------------===//
// ChecksDb bookkeeping
//===----------------------------------------------------------------------===//

TEST(ChecksDbTest, ReportAndWorstAt) {
  ChecksDb Db = verify<IntervalDomain>(R"(
      function main(i) {
        var a = [1, 2, 3];
        var x = a[i];
        assert(x >= 0);
        a[9] = 1;
        return x;
      })");
  EXPECT_TRUE(Db.hasAlarms());
  std::string Report = Db.report();
  EXPECT_NE(Report.find("[WARNING]"), std::string::npos) << Report;
  EXPECT_NE(Report.find("[ERROR]"), std::string::npos) << Report;
  EXPECT_NE(Report.find("array-bounds"), std::string::npos) << Report;
  EXPECT_NE(Report.find("checks:"), std::string::npos) << Report;
  // worstAt ranks Error over Warning over Safe.
  Verdict Worst = Verdict::Unreachable;
  for (Loc L : Db.locations())
    if (Db.worstAt(L) == Verdict::Error)
      Worst = Verdict::Error;
  EXPECT_EQ(Worst, Verdict::Error);
  // Locations are ascending and at() round-trips the totals.
  std::vector<Loc> Ls = Db.locations();
  size_t N = 0;
  for (size_t I = 0; I < Ls.size(); ++I) {
    if (I) {
      EXPECT_LT(Ls[I - 1], Ls[I]);
    }
    N += Db.at(Ls[I]).size();
  }
  EXPECT_EQ(N, Db.size());
  Db.clear();
  EXPECT_TRUE(Db.empty());
  EXPECT_FALSE(Db.hasAlarms());
}

TEST(ChecksDbTest, ReplaceEdgeKeepsRowsInEdgeOrder) {
  auto Row = [](EdgeId E, Loc At, uint32_t Sub, Verdict V,
                bool Degraded = false) {
    return CheckResult{CheckKind::UserAssertion, V, E, At, Sub, "p",
                       "interval", Degraded};
  };
  ChecksDb Db;
  Db.replaceEdge(7, InvalidLoc, {Row(7, 1, 0, Verdict::Error)});
  Db.replaceEdge(3, InvalidLoc,
                 {Row(3, 1, 0, Verdict::Safe), Row(3, 1, 1, Verdict::Safe)});
  Db.replaceEdge(5, InvalidLoc, {Row(5, 1, 0, Verdict::Safe, true)});
  // The same rows added in (EdgeId, SubIndex) order, as runChecks does.
  ChecksDb Scratch;
  for (CheckResult R :
       {Row(3, 1, 0, Verdict::Safe), Row(3, 1, 1, Verdict::Safe),
        Row(5, 1, 0, Verdict::Safe, true), Row(7, 1, 0, Verdict::Error)})
    Scratch.add(R);
  EXPECT_EQ(Db.report(), Scratch.report());
  EXPECT_EQ(Db.at(1)[2].V, Verdict::Warning) << "degraded SAFE is clamped";

  // Moving edge 5 to location 2 and removing edge 3 leave location 1 with
  // edge 7 alone; removing edge 7 drops location 1 from the database.
  Db.replaceEdge(5, 1, {Row(5, 2, 0, Verdict::Unreachable)});
  Db.replaceEdge(3, 1, {});
  ASSERT_EQ(Db.at(1).size(), 1u);
  EXPECT_EQ(Db.at(1)[0].Edge, 7u);
  Db.replaceEdge(7, 1, {});
  EXPECT_EQ(Db.locations(), std::vector<Loc>{2});
  EXPECT_EQ(Db.counts(), (VerdictCounts{0, 0, 0, 1}));
}

//===----------------------------------------------------------------------===//
// Incremental-vs-batch equivalence under random edits
//===----------------------------------------------------------------------===//

/// From-scratch verification of `main` on a fresh DAIG: the report the
/// incremental checker's database must equal, row for row.
template <typename D>
std::string scratchReport(Function &Main, uint32_t Mask = kAllChecks) {
  Daig<D> Fresh(&Main.Body, D::initialEntry(Main.Params));
  ChecksDb Db;
  runChecks<D>(
      collectObligations(Main.Body, Mask),
      [&](Loc L) { return Fresh.queryLocation(L); },
      [&](Loc L) { return Fresh.locationDegraded(L); }, Db);
  return Db.report();
}

/// Random-edit equivalence: after EVERY edit the incremental checker's
/// database must read exactly like a from-scratch batch verification —
/// the same rows at the same locations in the same order, with the same
/// verdicts, texts and degraded flags — and over the run it must
/// re-evaluate strictly fewer obligations than the total it covers (i.e.,
/// the cache tiers actually fire). With \p ClientQueries, a few sampled
/// locations are queried between each edit and the next pass, as an editor
/// does.
template <typename D>
void runEquivalence(uint64_t Seed, unsigned Edits,
                    bool ClientQueries = false) {
  WorkloadOptions Opts;
  Opts.Seed = Seed;
  Opts.PctAssertStmt = 20; // workload opt-in: make user assertions common
  WorkloadGenerator Gen(Opts);
  Program P = Gen.makeInitialProgram();
  Function *Main = P.find("main");
  ASSERT_NE(Main, nullptr);
  Statistics Stats;
  Daig<D> G(&Main->Body, D::initialEntry(Main->Params), &Stats);
  ASSERT_TRUE(G.valid());
  IncrementalChecker<D> Inc(G, Main->Body, &Stats);
  Inc.recheck();
  uint64_t Covered = 0; // obligations covered by passes 2..N
  for (unsigned I = 0; I < Edits; ++I) {
    EditRecord Rec = Gen.applyRandomEdit(P);
    if (Rec.Kind == EditKind::InsertStmt)
      G.applyInsertedStatement(Rec.At, Rec.Splice);
    else
      G.rebuild();
    if (ClientQueries)
      for (Loc L : Gen.sampleQueryLocations(P, 3))
        (void)G.queryLocation(L);
    Inc.recheck();
    Covered += Inc.obligationCount();
    ASSERT_EQ(Inc.db().report(), scratchReport<D>(*Main))
        << D::name() << " seed " << Seed << " diverged after edit " << I;
  }
  EXPECT_GT(Covered, 0u) << "workload produced no obligations";
  EXPECT_LT(Stats.ChecksRechecked, Covered)
      << "incremental pass re-evaluated everything — no reuse at all";
}

TEST(CheckerIncremental, MatchesBatchInterval) {
  for (uint64_t Seed : {1u, 2u, 3u})
    runEquivalence<IntervalDomain>(Seed, 40);
}

TEST(CheckerIncremental, MatchesBatchWithClientQueries) {
  for (uint64_t Seed : {1u, 2u, 3u})
    runEquivalence<IntervalDomain>(Seed, 40, /*ClientQueries=*/true);
}

TEST(CheckerIncremental, MatchesBatchZone) {
  for (uint64_t Seed : {1u, 2u, 3u})
    runEquivalence<ZoneDomain>(Seed, 40);
}

TEST(CheckerIncremental, MatchesBatchOctagon) {
  for (uint64_t Seed : {1u, 2u, 3u})
    runEquivalence<OctagonDomain>(Seed, 40);
}

TEST(CheckerIncremental, MatchesBatchStaged) {
  for (uint64_t Seed : {1u, 2u, 3u})
    runEquivalence<StagedDomain>(Seed, 40);
}

//===----------------------------------------------------------------------===//
// Reuse-tier regressions and the work a pass does
//===----------------------------------------------------------------------===//

Stmt assertGt(const char *V, int64_t C) {
  return Stmt::mkAssert(
      Expr::mkBinary(BinaryOp::Gt, Expr::mkVar(V), Expr::mkInt(C)));
}

constexpr uint32_t AssertionsOnly = checkMask(CheckKind::UserAssertion);

/// Tier 1 must not replay a verdict whose source an edit cut off from the
/// entry: the from-scratch answer is UNREACHABLE.
TEST(CheckerIncremental, CutOffSourceReadsUnreachable) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var x = 1;
      var y = 2;
      return y;
    })",
                           "main");
  Loc Dead = F.Body.addLoc();
  Loc Dead2 = F.Body.addLoc();
  F.Body.addEdge(Dead, Dead2, assertGt("x", 5));
  F.Body.addEdge(Dead2, destOf(F.Body, "y = 2"), Stmt::mkSkip());
  EdgeId Link =
      F.Body.addEdge(destOf(F.Body, "x = 1"), Dead, Stmt::mkSkip());
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  IncrementalChecker<IntervalDomain> Inc(G, F.Body, nullptr, AssertionsOnly);
  Inc.recheck();
  ASSERT_EQ(Inc.db().worstAt(Dead), Verdict::Error);

  F.Body.removeEdge(Link);
  G.rebuild();
  Inc.recheck();
  EXPECT_EQ(Inc.db().counts().Unreachable, 1u);
  EXPECT_EQ(Inc.db().report(),
            scratchReport<IntervalDomain>(F, AssertionsOnly));
}

/// Tier 1 must not replay verdicts computed at an edge's old source after
/// redirectSrc moved the edge onto a location that already holds a value.
TEST(CheckerIncremental, RedirectedSourceIsReevaluated) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var x = 1;
      x = 10;
      var y = 2;
      return y;
    })",
                           "main");
  Loc Mid = F.Body.addLoc();
  EdgeId Check = F.Body.addEdge(destOf(F.Body, "x = 1"), Mid, assertGt("x", 5));
  F.Body.addEdge(Mid, destOf(F.Body, "y = 2"), Stmt::mkSkip());
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  IncrementalChecker<IntervalDomain> Inc(G, F.Body, nullptr, AssertionsOnly);
  G.queryAllLocations(); // the location after `x = 10` holds a value
  Inc.recheck();
  ASSERT_EQ(Inc.db().counts().Error, 1u);

  F.Body.redirectSrc(Check, destOf(F.Body, "x = 10"));
  G.rebuild();
  Inc.recheck();
  EXPECT_EQ(Inc.db().counts().Safe, 1u);
  EXPECT_EQ(Inc.db().report(),
            scratchReport<IntervalDomain>(F, AssertionsOnly));
}

/// Tier 1 must not trust a filled cell that a client query refilled after
/// an edit dirtied it: the cell holds the new pre-state, not the cached one.
TEST(CheckerIncremental, QueryBetweenPassesIsNotReplayed) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var x = 1;
      assert(x > 5);
      return x;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  IncrementalChecker<IntervalDomain> Inc(G, F.Body, nullptr, AssertionsOnly);
  Inc.recheck();
  ASSERT_EQ(Inc.db().counts().Error, 1u);

  G.applyStatementEdit(edgeOf(F.Body, "x = 1"),
                       Stmt::mkAssign("x", Expr::mkInt(10)));
  G.queryAllLocations();
  Inc.recheck();
  EXPECT_EQ(Inc.db().counts().Safe, 1u);
  EXPECT_EQ(Inc.db().report(),
            scratchReport<IntervalDomain>(F, AssertionsOnly));
}

/// A budget-degraded pass records WARNING rows flagged degraded; once the
/// degraded cells are dropped, the next pass rewrites them to the
/// from-scratch SAFE rows.
TEST(CheckerIncremental, DegradedRowsRecoverExactly) {
  Function F = mustLowerFn(R"(
    function main(n) {
      var i = 0;
      while (i < n) {
        i = i + 1;
      }
      assert(0 == 0);
      return i;
    })",
                           "main");
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  IncrementalChecker<IntervalDomain> Inc(G, F.Body, nullptr, AssertionsOnly);
  {
    AnalysisBudget B;
    B.MaxSteps = 2; // exhausts almost immediately
    BudgetScope Scope(B);
    Inc.recheck();
  }
  EXPECT_EQ(Inc.db().counts().Warning, 1u);
  EXPECT_NE(Inc.db().report().find("degraded pre-state"), std::string::npos)
      << Inc.db().report();

  EXPECT_GT(G.invalidateDegraded(), 0u);
  Inc.recheck();
  EXPECT_EQ(Inc.db().counts().Safe, 1u);
  EXPECT_EQ(Inc.db().report(),
            scratchReport<IntervalDomain>(F, AssertionsOnly));
}

/// A pass with no edit since the last one collects, queries and evaluates
/// nothing, and leaves the database as it was.
TEST(CheckerIncremental, PassWithoutEditDoesNoWork) {
  WorkloadOptions Opts;
  Opts.Seed = 4;
  Opts.PctAssertStmt = 20;
  WorkloadGenerator Gen(Opts);
  Program P = Gen.makeInitialProgram();
  Function *Main = P.find("main");
  ASSERT_NE(Main, nullptr);
  Statistics Stats;
  Daig<IntervalDomain> G(&Main->Body,
                         IntervalDomain::initialEntry(Main->Params), &Stats);
  IncrementalChecker<IntervalDomain> Inc(G, Main->Body, &Stats);
  Inc.recheck();
  for (unsigned I = 0; I < 10; ++I) {
    EditRecord Rec = Gen.applyRandomEdit(P);
    if (Rec.Kind == EditKind::InsertStmt)
      G.applyInsertedStatement(Rec.At, Rec.Splice);
    else
      G.rebuild();
    Inc.recheck();
  }
  ASSERT_GT(Inc.obligationCount(), 0u);
  std::string Before = Inc.db().report();
  Statistics Snapshot = Stats;
  Inc.recheck();
  EXPECT_EQ(Stats.ChecksCollected, Snapshot.ChecksCollected);
  EXPECT_EQ(Stats.ChecksEvaluated, Snapshot.ChecksEvaluated);
  EXPECT_EQ(Stats.CellReuses, Snapshot.CellReuses) << "a query ran";
  EXPECT_EQ(Inc.db().report(), Before);
}

/// The obligations a pass collects after a statement insertion outside
/// loops are the inserted statement's own, whatever the program's size.
TEST(CheckerIncremental, CollectedChecksDoNotGrowWithProgramSize) {
  auto collected = [](unsigned N) {
    Function F = straightLine(N);
    Statistics Stats;
    Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params),
                           &Stats);
    IncrementalChecker<IntervalDomain> Inc(G, F.Body, &Stats);
    Inc.recheck();
    uint64_t Before = Stats.ChecksCollected;
    Loc At = destOf(F.Body, "x1 = x0 + 1");
    InsertResult R = insertStmtAt(
        F.Body, At,
        Stmt::mkPrint(Expr::mkBinary(BinaryOp::Mul, Expr::mkVar("x1"),
                                     Expr::mkInt(2))));
    G.applyInsertedStatement(At, R);
    Inc.recheck();
    EXPECT_EQ(Inc.db().report(), scratchReport<IntervalDomain>(F));
    return Stats.ChecksCollected - Before;
  };
  uint64_t Small = collected(50), Large = collected(500);
  EXPECT_EQ(Small, 1u) << "the inserted statement's overflow check";
  EXPECT_EQ(Small, Large);
}

} // namespace
