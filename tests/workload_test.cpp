//===-- tests/workload_test.cpp - Workload generator & stress tests -------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 7.3 workload generator: determinism under fixed seeds
/// (configurations must see identical edit/query streams), the 85/10/5 edit
/// mix, preservation of CFG well-formedness over long edit sequences — and
/// the strongest end-to-end property test in the suite: long randomized
/// edit/query runs on a live DAIG, checking from-scratch consistency
/// against the batch oracle at every step (Theorem 6.1 under edits).
///
//===----------------------------------------------------------------------===//

#include "workload/generator.h"

#include "domain/constprop.h"
#include "domain/interval.h"
#include "domain/octagon.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

using namespace dai;
using namespace dai::test;

namespace {

TEST(Workload, DeterministicUnderSeed) {
  auto run = [](uint64_t Seed) {
    WorkloadOptions Opts;
    Opts.Seed = Seed;
    WorkloadGenerator Gen(Opts);
    Program P = Gen.makeInitialProgram();
    std::string Trace;
    for (int I = 0; I < 60; ++I) {
      EditRecord R = Gen.applyRandomEdit(P);
      Trace += std::to_string(static_cast<int>(R.Kind)) + ":" +
               std::to_string(R.At) + ";";
    }
    Trace += P.find("main")->Body.toString();
    return Trace;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Workload, EditMixMatchesConfiguredProbabilities) {
  WorkloadOptions Opts;
  Opts.Seed = 3;
  WorkloadGenerator Gen(Opts);
  Program P = Gen.makeInitialProgram();
  unsigned Counts[3] = {0, 0, 0};
  const unsigned N = 1200;
  for (unsigned I = 0; I < N; ++I) {
    EditRecord R = Gen.applyRandomEdit(P);
    ++Counts[static_cast<int>(R.Kind)];
  }
  // 85% / 10% / 5% within generous statistical slack.
  EXPECT_NEAR(Counts[0] / double(N), 0.85, 0.04);
  EXPECT_NEAR(Counts[1] / double(N), 0.10, 0.03);
  EXPECT_NEAR(Counts[2] / double(N), 0.05, 0.03);
}

TEST(Workload, LongEditSequencePreservesWellFormedCfg) {
  WorkloadOptions Opts;
  Opts.Seed = 11;
  WorkloadGenerator Gen(Opts);
  Program P = Gen.makeInitialProgram();
  for (int I = 0; I < 400; ++I)
    Gen.applyRandomEdit(P);
  CfgInfo Info = analyzeCfg(P.find("main")->Body);
  EXPECT_TRUE(Info.valid()) << Info.Error;
  EXPECT_GT(Info.LoopBackEdge.size(), 0u) << "some whiles must have landed";
  EXPECT_GT(Info.JoinPoints.size(), 0u);
}

TEST(Workload, QueriesAreReachableLocations) {
  WorkloadOptions Opts;
  Opts.Seed = 5;
  WorkloadGenerator Gen(Opts);
  Program P = Gen.makeInitialProgram();
  for (int I = 0; I < 50; ++I)
    Gen.applyRandomEdit(P);
  CfgInfo Info = analyzeCfg(P.find("main")->Body);
  for (Loc Q : Gen.sampleQueryLocations(P, 40))
    EXPECT_TRUE(Info.Reachable[Q]);
}

//===----------------------------------------------------------------------===//
// End-to-end stress: randomized edits + from-scratch consistency
//===----------------------------------------------------------------------===//

/// Applies \p Edits generator edits to a single-function DAIG (the statement
/// splice for statement insertions, rebuild otherwise), checking
/// consistency with the batch oracle after every step.
template <typename D>
void stressDaig(uint64_t Seed, unsigned Edits, unsigned CheckEvery) {
  WorkloadOptions Opts;
  Opts.Seed = Seed;
  Opts.PctCallStmt = 0; // intraprocedural: the oracle has no call resolver
  WorkloadGenerator Gen(Opts);
  Program P = Gen.makeInitialProgram();
  Function &Main = *P.find("main");
  Daig<D> G(&Main.Body, D::initialEntry(Main.Params));
  ASSERT_TRUE(G.valid());
  for (unsigned I = 0; I < Edits; ++I) {
    EditRecord R = Gen.applyRandomEdit(P);
    if (R.Kind == EditKind::InsertStmt)
      G.applyInsertedStatement(R.At, R.Splice);
    else
      G.rebuild();
    for (Loc Q : Gen.sampleQueryLocations(P, 3))
      (void)G.queryLocation(Q);
    ASSERT_EQ(G.checkWellFormed(), "") << "edit " << I;
    if (I % CheckEvery == 0) {
      ASSERT_EQ(G.checkAiConsistency(), "") << "edit " << I;
      SCOPED_TRACE("edit " + std::to_string(I));
      expectFromScratchConsistent<D>(Main, G);
      if (::testing::Test::HasFailure())
        return; // one detailed failure beats a cascade
    }
  }
}

class WorkloadStressSeed : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkloadStressSeed, ConstPropStaysConsistent) {
  stressDaig<ConstPropDomain>(GetParam(), 60, 5);
}

TEST_P(WorkloadStressSeed, IntervalStaysConsistent) {
  stressDaig<IntervalDomain>(GetParam(), 45, 5);
}

TEST_P(WorkloadStressSeed, OctagonStaysConsistent) {
  stressDaig<OctagonDomain>(GetParam(), 25, 6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadStressSeed,
                         ::testing::Values(101u, 202u, 303u, 404u));

} // namespace
