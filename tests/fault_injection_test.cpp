//===-- tests/fault_injection_test.cpp - Deterministic fault tests --------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection (support/fault_injection.h): a cancellation
/// or simulated allocation failure fired at EVERY analysis boundary —
/// cell-evaluation, fix-iteration, closure-kernel, and memo trigger points,
/// across a matrix of seeds and trigger strides — must leave the engine
/// audit-clean (Daig/engine structural invariants hold) and RESUMABLE: a
/// re-demand after disarming yields results bit-identical to a clean,
/// never-faulted run over the same seeded workload program. The trigger
/// points are compiled into every build.
///
//===----------------------------------------------------------------------===//

#include "support/fault_injection.h"

#include "domain/interval.h"
#include "domain/staged.h"
#include "domain/zone.h"
#include "interproc/engine.h"
#include "support/budget.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace dai;
using namespace dai::test;

namespace {

/// Disarms the thread's fault plan on scope exit — a test that fails via
/// ASSERT must not leave an armed plan behind for the next test.
struct DisarmGuard {
  ~DisarmGuard() { fi::disarm(); }
};

/// Builds the seeded workload program (a main with loops/branches/calls
/// plus helpers) the fault matrix runs against.
Program workloadProgram(uint64_t Seed, unsigned Edits) {
  WorkloadOptions Opts;
  Opts.Seed = Seed;
  WorkloadGenerator Gen(Opts);
  Program P = Gen.makeInitialProgram();
  for (unsigned I = 0; I < Edits; ++I)
    Gen.applyRandomEdit(P);
  return P;
}

/// Clean-run oracle: every reachable main location's answer, stringified
/// (string equality is the bit-identity proxy the acceptance criteria use).
template <typename D>
std::map<Loc, std::string> cleanAnswers(const Program &P,
                                        const std::vector<Loc> &Locs) {
  InterprocEngine<D> E(P, "main", 1);
  EXPECT_TRUE(E.valid()) << E.error();
  std::map<Loc, std::string> Out;
  for (Loc L : Locs)
    Out[L] = D::toString(E.queryMain(L));
  return Out;
}

/// The core protocol for one (domain, seed, stride, kind) configuration:
/// query every sampled location with the fault plan armed, catching each
/// delivered fault; then assert the structures are audit-clean, disarm,
/// re-demand everything, and compare bit-for-bit against the clean oracle.
template <typename D>
void runFaultMatrixPoint(uint64_t Seed, uint64_t Stride, fi::Kind Kind) {
  SCOPED_TRACE("domain=" + std::string(D::name()) +
               " seed=" + std::to_string(Seed) +
               " stride=" + std::to_string(Stride) +
               " kind=" + (Kind == fi::Kind::Cancel ? "cancel" : "allocfail"));
  Program P = workloadProgram(Seed, /*Edits=*/12);
  WorkloadOptions Opts;
  Opts.Seed = Seed * 977 + 1;
  WorkloadGenerator Sampler(Opts);
  std::vector<Loc> Locs = Sampler.sampleQueryLocations(P, 6);
  ASSERT_FALSE(Locs.empty());
  std::map<Loc, std::string> Oracle = cleanAnswers<D>(P, Locs);

  InterprocEngine<D> E(P, "main", 1);
  ASSERT_TRUE(E.valid()) << E.error();
  CancellationToken Tok;
  AnalysisBudget B;
  B.Cancel = &Tok; // unlimited budget: only the token matters
  BudgetScope Scope(B);
  DisarmGuard Guard;

  fi::Plan Plan;
  Plan.FaultKind = Kind;
  Plan.Stride = Stride;
  Plan.Offset = Seed % Stride;
  Plan.Token = &Tok;
  fi::arm(Plan);

  unsigned Delivered = 0;
  for (Loc L : Locs) {
    try {
      (void)E.queryMain(L);
    } catch (const AnalysisCancelled &) {
      ++Delivered;
      Tok.reset(); // acknowledge; plan stays armed for the next query
    } catch (const fi::SimulatedAllocFailure &) {
      ++Delivered;
    }
  }
  EXPECT_GT(fi::plan().Count, 0u) << "no trigger point was ever reached";

  // Audit while still armed (the audit itself must not be perturbed by and
  // must not advance the schedule — it performs no analysis work).
  EXPECT_EQ(E.auditInvariants(), "")
      << "structures not audit-clean after " << Delivered << " faults";

  fi::disarm();
  Tok.reset();
  for (Loc L : Locs) {
    std::string Got = D::toString(E.queryMain(L));
    EXPECT_EQ(Got, Oracle[L])
        << "re-demand after fault diverged from the clean run at l" << L;
  }
  EXPECT_EQ(E.auditInvariants(), "");
  EXPECT_EQ(E.degradedCellCount(), 0u)
      << "faults alone (no budget limits) must not degrade any cell";
}

/// seeds {1,2,3} × strides {1,2,3,5,7,11} — every trigger-point stride the
/// acceptance criteria call for, for at least 3 seeds.
constexpr uint64_t Seeds[] = {1, 2, 3};
constexpr uint64_t Strides[] = {1, 2, 3, 5, 7, 11};

TEST(FaultInjection, CancelMatrixInterval) {
  for (uint64_t Seed : Seeds)
    for (uint64_t Stride : Strides)
      runFaultMatrixPoint<IntervalDomain>(Seed, Stride, fi::Kind::Cancel);
}

TEST(FaultInjection, AllocFailMatrixInterval) {
  for (uint64_t Seed : Seeds)
    for (uint64_t Stride : Strides)
      runFaultMatrixPoint<IntervalDomain>(Seed, Stride, fi::Kind::AllocFail);
}

TEST(FaultInjection, CancelMatrixZone) {
  // The zone engine exercises the sparse-closure trigger points.
  for (uint64_t Seed : Seeds)
    for (uint64_t Stride : Strides)
      runFaultMatrixPoint<ZoneDomain>(Seed, Stride, fi::Kind::Cancel);
}

TEST(FaultInjection, AllocFailMatrixZone) {
  for (uint64_t Seed : Seeds)
    for (uint64_t Stride : Strides)
      runFaultMatrixPoint<ZoneDomain>(Seed, Stride, fi::Kind::AllocFail);
}

TEST(FaultInjection, AllocFailMatrixStaged) {
  // The staged engine reaches the octagon closure kernels once escalated;
  // a smaller stride set keeps the dense-tier matrix fast.
  for (uint64_t Seed : Seeds)
    for (uint64_t Stride : {1u, 3u, 7u})
      runFaultMatrixPoint<StagedDomain>(Seed, Stride, fi::Kind::AllocFail);
}

TEST(FaultInjection, SiteMaskRestrictsTriggerPoints) {
  // Masked to the memo site only: faults fire exclusively at memo
  // boundaries, proving per-site selectivity of the schedule.
  Program P = workloadProgram(/*Seed=*/1, /*Edits=*/8);
  InterprocEngine<IntervalDomain> E(P, "main", 1);
  ASSERT_TRUE(E.valid());
  DisarmGuard Guard;
  fi::Plan Plan;
  Plan.FaultKind = fi::Kind::AllocFail;
  Plan.Stride = 2;
  Plan.SiteMask = 1u << static_cast<unsigned>(fi::Site::Memo);
  fi::arm(Plan);
  try {
    (void)E.queryMain(E.cfgOf("main")->exit());
  } catch (const fi::SimulatedAllocFailure &) {
  }
  EXPECT_GT(fi::plan().Count, 0u) << "memo site never triggered";
  fi::disarm();
  EXPECT_EQ(E.auditInvariants(), "");
  EXPECT_NO_THROW((void)E.queryMain(E.cfgOf("main")->exit()));
}

TEST(FaultInjection, DisarmedPlanIsInert) {
  fi::disarm();
  // A disarmed trigger point is a no-op — the default-build guarantee that
  // keeps the instrumentation off the measured paths.
  EXPECT_NO_THROW(fi::triggerPoint(fi::Site::CellEval));
  EXPECT_NO_THROW(fi::triggerPoint(fi::Site::Closure));
}

} // namespace
