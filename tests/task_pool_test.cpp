//===-- tests/task_pool_test.cpp - Task pool tests ------------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared-cursor TaskPool (support/task_pool.h): every task runs exactly
/// once; exceptions propagate to the caller without wedging the pool, on
/// the threaded path and on the inline one; and — the cross-thread
/// counter-aggregation contract — work a task performs against the
/// thread_local counter sinks on a WORKER thread is folded back into the
/// CALLING thread's sinks at the run() barrier, so "read the current
/// thread's counters" stays correct whether or not work was farmed out,
/// and whether or not the task threw. Plus unit coverage of the merge
/// primitives themselves (Statistics::mergeFrom, the per-subsystem
/// mergeFrom overloads, and the ThreadCounters snapshot/delta/merge
/// bundle).
///
//===----------------------------------------------------------------------===//

#include "support/task_pool.h"

#include "daig/daig.h"
#include "domain/interval.h"
#include "support/statistics.h"
#include "support/symbol.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace dai;

namespace {

TEST(TaskPool, RunsEveryTaskExactlyOnce) {
  TaskPool Pool(4);
  EXPECT_EQ(Pool.parallelism(), 4u);
  constexpr size_t N = 500;
  std::vector<std::atomic<int>> Ran(N);
  std::vector<TaskPool::Task> Tasks;
  for (size_t I = 0; I < N; ++I)
    Tasks.push_back([&Ran, I] { Ran[I].fetch_add(1); });
  Pool.run(std::move(Tasks));
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Ran[I].load(), 1) << "task " << I;
}

TEST(TaskPool, SerialPoolRunsInlineOnCaller) {
  TaskPool Pool(1);
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::thread::id> Seen;
  std::vector<TaskPool::Task> Tasks;
  for (int I = 0; I < 8; ++I)
    Tasks.push_back([&Seen] { Seen.push_back(std::this_thread::get_id()); });
  Pool.run(std::move(Tasks));
  ASSERT_EQ(Seen.size(), 8u);
  for (std::thread::id Id : Seen)
    EXPECT_EQ(Id, Caller);
}

TEST(TaskPool, EmptyAndSingleTask) {
  TaskPool Pool(4);
  Pool.run({}); // no-op, must not hang
  int X = 0;
  std::vector<TaskPool::Task> One;
  One.push_back([&X] { X = 42; });
  Pool.run(std::move(One)); // single task: inline fast path
  EXPECT_EQ(X, 42);
}

TEST(TaskPool, ZeroMeansHardwareParallelism) {
  EXPECT_GE(TaskPool::hardwareParallelism(), 1u);
  TaskPool Pool(0);
  EXPECT_EQ(Pool.parallelism(), TaskPool::hardwareParallelism());
}

TEST(TaskPool, ExceptionPropagatesAndPoolSurvives) {
  // The threaded path, and the two inline ones: a 1-thread pool and a
  // one-task batch. Task 7 (or the only task) throws.
  struct Case {
    unsigned Threads;
    int Tasks;
  };
  for (Case C : {Case{4, 32}, Case{1, 32}, Case{4, 1}}) {
    SCOPED_TRACE("threads=" + std::to_string(C.Threads) +
                 " tasks=" + std::to_string(C.Tasks));
    TaskPool Pool(C.Threads);
    int Thrower = C.Tasks == 1 ? 0 : 7;
    std::atomic<int> Others{0};
    std::vector<TaskPool::Task> Tasks;
    for (int I = 0; I < C.Tasks; ++I) {
      if (I == Thrower)
        Tasks.push_back([] { throw std::runtime_error("task boom"); });
      else
        Tasks.push_back([&Others] { Others.fetch_add(1); });
    }
    EXPECT_THROW(Pool.run(std::move(Tasks)), std::runtime_error);
    // A failed task does not cancel its siblings: the barrier still waits
    // for every task, so all non-throwing tasks ran.
    EXPECT_EQ(Others.load(), C.Tasks - 1);

    // The pool stays usable after an exceptional run, and the stored
    // exception was cleared: a clean batch does not rethrow it.
    std::atomic<int> After{0};
    std::vector<TaskPool::Task> More;
    for (int I = 0; I < C.Tasks; ++I)
      More.push_back([&After] { After.fetch_add(1); });
    EXPECT_NO_THROW(Pool.run(std::move(More)));
    EXPECT_EQ(After.load(), C.Tasks);
  }
}

TEST(TaskPool, MultipleFailuresReportOne) {
  TaskPool Pool(4);
  std::vector<TaskPool::Task> Tasks;
  for (int I = 0; I < 16; ++I)
    Tasks.push_back([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(Pool.run(std::move(Tasks)), std::runtime_error);
}

TEST(TaskPool, RepeatedRoundsStress) {
  // Publishes and withdraws many batches of varying size, one-task batches
  // (the inline path) among them: catches lost wakeups, a worker that wakes
  // late into a withdrawn batch, and a cursor not reset between batches.
  TaskPool Pool(4);
  for (int Round = 0; Round < 50; ++Round) {
    size_t N = 1 + static_cast<size_t>(Round % 17);
    std::atomic<size_t> Ran{0};
    std::vector<TaskPool::Task> Tasks;
    for (size_t I = 0; I < N; ++I)
      Tasks.push_back([&Ran] { Ran.fetch_add(1); });
    Pool.run(std::move(Tasks));
    EXPECT_EQ(Ran.load(), N) << "round " << Round;
  }
}

//===----------------------------------------------------------------------===//
// Cross-thread counter aggregation: work done on worker threads is counted
// on the calling thread.
//===----------------------------------------------------------------------===//

/// Wraps \p Bodies as tasks whose first \p Threads to start wait for each
/// other, so on a \p Threads pool every thread runs at least one of them.
std::vector<TaskPool::Task> onEveryThread(std::atomic<unsigned> &Arrived,
                                          unsigned Threads,
                                          std::vector<TaskPool::Task> Bodies) {
  for (TaskPool::Task &T : Bodies)
    T = [&Arrived, Threads, Body = std::move(T)] {
      if (Arrived.fetch_add(1) < Threads)
        while (Arrived.load() < Threads)
          std::this_thread::yield();
      Body();
    };
  return Bodies;
}

TEST(TaskPool, WorkerThreadCountersRepatriateToCaller) {
  constexpr unsigned Threads = 4;
  TaskPool Pool(Threads);
  ClosureCounters C0 = closureCounters();
  ZoneCounters Z0 = zoneCounters();
  StagedCounters S0 = stagedCounters();

  // Simulated analysis work on every thread of the pool: these sinks are
  // thread_local, so without repatriation the caller would only observe
  // the slice it ran itself.
  constexpr uint64_t PerTask = 7;
  constexpr size_t N = 64;
  auto Batch = [](bool Throw) {
    std::vector<TaskPool::Task> Bodies;
    for (size_t I = 0; I < N; ++I)
      Bodies.push_back([Throw] {
        closureCounters().CellsTouched += PerTask;
        zoneCounters().ClosureVerticesVisited += PerTask;
        stagedCounters().EscalatedTransfers += PerTask;
        if (Throw)
          throw std::runtime_error("counted, then failed");
      });
    return Bodies;
  };
  std::atomic<unsigned> Arrived{0}, ArrivedThrowing{0};
  Pool.run(onEveryThread(Arrived, Threads, Batch(false)));
  // Tasks that count and then throw: their work still reaches the caller.
  EXPECT_THROW(Pool.run(onEveryThread(ArrivedThrowing, Threads, Batch(true))),
               std::runtime_error);

  EXPECT_EQ(closureCounters().CellsTouched - C0.CellsTouched,
            2 * N * PerTask);
  EXPECT_EQ(zoneCounters().ClosureVerticesVisited - Z0.ClosureVerticesVisited,
            2 * N * PerTask);
  EXPECT_EQ(stagedCounters().EscalatedTransfers - S0.EscalatedTransfers,
            2 * N * PerTask);
}

TEST(TaskPool, PeakGaugeMergesViaMax) {
  constexpr unsigned Threads = 4;
  TaskPool Pool(Threads);
  uint64_t Peak0 = closureCounters().PeakDbmBytes;
  uint64_t Target = Peak0 + 1000;
  std::vector<TaskPool::Task> Bodies;
  for (uint64_t I = 1; I <= 8; ++I)
    Bodies.push_back([Target, I] {
      ClosureCounters &C = closureCounters();
      if (Target + I > C.PeakDbmBytes)
        C.PeakDbmBytes = Target + I;
    });
  std::atomic<unsigned> Arrived{0};
  Pool.run(onEveryThread(Arrived, Threads, std::move(Bodies)));
  // The caller sees the max of the per-thread peaks, not their sum.
  EXPECT_EQ(closureCounters().PeakDbmBytes, Target + 8);
}

TEST(TaskPool, WorkerDaigKeyCountsLandInCallersCounters) {
  // Each DAIG keys its cells in its own index and counts into its thread's
  // NameTableCounters; the pool brings the workers' counts back to the
  // caller, like every other ThreadCounters family.
  Function F = test::mustLowerFn(
      "function main(n) { var i = 0; while (i < n) { i = i + 1; } "
      "return i; }",
      "main");
  auto build = [&F] {
    Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
    (void)G.queryLocation(F.Body.exit());
  };
  NameTableCounters Before = nameTableCounters();
  build();
  NameTableCounters One = nameTableCounters() - Before;
  ASSERT_GT(One.NamesInterned, 0u);

  TaskPool Pool(4);
  std::vector<TaskPool::Task> Tasks(8, build);
  Before = nameTableCounters();
  Pool.run(std::move(Tasks));
  NameTableCounters Eight = nameTableCounters() - Before;
  EXPECT_EQ(Eight.NamesInterned, 8 * One.NamesInterned);
  EXPECT_EQ(Eight.InternHits, 8 * One.InternHits);
  EXPECT_EQ(Eight.InternExtraProbes, 8 * One.InternExtraProbes);
}

//===----------------------------------------------------------------------===//
// Merge-primitive unit coverage.
//===----------------------------------------------------------------------===//

TEST(CounterMerge, StatisticsMergeFromAddsAllFields) {
  Statistics A, B;
  A.Transfers = 3;
  A.Joins = 1;
  A.ChecksRechecked = 10;
  B.Transfers = 7;
  B.Widens = 2;
  B.CallSummaries = 5;
  B.AlarmsRaised = 1;
  A.mergeFrom(B);
  EXPECT_EQ(A.Transfers, 10u);
  EXPECT_EQ(A.Joins, 1u);
  EXPECT_EQ(A.Widens, 2u);
  EXPECT_EQ(A.CallSummaries, 5u);
  EXPECT_EQ(A.ChecksRechecked, 10u);
  EXPECT_EQ(A.AlarmsRaised, 1u);
}

TEST(CounterMerge, ClosureMergeAddsCountersMaxesGauge) {
  ClosureCounters A, B;
  A.CellsTouched = 100;
  A.PeakDbmBytes = 4096;
  B.CellsTouched = 50;
  B.PeakDbmBytes = 1024;
  A.mergeFrom(B);
  EXPECT_EQ(A.CellsTouched, 150u);
  EXPECT_EQ(A.PeakDbmBytes, 4096u); // max, not sum
  B.PeakDbmBytes = 1u << 20;
  A.mergeFrom(B);
  EXPECT_EQ(A.PeakDbmBytes, 1u << 20);
}

TEST(CounterMerge, ThreadCountersDeltaAndMergeRoundTrip) {
  ThreadCounters Base = ThreadCounters::snapshot();
  closureCounters().FullCloses += 3;
  zoneCounters().EdgesStored += 5;
  stagedCounters().ZoneTransfers += 7;
  ThreadCounters Delta = ThreadCounters::snapshot().deltaSince(Base);
  EXPECT_EQ(Delta.Closure.FullCloses, 3u);
  EXPECT_EQ(Delta.Zone.EdgesStored, 5u);
  EXPECT_EQ(Delta.Staged.ZoneTransfers, 7u);

  ThreadCounters Agg;
  Agg.addDelta(Delta);
  Agg.addDelta(Delta);
  EXPECT_EQ(Agg.Closure.FullCloses, 6u);
  EXPECT_EQ(Agg.Zone.EdgesStored, 10u);
  EXPECT_EQ(Agg.Staged.ZoneTransfers, 14u);

  ClosureCounters Before = closureCounters();
  Agg.mergeIntoCurrentThread();
  EXPECT_EQ(closureCounters().FullCloses, Before.FullCloses + 6);
}

} // namespace
