//===-- tests/intern_concurrency_test.cpp - Concurrent naming -------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency stress for naming across threads. The SymbolTable
/// (domain/symbol.h) is process-global: N threads intern overlapping key sets
/// simultaneously; afterwards every thread must have observed the SAME id
/// for the same key (no torn or duplicate ids), distinct keys must have
/// distinct ids, every id must be dense (below the table's size), and a
/// serial re-intern — the oracle — must agree with what the racing threads
/// saw. DAIG cell keys are per DAIG (daig/cell_key.h): DAIGs built at once
/// on pool threads share no naming state and must equal a serial build.
/// Run under -DDAI_SANITIZE=thread (`ctest -L tsan`) this is also the
/// data-race lane for the sharded symbol table and for concurrent DAIGs.
///
//===----------------------------------------------------------------------===//

#include "daig/daig.h"
#include "domain/interval.h"
#include "support/symbol.h"
#include "support/task_pool.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace dai;

namespace {

constexpr unsigned kThreads = 8;

TEST(InternConcurrency, SymbolTableOneIdPerSpellingAcrossThreads) {
  constexpr unsigned KeysPerThread = 400;
  auto spelling = [](unsigned I) {
    return "icon_sym_" + std::to_string(I % 250); // overlapping set
  };

  std::vector<std::vector<SymbolId>> Seen(kThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([T, &Seen, &spelling] {
      Seen[T].reserve(KeysPerThread);
      for (unsigned I = 0; I < KeysPerThread; ++I)
        Seen[T].push_back(internSymbol(spelling(I)));
    });
  for (std::thread &Th : Threads)
    Th.join();

  for (unsigned T = 1; T < kThreads; ++T)
    for (unsigned I = 0; I < KeysPerThread; ++I)
      EXPECT_EQ(Seen[T][I], Seen[0][I])
          << "thread " << T << " disagrees on " << spelling(I);

  size_t TableSize = SymbolTable::global().size();
  std::set<SymbolId> Distinct;
  for (unsigned I = 0; I < 250 && I < KeysPerThread; ++I) {
    SymbolId Id = Seen[0][I];
    ASSERT_LT(Id, TableSize);
    EXPECT_TRUE(Distinct.insert(Id).second)
        << "distinct spellings " << spelling(I) << " share id " << Id;
    // Round-trip through the lock-free id → spelling direction, and the
    // serial oracle: intern and lookup agree with the racing observation.
    EXPECT_EQ(symbolName(Id), spelling(I));
    EXPECT_EQ(internSymbol(spelling(I)), Id);
    EXPECT_EQ(lookupSymbol(spelling(I)), Id);
  }
}

TEST(InternConcurrency, SymbolLookupNeverInterns) {
  size_t Before = SymbolTable::global().size();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([T] {
      for (unsigned I = 0; I < 200; ++I)
        EXPECT_EQ(lookupSymbol("icon_never_interned_" + std::to_string(I)),
                  kNoSymbol)
            << "thread " << T;
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(SymbolTable::global().size(), Before)
      << "lookup() must not grow the table";
}

/// What one DAIG of a function yields: its cell count, the demand tree of
/// a cold query of every location (every key the queries traversed, with
/// how each was resolved), and every location's answer.
struct DaigRun {
  size_t Cells = 0;
  std::string Demands;
  std::vector<std::string> Answers;
  NameTableCounters Names;

  bool operator==(const DaigRun &O) const {
    return Cells == O.Cells && Demands == O.Demands && Answers == O.Answers;
  }
};

DaigRun runDaig(Function &F) {
  NameTableCounters Before = nameTableCounters();
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  DaigRun R;
  for (Loc L : G.info().Rpo) {
    R.Demands += G.explainQuery(L).text();
    R.Answers.push_back(IntervalDomain::toString(G.queryLocation(L)));
  }
  R.Cells = G.cellCount();
  R.Names = nameTableCounters() - Before;
  return R;
}

/// The DAIGs of two functions built and queried at once on a 2-thread pool
/// equal a serial build: the same keys, cell counts and answers, and the
/// same key-index counts, brought back to the caller by the pool.
TEST(InternConcurrency, TwoDaigsAtOnceMatchASerialBuild) {
  Program P = test::mustLower(R"(
    function outer(n) {
      var i = 0;
      var s = 0;
      while (i < n) {
        var j = 0;
        while (j < i) { s = s + j; j = j + 1; }
        if (s > 100) { s = 0; } else { s = s + 1; }
        i = i + 1;
      }
      return s;
    }
    function main(a) {
      var x = 0;
      var y = 10;
      while (x < 20) {
        if (x < a) { y = y - 1; } else { y = y + 2; }
        x = x + 1;
      }
      return x + y;
    }
  )");
  std::vector<Function *> Fns = {P.find("outer"), P.find("main")};
  ASSERT_TRUE(Fns[0] && Fns[1]);

  std::vector<DaigRun> Serial;
  for (Function *F : Fns)
    Serial.push_back(runDaig(*F));

  for (unsigned Round = 0; Round < 4; ++Round) {
    std::vector<DaigRun> Pooled(Fns.size());
    std::vector<TaskPool::Task> Tasks;
    for (size_t I = 0; I < Fns.size(); ++I)
      Tasks.push_back([&, I] { Pooled[I] = runDaig(*Fns[I]); });
    NameTableCounters Before = nameTableCounters();
    TaskPool Pool(2);
    Pool.run(std::move(Tasks));
    NameTableCounters Merged = nameTableCounters() - Before;
    for (size_t I = 0; I < Fns.size(); ++I)
      EXPECT_TRUE(Pooled[I] == Serial[I]) << "function " << I << "\n"
                                          << Pooled[I].Demands;
    EXPECT_EQ(Merged.NamesInterned,
              Serial[0].Names.NamesInterned + Serial[1].Names.NamesInterned);
    EXPECT_EQ(Merged.InternHits,
              Serial[0].Names.InternHits + Serial[1].Names.InternHits);
  }
  EXPECT_GT(Serial[0].Cells, 0u);
  EXPECT_NE(Serial[0].Demands.find("(1)"), std::string::npos)
      << "the loops unrolled";
}

} // namespace
