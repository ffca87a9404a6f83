//===-- tests/intern_concurrency_test.cpp - Concurrent intern tables ------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency stress for the two process-global intern tables: the
/// hash-consed NameTable (daig/name.h) and the SymbolTable (domain/symbol.h).
/// N threads intern overlapping key sets simultaneously; afterwards every
/// thread must have observed the SAME id for the same key (no torn or
/// duplicate ids), distinct keys must have distinct ids, every id must be
/// dense (below the table's size), and a serial re-intern — the oracle —
/// must agree with what the racing threads saw. Run under
/// -DDAI_SANITIZE=thread (`ctest -L tsan`) this is also the data-race lane
/// for the sharded table internals.
///
//===----------------------------------------------------------------------===//

#include "daig/name.h"
#include "domain/symbol.h"

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

/// Distinct payload space per test-run so repeated ctest invocations within
/// one process (and the other suites sharing the global tables) cannot
/// collide with these keys; overlap ACROSS the racing threads is the point
/// and is total by construction.
constexpr uint64_t kNamePayloadBase = 0x1D00DB0B00000000ull;

TEST(InternConcurrency, NameTableOneIdPerKeyAcrossThreads) {
  constexpr unsigned KeysPerThread = 300;
  // Every thread builds the SAME key sequence (maximal overlap: all eight
  // race on every key) of leaves, pairs, and iters.
  auto buildKey = [](unsigned I) {
    Name A = Name::num(kNamePayloadBase + I);
    Name B = Name::num(kNamePayloadBase + 0x8000 + I / 3);
    switch (I % 4) {
    case 0:
      return A;
    case 1:
      return Name::pair(A, B);
    case 2:
      return Name::iter(A, I % 7);
    default:
      return Name::pair(Name::pair(A, B), A);
    }
  };

  std::vector<std::vector<NameId>> Seen(kThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([T, &Seen, &buildKey] {
      Seen[T].reserve(KeysPerThread);
      for (unsigned I = 0; I < KeysPerThread; ++I)
        Seen[T].push_back(buildKey(I).id());
    });
  for (std::thread &Th : Threads)
    Th.join();

  // Agreement: every thread observed the same id for the same key index.
  for (unsigned T = 1; T < kThreads; ++T)
    for (unsigned I = 0; I < KeysPerThread; ++I)
      EXPECT_EQ(Seen[T][I], Seen[0][I])
          << "thread " << T << " disagrees on key " << I;

  // Serial oracle: re-interning now (single thread) returns the same ids.
  for (unsigned I = 0; I < KeysPerThread; ++I)
    EXPECT_EQ(buildKey(I).id(), Seen[0][I]) << "serial oracle, key " << I;

  // Density and uniqueness: ids are valid slab indices, and structurally
  // distinct keys never share an id (interning is complete).
  size_t TableSize = NameTable::global().size();
  std::map<NameId, unsigned> FirstKey;
  for (unsigned I = 0; I < KeysPerThread; ++I) {
    NameId Id = Seen[0][I];
    ASSERT_LT(Id, TableSize);
    auto [It, Fresh] = FirstKey.emplace(Id, I);
    if (!Fresh) {
      // Same id ⇒ the two keys must be structurally equal.
      EXPECT_TRUE(buildKey(It->second) == buildKey(I))
          << "keys " << It->second << " and " << I << " collided on id "
          << Id;
    }
  }

  // Structure survives: node accessors and toString read back coherently
  // through the lock-free slab.
  for (unsigned I = 0; I < KeysPerThread; I += 17) {
    Name N = buildKey(I);
    EXPECT_TRUE(N.valid());
    EXPECT_FALSE(N.toString().empty());
  }
}

TEST(InternConcurrency, NameTableDisjointAndSharedMix) {
  // Threads race on a half-shared, half-private payload space: catches
  // cross-shard NextId races that full overlap can mask (full overlap
  // serializes most traffic onto few shards).
  constexpr unsigned PerThread = 200;
  std::vector<std::vector<std::pair<uint64_t, NameId>>> Out(kThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([T, &Out] {
      for (unsigned I = 0; I < PerThread; ++I) {
        uint64_t Payload = (I % 2 == 0)
                               ? kNamePayloadBase + 0x10000 + I // shared
                               : kNamePayloadBase + 0x20000 +
                                     (uint64_t(T) << 32) + I; // private
        Out[T].emplace_back(Payload, Name::num(Payload).id());
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  // One id per payload, across all observations of all threads.
  std::map<uint64_t, NameId> IdOf;
  std::map<NameId, uint64_t> PayloadOf;
  for (unsigned T = 0; T < kThreads; ++T)
    for (auto [Payload, Id] : Out[T]) {
      auto [It, Fresh] = IdOf.emplace(Payload, Id);
      EXPECT_EQ(It->second, Id) << "payload " << Payload;
      auto [Rit, RFresh] = PayloadOf.emplace(Id, Payload);
      EXPECT_EQ(Rit->second, Payload) << "id " << Id << " reused";
      (void)Fresh;
      (void)RFresh;
    }
  // Serial oracle agreement.
  for (auto &[Payload, Id] : IdOf)
    EXPECT_EQ(Name::num(Payload).id(), Id);
}

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

TEST(InternConcurrency, MixedNameAndSymbolTraffic) {
  // Both tables hammered at once (the traffic shape of analyses on pool
  // workers: names for DAIG cells, symbols for gensyms and call keys).
  std::vector<std::thread> Threads;
  std::vector<std::vector<std::pair<NameId, SymbolId>>> Out(kThreads);
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([T, &Out] {
      for (unsigned I = 0; I < 150; ++I) {
        Name N = Name::pair(Name::num(kNamePayloadBase + 0x30000 + I),
                            Name::loc(1));
        SymbolId S = internSymbol("icon_mixed_" + std::to_string(I));
        Out[T].emplace_back(N.id(), S);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (unsigned T = 1; T < kThreads; ++T)
    EXPECT_EQ(Out[T], Out[0]) << "thread " << T;
}

} // namespace
