//===-- tests/name_intern_test.cpp - Cell keys against a tree oracle ------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Safety net for DAIG cell keys (daig/cell_key.h): a structural reference
/// oracle — the name algebra of Fig. 6 as shared_ptr trees with recursive
/// structural equality and order — spells every cell shape a DAIG builds
/// (state, head iterate, fix, pre-join, pre-widen, plain and indexed
/// statement cells) next to the key for the same cell, over random
/// locations, nest depths 0–4 and counts up to 2^32−1. Equality, hash, the
/// total order, the structural order and toString must all match the
/// oracle. Deeper nests, whose counts leave the key's inline storage, are
/// checked the same way. The per-DAIG index is checked for its counters,
/// its probe walk over DAIG-shaped keys, and deletion.
///
//===----------------------------------------------------------------------===//

#include "daig/cell_key.h"

#include "support/hashing.h"
#include "support/rng.h"
#include "support/statistics.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

using namespace dai;

namespace {

//===----------------------------------------------------------------------===//
// Structural reference oracle: names as shared_ptr trees with recursive
// structural equality and order — the semantics cell keys must reproduce.
//===----------------------------------------------------------------------===//

class RefName {
public:
  /// Node kinds; leaf hashes and the structural order read these values.
  enum class Kind : uint8_t { Loc = 0, Num = 2, Pair = 4, Iter = 5 };

  RefName() = default;

  static RefName loc(Loc L) { return leaf(Kind::Loc, L); }
  static RefName num(uint64_t N) { return leaf(Kind::Num, N); }
  static RefName pair(const RefName &L, const RefName &R) {
    auto N = std::make_shared<Node>();
    N->K = Kind::Pair;
    N->L = L.Ptr;
    N->R = R.Ptr;
    N->Hash = hashCombine(hashCombine(0x9a17ULL, L.hash()), R.hash());
    return RefName(std::move(N));
  }
  static RefName iter(const RefName &Base, uint32_t Count) {
    auto N = std::make_shared<Node>();
    N->K = Kind::Iter;
    N->A = Count;
    N->L = Base.Ptr;
    N->Hash = hashCombine(hashCombine(0x17e8ULL, Base.hash()), Count);
    return RefName(std::move(N));
  }

  uint64_t hash() const { return Ptr ? Ptr->Hash : 0; }

  bool operator==(const RefName &O) const {
    return nodeEquals(Ptr.get(), O.Ptr.get());
  }
  bool operator<(const RefName &O) const {
    uint64_t HA = hash(), HB = O.hash();
    if (HA != HB)
      return HA < HB;
    return compareStructure(O) < 0;
  }
  int compareStructure(const RefName &O) const {
    return nodeCompare(Ptr.get(), O.Ptr.get());
  }

  std::string toString() const { return nodeToString(Ptr.get()); }

private:
  struct Node {
    Kind K;
    uint64_t A = 0;
    std::shared_ptr<const Node> L, R;
    uint64_t Hash = 0;
  };
  std::shared_ptr<const Node> Ptr;

  explicit RefName(std::shared_ptr<const Node> N) : Ptr(std::move(N)) {}

  static RefName leaf(Kind K, uint64_t A) {
    auto N = std::make_shared<Node>();
    N->K = K;
    N->A = A;
    N->Hash = hashValues(static_cast<uint64_t>(K) + 0x51ULL, A);
    return RefName(std::move(N));
  }

  static bool nodeEquals(const Node *A, const Node *B) {
    if (A == B)
      return true;
    if (!A || !B)
      return false;
    if (A->Hash != B->Hash || A->K != B->K || A->A != B->A)
      return false;
    return nodeEquals(A->L.get(), B->L.get()) &&
           nodeEquals(A->R.get(), B->R.get());
  }

  static int nodeCompare(const Node *A, const Node *B) {
    if (A == B)
      return 0;
    if (!A)
      return -1;
    if (!B)
      return 1;
    if (A->K != B->K)
      return A->K < B->K ? -1 : 1;
    if (A->A != B->A)
      return A->A < B->A ? -1 : 1;
    if (int C = nodeCompare(A->L.get(), B->L.get()))
      return C;
    return nodeCompare(A->R.get(), B->R.get());
  }

  static std::string nodeToString(const Node *N) {
    if (!N)
      return "<invalid>";
    std::ostringstream OS;
    switch (N->K) {
    case Kind::Loc:
      OS << "l" << N->A;
      break;
    case Kind::Num:
      OS << N->A;
      break;
    case Kind::Pair:
      OS << nodeToString(N->L.get()) << "." << nodeToString(N->R.get());
      break;
    case Kind::Iter:
      OS << nodeToString(N->L.get()) << "(" << N->A << ")";
      break;
    }
    return OS.str();
  }
};

/// ℓ^(c1)…^(cd) as a tree.
RefName refState(Loc L, const std::vector<uint32_t> &Counts) {
  RefName N = RefName::loc(L);
  for (uint32_t C : Counts)
    N = RefName::iter(N, C);
  return N;
}

/// One cell spelled both ways, with a label for failure messages.
struct Twin {
  CellKey K;
  RefName R;
  const char *Shape;
};

/// Random counts: small values mostly (so keys collide and share
/// prefixes), the top of the 32-bit range sometimes.
uint32_t randomCount(Rng &Rng) {
  switch (Rng.below(6)) {
  case 0:
    return UINT32_MAX - static_cast<uint32_t>(Rng.below(2));
  case 1:
    return static_cast<uint32_t>(Rng.next());
  default:
    return static_cast<uint32_t>(Rng.below(4));
  }
}

/// A random cell of a random DAIG shape, at a nest depth drawn from
/// [MinDepth, MaxDepth].
Twin randomTwin(Rng &Rng, size_t MinDepth, size_t MaxDepth) {
  // Locations from a small pool mostly, so equal keys recur.
  auto loc = [&]() -> Loc {
    return Rng.below(4) ? static_cast<Loc>(Rng.below(6))
                        : static_cast<Loc>(Rng.next());
  };
  Loc L = loc();
  std::vector<uint32_t> Counts(MinDepth + Rng.below(MaxDepth - MinDepth + 1));
  for (uint32_t &C : Counts)
    C = randomCount(Rng);
  uint32_t Idx = 1 + static_cast<uint32_t>(Rng.below(3));
  switch (Rng.below(6)) {
  case 0: // a state cell, a fix cell (a head under enclosing counts)
    return {CellKey::state(L, Counts), refState(L, Counts), "state"};
  case 1: { // a head iterate: the fix cell's key wrapped by k
    uint32_t K = randomCount(Rng);
    std::vector<uint32_t> It = Counts;
    It.push_back(K);
    return {CellKey::state(L, Counts).iterate(K), refState(L, It), "iterate"};
  }
  case 2:
    return {CellKey::state(L, Counts).preJoin(Idx),
            RefName::pair(RefName::num(Idx), refState(L, Counts)), "pre-join"};
  case 3: { // the pre-widen cell of iterate k
    uint32_t K = randomCount(Rng);
    std::vector<uint32_t> ItK = Counts, ItNext = Counts;
    ItK.push_back(K);
    ItNext.push_back(K + 1);
    return {CellKey::state(L, Counts).preWiden(K),
            RefName::pair(refState(L, ItK), refState(L, ItNext)),
            "pre-widen"};
  }
  case 4: {
    Loc Dst = loc();
    return {CellKey::stmt(L, Dst),
            RefName::pair(RefName::loc(L), RefName::loc(Dst)), "stmt"};
  }
  default: {
    Loc Dst = loc();
    return {CellKey::stmt(L, Dst, Idx),
            RefName::pair(RefName::num(Idx),
                          RefName::pair(RefName::loc(L), RefName::loc(Dst))),
            "indexed stmt"};
  }
  }
}

int sign(int V) { return (V > 0) - (V < 0); }

/// Every key of \p Pool agrees with its tree, and every pair of keys
/// relates as their trees do.
void expectLockstep(const std::vector<Twin> &Pool) {
  for (const Twin &T : Pool) {
    EXPECT_TRUE(T.K.valid());
    EXPECT_EQ(T.K.hash(), T.R.hash()) << T.Shape << " " << T.R.toString();
    EXPECT_EQ(T.K.toString(), T.R.toString()) << T.Shape;
  }
  for (const Twin &A : Pool)
    for (const Twin &B : Pool) {
      EXPECT_EQ(A.K == B.K, A.R == B.R)
          << A.R.toString() << " vs " << B.R.toString();
      EXPECT_EQ(A.K < B.K, A.R < B.R)
          << A.R.toString() << " vs " << B.R.toString();
      EXPECT_EQ(sign(A.K.compareStructure(B.K)),
                sign(A.R.compareStructure(B.R)))
          << A.R.toString() << " vs " << B.R.toString();
    }
}

//===----------------------------------------------------------------------===//
// Keys against the oracle
//===----------------------------------------------------------------------===//

TEST(NameIntern, LockstepEqualityOrderToStringHash) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Rng R(Seed);
    std::vector<Twin> Pool;
    for (unsigned Step = 0; Step < 120; ++Step)
      Pool.push_back(randomTwin(R, 0, 4));
    expectLockstep(Pool);
  }
}

/// Counts past kInlineCounts live on the heap: copies, moves and
/// assignments must keep them, and the key must still match its tree.
TEST(NameIntern, DeepNestsSpillAndMatchTheOracle) {
  Rng R(77);
  std::vector<Twin> Pool;
  for (unsigned Step = 0; Step < 60; ++Step)
    Pool.push_back(randomTwin(R, CellKey::kInlineCounts - 1,
                              CellKey::kInlineCounts + 3));
  expectLockstep(Pool);
  for (const Twin &T : Pool) {
    CellKey Copy = T.K;
    EXPECT_EQ(Copy, T.K);
    CellKey Moved = std::move(Copy);
    EXPECT_EQ(Moved, T.K);
    EXPECT_FALSE(Copy.valid()) << "a moved-from key is empty";
    Copy = Moved; // assignment into a moved-from key
    Moved = CellKey::state(1);
    EXPECT_EQ(Copy.toString(), T.R.toString());
    EXPECT_EQ(Copy.counts().size(), T.K.counts().size());
  }
}

TEST(NameIntern, TotalOrderIsStrictWeak) {
  Rng R(99);
  std::vector<Twin> Pool;
  for (unsigned Step = 0; Step < 60; ++Step)
    Pool.push_back(randomTwin(R, 0, 4));
  for (const Twin &A : Pool) {
    EXPECT_FALSE(A.K < A.K) << "irreflexive";
    for (const Twin &B : Pool) {
      bool AB = A.K < B.K, BA = B.K < A.K;
      if (A.K == B.K)
        EXPECT_TRUE(!AB && !BA) << "equal keys are unordered";
      else
        EXPECT_NE(AB, BA) << "distinct keys are strictly ordered";
    }
  }
}

/// The same cell reached along different construction routes is one key.
TEST(NameIntern, ConstructionRoutesAgree) {
  const std::vector<uint32_t> Ctx = {2, 0};
  CellKey Direct = CellKey::state(5, Ctx);
  EXPECT_EQ(Direct, CellKey::state(5).iterate(2).iterate(0));
  // A context shorter than the nest reads 0 for the missing counts.
  EXPECT_EQ(CellKey::state(5, std::vector<uint32_t>{2}, 2), Direct);
  EXPECT_EQ(CellKey::state(5, Ctx, 1), CellKey::state(5).iterate(2));
  CellKey Fix = CellKey::state(5).iterate(2);
  EXPECT_EQ(Fix.iterate(0), Direct);
  EXPECT_EQ(Fix.preWiden(0).toString(), "l5(2)(0).l5(2)(1)");
  EXPECT_EQ(Direct.preJoin(3).toString(), "3.l5(2)(0)");
  EXPECT_EQ(CellKey::stmt(4, 5, 0), CellKey::stmt(4, 5));
}

TEST(NameIntern, AccessorsRoundTrip) {
  CellKey S = CellKey::state(7, std::vector<uint32_t>{1, 3});
  EXPECT_EQ(S.shape(), CellKey::Shape::State);
  EXPECT_EQ(S.loc(), 7u);
  EXPECT_EQ(std::vector<uint32_t>(S.counts().begin(), S.counts().end()),
            (std::vector<uint32_t>{1, 3}));
  CellKey PJ = S.preJoin(2);
  EXPECT_EQ(PJ.shape(), CellKey::Shape::PreJoin);
  EXPECT_EQ(PJ.loc(), 7u);
  EXPECT_EQ(PJ.counts().size(), 2u) << "its state's counts";
  CellKey PW = S.preWiden(4);
  EXPECT_EQ(PW.shape(), CellKey::Shape::PreWiden);
  EXPECT_EQ(PW.counts().size(), 3u) << "the first iterate's counts";
  EXPECT_EQ(PW.counts().back(), 4u);
  CellKey St = CellKey::stmt(3, 9, 2);
  EXPECT_EQ(St.shape(), CellKey::Shape::Stmt);
  EXPECT_EQ(St.loc(), 3u);
  EXPECT_TRUE(St.counts().empty());
}

/// Leaf hashes read the node kinds' values, so they must not shift: every
/// cell keeps its hash, hence every dependent list its order.
TEST(NameIntern, KindValuesArePinned) {
  EXPECT_EQ(CellKey::state(3).hash(), hashValues(0x51ULL, 3));
  EXPECT_EQ(CellKey::state(3).preJoin(3).hash(),
            hashCombine(hashCombine(0x9a17ULL, hashValues(0x53ULL, 3)),
                        hashValues(0x51ULL, 3)));
}

TEST(NameIntern, InvalidKeyIsWellDefined) {
  CellKey Invalid;
  EXPECT_FALSE(Invalid.valid());
  EXPECT_EQ(Invalid.shape(), CellKey::Shape::None);
  EXPECT_EQ(Invalid.hash(), 0u);
  EXPECT_EQ(Invalid.toString(), "<invalid>");
  EXPECT_EQ(Invalid, CellKey());
  CellKey SomeKey = CellKey::state(0);
  EXPECT_NE(Invalid, SomeKey);
  EXPECT_TRUE(Invalid < SomeKey || SomeKey < Invalid) << "still ordered";
  EXPECT_LT(Invalid.compareStructure(SomeKey), 0) << "no cell sorts first";
}

//===----------------------------------------------------------------------===//
// The per-DAIG index
//===----------------------------------------------------------------------===//

/// A minimal cell store: the index keeps ids, the store keeps keys.
struct KeyStore {
  std::vector<CellKey> Keys;
  CellKeyIndex Index;

  const CellKey &keyOf(CellId Id) const { return Keys[Id]; }
  auto reader() const {
    return [this](CellId Id) -> const CellKey & { return Keys[Id]; };
  }
  CellId add(const CellKey &K) {
    return Index.findOrAdd(K, reader(), [&] {
      Keys.push_back(K);
      return static_cast<CellId>(Keys.size() - 1);
    });
  }
  CellId find(const CellKey &K) const { return Index.find(K, reader()); }
};

TEST(NameIntern, IndexCountsInsertsHitsAndBytes) {
  KeyStore S;
  NameTableCounters Before = nameTableCounters();
  CellKey A = CellKey::state(11).preJoin(2);
  CellId Id = S.add(A);
  NameTableCounters AfterNew = nameTableCounters();
  EXPECT_EQ(AfterNew.NamesInterned, Before.NamesInterned + 1);
  EXPECT_EQ(AfterNew.InternHits, Before.InternHits);
  EXPECT_EQ(S.add(A), Id) << "a second add finds the key";
  EXPECT_EQ(S.find(A), Id);
  EXPECT_EQ(S.find(CellKey::state(11)), kNoCell);
  NameTableCounters AfterHits = nameTableCounters();
  EXPECT_EQ(AfterHits.NamesInterned, AfterNew.NamesInterned);
  EXPECT_EQ(AfterHits.InternHits, AfterNew.InternHits + 2)
      << "two probes found their key; the miss is no hit";
  EXPECT_GT(AfterHits.NameTableBytes, 0u);
  EXPECT_EQ(S.Index.size(), 1u);
}

/// The cell keys a DAIG builds have small, structured fields — consecutive
/// locations, join indices 1–3, iteration counts 0–3 — so their structural
/// hashes cluster. The index must still spread them: over such a set, each
/// probe may examine only a few slots past the first.
TEST(NameIntern, DaigShapedKeysProbeFewSlots) {
  constexpr Loc NumLocs = 3000;
  KeyStore S;
  NameTableCounters Before = nameTableCounters();
  for (unsigned Pass = 0; Pass < 2; ++Pass) // inserting, then all hits
    for (Loc L = 1; L <= NumLocs; ++L) {
      for (uint32_t Idx = 1; Idx <= 3; ++Idx) {
        // Statement cell of join in-edge Idx, and its pre-join cell.
        (void)S.add(CellKey::stmt(L - 1, L, Idx));
        (void)S.add(CellKey::state(L).iterate(0).preJoin(Idx));
      }
      // State cells under two nested loops, iterates 0–3 each.
      for (uint32_t Outer = 0; Outer < 4; ++Outer)
        for (uint32_t Inner = 0; Inner < 4; ++Inner)
          (void)S.add(CellKey::state(L, std::vector<uint32_t>{Outer, Inner}));
    }
  NameTableCounters D = nameTableCounters() - Before;
  uint64_t Calls = D.NamesInterned + D.InternHits;
  EXPECT_EQ(D.NamesInterned, NumLocs * 22u);
  EXPECT_EQ(D.InternHits, NumLocs * 22u);
  EXPECT_LE(D.InternExtraProbes, 4 * Calls)
      << D.InternExtraProbes << " extra probes over " << Calls << " calls";
}

/// Removing cells (E-Loop rollback, reconcile) erases their keys: every
/// other key stays findable, and an erased key can come back.
TEST(NameIntern, IndexEraseKeepsTheRestFindable) {
  KeyStore S;
  Rng R(5);
  for (Loc L = 0; L < 2000; ++L)
    S.add(CellKey::state(L % 40, std::vector<uint32_t>{L / 40}));
  std::vector<char> Gone(S.Keys.size(), 0);
  for (CellId Id = 0; Id < S.Keys.size(); ++Id)
    if (R.below(2)) {
      S.Index.erase(S.Keys[Id], S.reader());
      Gone[Id] = 1;
    }
  for (CellId Id = 0; Id < S.Keys.size(); ++Id)
    EXPECT_EQ(S.find(S.Keys[Id]), Gone[Id] ? kNoCell : Id) << Id;
  for (CellId Id = 0; Id < S.Keys.size(); ++Id)
    if (Gone[Id]) {
      S.Index.findOrAdd(S.Keys[Id], S.reader(), [Id] { return Id; });
      EXPECT_EQ(S.find(S.Keys[Id]), Id);
    }
  EXPECT_EQ(S.Index.size(), S.Keys.size());
}

} // namespace
