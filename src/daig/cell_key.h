//===-- daig/cell_key.h - DAIG cell keys and the per-DAIG index -*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The names of DAIG reference cells (Fig. 6),
///
///   n ::= ℓ | i | n1·n2 | n^(i)
///
/// in the five shapes a DAIG builds:
///
///   state       ℓ^(c1)…^(cd)           state cells, loop iterates, fix cells
///   pre-join    i·ℓ^(c1)…^(cd)         join input i at ℓ
///   pre-widen   n^(k)·n^(k+1)          back-edge result of iterate k of the
///                                      loop whose fix cell is n
///   statement   ℓ·ℓ′  or  i·(ℓ·ℓ′)     edge ℓ→ℓ′, plain or join input i
///
/// The paper's single iteration count is generalized to nested counts, one
/// wrapper per enclosing loop, outermost first, so that demanded unrolling
/// of nested loops never collides: the k-th unrolling of an outer loop
/// resets inner loops to their initial two iterates under the outer count
/// k. The paper's memo keys f·(v1···vk) are not cell keys: daig/memo_table.h
/// keeps them by value, so no abstract value ever becomes a key.
///
/// A CellKey is a value: its shape, location (or edge), join index and
/// counts, with the structural hash of the name tree it spells. Building one
/// takes no lock and, for nests up to kInlineCounts deep, no heap
/// allocation. Its hash, equality, total order (by hash, ties broken
/// structurally) and toString() are those of that name tree;
/// name_intern_test drives them against a tree oracle.
///
/// A key identifies a cell within its own DAIG only. Each DAIG maps its keys
/// to dense CellIds through one CellKeyIndex, which is probed only where a
/// key is built from a location or an edge: construction, reconcile, the
/// nest walk of the location readers, and the entry points that name one
/// edge's statement cell or the entry cell. Queries and dirtying hold ids.
/// The index counts its inserts, hits and probe walk in the calling
/// thread's NameTableCounters (support/statistics.h), and its keys are
/// freed with the DAIG.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DAIG_CELL_KEY_H
#define DAI_DAIG_CELL_KEY_H

#include "cfg/cfg.h"
#include "support/hashing.h"
#include "support/statistics.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace dai {

/// Analysis-function symbols labelling computation edges (Fig. 6) and
/// heading memo keys.
enum class FnKind : uint8_t {
  Transfer, ///< ⟦·⟧♯
  Join,     ///< ⊔
  Widen,    ///< ∇
  Fix,      ///< fix — demanded fixed-point marker
};

inline const char *fnKindName(FnKind F) {
  switch (F) {
  case FnKind::Transfer: return "transfer";
  case FnKind::Join: return "join";
  case FnKind::Widen: return "widen";
  case FnKind::Fix: return "fix";
  }
  return "?";
}

/// The name of one DAIG cell (see the file comment).
class CellKey {
public:
  enum class Shape : uint8_t { None, State, PreJoin, PreWiden, Stmt };
  /// Counts held in the key itself; a deeper nest's counts go to the heap.
  static constexpr unsigned kInlineCounts = 6;

  CellKey() = default; ///< No cell: valid() is false.
  CellKey(const CellKey &O)
      : H(O.H), A(O.A), B(O.B), Idx(O.Idx), S(O.S), D(O.D) {
    if (D <= kInlineCounts) {
      C = O.C;
    } else {
      C.Out = new uint32_t[D];
      std::copy_n(O.C.Out, D, C.Out);
    }
  }
  CellKey(CellKey &&O) noexcept
      : H(O.H), A(O.A), B(O.B), Idx(O.Idx), S(O.S), D(O.D), C(O.C) {
    O.S = Shape::None;
    O.D = 0; // the heap counts, if any, are ours now
  }
  CellKey &operator=(CellKey O) noexcept {
    std::swap(H, O.H);
    std::swap(A, O.A);
    std::swap(B, O.B);
    std::swap(Idx, O.Idx);
    std::swap(S, O.S);
    std::swap(D, O.D);
    std::swap(C, O.C);
    return *this;
  }
  ~CellKey() {
    if (D > kInlineCounts)
      delete[] C.Out;
  }

  /// ℓ wrapped by the first \p Depth counts of \p Ctx, outermost first; a
  /// count \p Ctx lacks reads as 0.
  static CellKey state(Loc L, std::span<const uint32_t> Ctx, size_t Depth) {
    CellKey K(Shape::State, L);
    K.setCounts(Ctx, Depth);
    K.H = countedHash(L, K.counts());
    return K;
  }
  static CellKey state(Loc L, std::span<const uint32_t> Counts = {}) {
    return state(L, Counts, Counts.size());
  }

  /// The statement cell of edge \p Src→\p Dst: ℓ·ℓ′, or i·(ℓ·ℓ′) for join
  /// input \p Idx ≥ 1.
  static CellKey stmt(Loc Src, Loc Dst, uint32_t Idx = 0) {
    CellKey K(Shape::Stmt, Src);
    K.B = Dst;
    K.Idx = Idx;
    K.H = pairHash(leafHash(KLoc, Src), leafHash(KLoc, Dst));
    if (Idx)
      K.H = pairHash(leafHash(KNum, Idx), K.H);
    return K;
  }

  /// n^(\p Count), for a state key n.
  CellKey iterate(uint32_t Count) const {
    assert(S == Shape::State && "only state keys iterate");
    CellKey K = withCount(Count);
    K.H = iterHash(H, Count);
    return K;
  }
  /// \p Index·n, for a state key n.
  CellKey preJoin(uint32_t Index) const {
    assert(S == Shape::State && "pre-join cells wrap state keys");
    CellKey K = *this;
    K.S = Shape::PreJoin;
    K.Idx = Index;
    K.H = pairHash(leafHash(KNum, Index), H);
    return K;
  }
  /// n^(\p Count)·n^(\p Count+1), for the fix-cell key n of a loop.
  CellKey preWiden(uint32_t Count) const {
    assert(S == Shape::State && "pre-widen cells pair iterates");
    CellKey K = withCount(Count);
    K.S = Shape::PreWiden;
    K.H = pairHash(iterHash(H, Count), iterHash(H, Count + 1));
    return K;
  }

  Shape shape() const { return S; }
  bool valid() const { return S != Shape::None; }
  /// The structural hash of the name; 0 for an invalid key.
  uint64_t hash() const { return H; }
  /// The location of a state-like key, or a statement's source.
  Loc loc() const { return A; }
  /// The counts of a state key, of a pre-join key's state, or of a
  /// pre-widen key's first iterate; outermost first.
  std::span<const uint32_t> counts() const {
    return {D <= kInlineCounts ? C.In : C.Out, D};
  }

  bool operator==(const CellKey &O) const {
    return H == O.H && A == O.A && B == O.B && Idx == O.Idx && S == O.S &&
           std::ranges::equal(counts(), O.counts());
  }
  /// Total order: by hash, tie-broken by compareStructure.
  bool operator<(const CellKey &O) const {
    if (H != O.H)
      return H < O.H;
    return *this != O && compareStructure(O) < 0;
  }
  /// The structural order of the name trees alone (kind, payload, then
  /// children left to right): negative, zero or positive.
  int compareStructure(const CellKey &O) const {
    std::vector<Token> X = tokens(), Y = O.tokens();
    return X < Y ? -1 : Y < X ? 1 : 0;
  }

  std::string toString() const {
    switch (S) {
    case Shape::None:
      return "<invalid>";
    case Shape::State:
      return countedString(false);
    case Shape::PreJoin:
      return std::to_string(Idx) + "." + countedString(false);
    case Shape::PreWiden:
      return countedString(false) + "." + countedString(true);
    case Shape::Stmt: {
      std::string Plain = "l" + std::to_string(A) + ".l" + std::to_string(B);
      return Idx ? std::to_string(Idx) + "." + Plain : Plain;
    }
    }
    return "";
  }

private:
  // Node kinds of the name tree, as its hashes and order read them.
  static constexpr uint64_t KLoc = 0, KNum = 2, KPair = 4, KIter = 5;

  uint64_t H = 0;
  Loc A = 0, B = 0;
  uint32_t Idx = 0;
  Shape S = Shape::None;
  uint8_t D = 0; ///< Number of counts.
  union Counts {
    uint32_t In[kInlineCounts];
    uint32_t *Out; ///< When D > kInlineCounts.
  } C{};

  CellKey(Shape Sh, Loc L) : A(L), S(Sh) {}

  static uint64_t leafHash(uint64_t Kind, uint64_t V) {
    return hashValues(Kind + 0x51ULL, V);
  }
  static uint64_t pairHash(uint64_t L, uint64_t R) {
    return hashCombine(hashCombine(0x9a17ULL, L), R);
  }
  static uint64_t iterHash(uint64_t Base, uint32_t Count) {
    return hashCombine(hashCombine(0x17e8ULL, Base), Count);
  }
  static uint64_t countedHash(Loc L, std::span<const uint32_t> Counts) {
    uint64_t Hash = leafHash(KLoc, L);
    for (uint32_t Count : Counts)
      Hash = iterHash(Hash, Count);
    return Hash;
  }

  /// Stores the first \p Depth counts of \p Src, 0 past its end, in a key
  /// that has none yet.
  uint32_t *setCounts(std::span<const uint32_t> Src, size_t Depth) {
    assert(D == 0 && Depth <= UINT8_MAX && "one count per enclosing loop");
    uint32_t *P =
        Depth <= kInlineCounts ? C.In : (C.Out = new uint32_t[Depth]);
    D = static_cast<uint8_t>(Depth);
    for (size_t I = 0; I < Depth; ++I)
      P[I] = I < Src.size() ? Src[I] : 0u;
    return P;
  }
  /// This key's fields with \p Count appended to its counts.
  CellKey withCount(uint32_t Count) const {
    CellKey K(S, A);
    K.B = B;
    K.Idx = Idx;
    K.setCounts(counts(), D + 1)[D] = Count;
    return K;
  }

  /// ℓ^(c1)…^(cd), with the last count one higher when \p Next.
  std::string countedString(bool Next) const {
    std::string Out = "l";
    Out += std::to_string(A);
    std::span<const uint32_t> Cs = counts();
    for (size_t I = 0; I < Cs.size(); ++I) {
      Out += '(';
      Out += std::to_string(uint32_t(Cs[I] + (Next && I + 1 == Cs.size())));
      Out += ')';
    }
    return Out;
  }

  /// The name tree in preorder, one (kind, payload) token per node and
  /// (-1, 0) per absent child. Every subtree's sequence is self-delimiting,
  /// so comparing two sequences lexicographically is the structural order.
  using Token = std::pair<int, uint64_t>;
  std::vector<Token> tokens() const {
    std::vector<Token> Out;
    auto leaf = [&](uint64_t Kind, uint64_t V) {
      Out.insert(Out.end(), {{int(Kind), V}, {-1, 0}, {-1, 0}});
    };
    auto counted = [&](bool Next) { // iter(…iter(ℓ, c1)…, cd)
      std::span<const uint32_t> Cs = counts();
      for (size_t I = Cs.size(); I-- > 0;)
        Out.push_back({int(KIter),
                       uint32_t(Cs[I] + (Next && I + 1 == Cs.size()))});
      leaf(KLoc, A);
      Out.insert(Out.end(), Cs.size(), {-1, 0}); // the iters' right children
    };
    auto pair = [&](auto &&Left, auto &&Right) {
      Out.push_back({int(KPair), 0});
      Left();
      Right();
    };
    switch (S) {
    case Shape::None:
      Out.push_back({-1, 0});
      break;
    case Shape::State:
      counted(false);
      break;
    case Shape::PreJoin:
      pair([&] { leaf(KNum, Idx); }, [&] { counted(false); });
      break;
    case Shape::PreWiden:
      pair([&] { counted(false); }, [&] { counted(true); });
      break;
    case Shape::Stmt: {
      auto plain = [&] {
        pair([&] { leaf(KLoc, A); }, [&] { leaf(KLoc, B); });
      };
      if (Idx)
        pair([&] { leaf(KNum, Idx); }, plain);
      else
        plain();
      break;
    }
    }
    return Out;
  }
};

/// A dense index into one DAIG's cell store.
using CellId = uint32_t;
constexpr CellId kNoCell = static_cast<CellId>(-1);

/// One DAIG's map from cell key to CellId: open addressing with linear
/// probing over (probe hash, id) slots, power-of-two capacity, at most half
/// full, backward-shift deletion. The keys themselves live in the caller's
/// cell store, read back through a KeyOf callable (CellId → const CellKey
/// &). Slots are probed by mix64 of the structural hash: cell keys are folds
/// of small locations, indices and counts, whose hashes cluster in the low
/// bits. Counts, in the calling thread's NameTableCounters: NamesInterned
/// per key inserted, InternHits per probe that found its key, and
/// InternExtraProbes per slot examined past the first; NameTableBytes is the
/// largest slot array an index has held.
class CellKeyIndex {
public:
  /// The id stored under \p K, or kNoCell.
  template <class KeyOf>
  CellId find(const CellKey &K, const KeyOf &keyOf) const {
    if (Slots.empty())
      return kNoCell;
    size_t I = probe(K, keyOf);
    if (Slots[I].Id != kNoCell)
      ++nameTableCounters().InternHits;
    return Slots[I].Id;
  }

  /// The id stored under \p K; when absent, stores the id \p Make()
  /// returns (Make must not touch the index) and returns that.
  template <class KeyOf, class MakeFn>
  CellId findOrAdd(const CellKey &K, const KeyOf &keyOf, MakeFn &&Make) {
    if ((Count + 1) * 2 > Slots.size())
      grow();
    size_t I = probe(K, keyOf);
    NameTableCounters &NC = nameTableCounters();
    if (Slots[I].Id != kNoCell) {
      ++NC.InternHits;
      return Slots[I].Id;
    }
    ++NC.NamesInterned;
    ++Count;
    Slots[I] = {mix64(K.hash()), Make()};
    return Slots[I].Id;
  }

  /// Drops \p K, which must be present.
  template <class KeyOf> void erase(const CellKey &K, const KeyOf &keyOf) {
    size_t Hole = probe(K, keyOf, /*Counted=*/false);
    assert(Slots[Hole].Id != kNoCell && "erasing a key the index lacks");
    // Backward shift: pull each later slot of the run into the hole unless
    // its home lies cyclically in (Hole, J].
    for (size_t J = (Hole + 1) & Mask; Slots[J].Id != kNoCell;
         J = (J + 1) & Mask) {
      size_t Home = Slots[J].Probe & Mask;
      if (((J - Home) & Mask) >= ((J - Hole) & Mask)) {
        Slots[Hole] = Slots[J];
        Hole = J;
      }
    }
    Slots[Hole] = {0, kNoCell};
    --Count;
  }

  void clear() {
    Slots.clear();
    Mask = Count = 0;
  }
  size_t size() const { return Count; }

private:
  struct Slot {
    uint64_t Probe = 0; ///< mix64 of the key's hash.
    CellId Id = kNoCell;
  };
  std::vector<Slot> Slots;
  size_t Mask = 0;
  size_t Count = 0;

  /// The slot holding \p K, else the empty slot ending its probe run.
  template <class KeyOf>
  size_t probe(const CellKey &K, const KeyOf &keyOf,
               bool Counted = true) const {
    uint64_t P = mix64(K.hash());
    size_t I = P & Mask;
    uint64_t Extra = 0;
    for (; Slots[I].Id != kNoCell; I = (I + 1) & Mask, ++Extra)
      if (Slots[I].Probe == P && keyOf(Slots[I].Id) == K)
        break;
    if (Counted)
      nameTableCounters().InternExtraProbes += Extra;
    return I;
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 64 : Old.size() * 2, Slot{});
    Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Id == kNoCell)
        continue;
      size_t I = S.Probe & Mask;
      while (Slots[I].Id != kNoCell)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
    uint64_t &Bytes = nameTableCounters().NameTableBytes;
    Bytes = std::max<uint64_t>(Bytes, Slots.size() * sizeof(Slot));
  }
};

} // namespace dai

#endif // DAI_DAIG_CELL_KEY_H
