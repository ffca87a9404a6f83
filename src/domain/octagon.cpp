//===-- domain/octagon.cpp - Octagon abstract domain ----------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "domain/octagon.h"

#include "cfg/program.h"
#include "domain/linear.h"
#include "support/fault_injection.h"
#include "support/hashing.h"
#include "support/observe.h"
#include "support/statistics.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <sstream>
#include <tuple>

using namespace dai;

namespace {

constexpr int64_t Inf = Octagon::kPosInf;
constexpr size_t npos = static_cast<size_t>(-1);

/// The clamp for a bound sum below INT64_MIN: the bound is loosened to a
/// large negative value instead of wrapping. Only huge constants reach it,
/// and the clamp errs toward ⊥ detection.
constexpr int64_t NegClamp = INT64_MIN / 4;

/// Bound addition with +∞ absorption. Positive overflow loosens to +∞,
/// negative overflow to NegClamp; a bound never wraps.
int64_t bAdd(int64_t A, int64_t B) {
  if (A == Inf || B == Inf)
    return Inf;
  int64_t R;
  if (__builtin_add_overflow(A, B, &R))
    return (A > 0) ? Inf : NegClamp;
  return R;
}

/// −C as a bound. −INT64_MIN is not representable: the bound is dropped
/// (+∞), which loosens it.
int64_t bNeg(int64_t C) { return C == INT64_MIN ? Inf : -C; }

/// ⌊A/2⌋, with +∞ absorption (an arithmetic shift floors, and unlike
/// (A − 1)/2 it is defined on INT64_MIN).
int64_t floorDiv2(int64_t A) { return A == Inf ? Inf : A >> 1; }

/// A symbol guaranteed absent from \p O, derived from \p Base. The common
/// case interns nothing new; each collision step interns one more
/// candidate, and candidates are reused process-wide, so the table stays
/// bounded by the worst simultaneous collision depth. The '$' in fallback
/// names cannot appear in a source identifier (see lang/lexer.cpp), so
/// generated names never collide with program variables.
SymbolId freshSymbol(const Octagon &O, const std::string &Base) {
  SymbolId S = internSymbol(Base);
  for (unsigned K = 0; O.varIndex(S) != npos; ++K)
    S = internSymbol(Base + "$" + std::to_string(K));
  return S;
}

} // namespace

size_t Octagon::varIndex(SymbolId Sym) const {
  auto It = std::lower_bound(varList().begin(), varList().end(), Sym);
  if (It == varList().end() || *It != Sym)
    return npos;
  return static_cast<size_t>(It - varList().begin());
}

size_t Octagon::varIndex(const std::string &Var) const {
  SymbolId Sym = lookupSymbol(Var);
  return Sym == kNoSymbol ? npos : varIndex(Sym);
}

void Octagon::setMat(std::vector<int64_t> V) {
  recordDbmAlloc(V.size());
  MPtr = std::make_shared<MatBuf>();
  MPtr->M = std::move(V);
}

void Octagon::resizeFor(std::vector<SymbolId> NewVars,
                        const std::vector<size_t> &OldIndexOfNew) {
  assert(OldIndexOfNew.size() == NewVars.size() &&
         "index map must cover new vars");
  // No invalidateDerived() here: the old buffer is only read (sharers keep
  // it, caches intact) and setMat() installs a fresh cache-free buffer.
  const int64_t *OldM = mat().data();
  size_t NewDim = 2 * NewVars.size();
  // The old doubled index of every new one (npos: fresh), computed once.
  static thread_local std::vector<size_t> OldOf; // see pairPivot's scratch
  OldOf.resize(NewDim);
  for (size_t J = 0; J < NewDim; ++J) {
    size_t OldVar = OldIndexOfNew[J / 2];
    OldOf[J] = OldVar == npos ? npos : 2 * OldVar + (J & 1);
  }
  std::vector<int64_t> NewM(matSize(NewDim), Inf);
  int64_t *Row = NewM.data();
  for (size_t I = 0; I < NewDim; Row += (I | 1) + 1, ++I) {
    size_t OI = OldOf[I];
    if (OI == npos) {
      Row[I] = 0; // fresh dimension: unconstrained
      continue;
    }
    // Gather the row from old row OI. A surviving self-loop is copied, not
    // forced to 0: a raw-set negative diagonal is pending ⊥ evidence that
    // the next closure must still see. A cell past the old row's stored
    // range (only a reordering rename puts one there) is read through the
    // coherence involution: (OI, OJ) is stored as (OJ̄, OĪ).
    const int64_t *OldRow = OldM + matPos(OI, 0);
    size_t OldLast = OI | 1;
    for (size_t J = 0, JMax = I | 1; J <= JMax; ++J) {
      size_t OJ = OldOf[J];
      if (OJ == npos)
        continue; // fresh dimension: stays unconstrained
      Row[J] = OJ <= OldLast ? OldRow[OJ] : OldM[matPos(OJ ^ 1, OI ^ 1)];
    }
  }
  setMat(std::move(NewM));
  setVars(std::move(NewVars));
}

void Octagon::addVars(std::span<const SymbolId> Syms) {
  if (std::all_of(Syms.begin(), Syms.end(),
                  [this](SymbolId Sym) { return varIndex(Sym) != npos; }))
    return;
  std::vector<SymbolId> NewVars = varList();
  for (SymbolId Sym : Syms) {
    auto It = std::lower_bound(NewVars.begin(), NewVars.end(), Sym);
    if (It == NewVars.end() || *It != Sym)
      NewVars.insert(It, Sym);
  }
  std::vector<size_t> OldIdx(NewVars.size());
  for (size_t K = 0, Old = 0; K < NewVars.size(); ++K)
    OldIdx[K] = (Old < numVars() && varList()[Old] == NewVars[K]) ? Old++
                                                                   : npos;
  resizeFor(std::move(NewVars), OldIdx);
  // Fresh unconstrained dimensions keep closedness.
}

void Octagon::forgetAndRemove(SymbolId Sym) {
  size_t Idx = varIndex(Sym);
  if (Idx == npos)
    return;
  // Precision requires propagating Sym's constraints first.
  close();
  if (Bottom)
    return;
  std::vector<SymbolId> NewVars;
  std::vector<size_t> OldIdx;
  for (size_t K = 0; K < numVars(); ++K) {
    if (K == Idx)
      continue;
    NewVars.push_back(varList()[K]);
    OldIdx.push_back(K);
  }
  resizeFor(std::move(NewVars), OldIdx);
}

void Octagon::forgetAndRemove(const std::string &Var) {
  // Probing only: forgetting a never-interned name is a no-op and must not
  // grow the intern table.
  SymbolId Sym = lookupSymbol(Var);
  if (Sym != kNoSymbol)
    forgetAndRemove(Sym);
}

void Octagon::forgetInPlace(size_t Idx) {
  assert(Idx < numVars() && "forget index out of range");
  // Propagate Idx's constraints before dropping them (precision), exactly
  // as forgetAndRemove does.
  close();
  if (Bottom)
    return;
  invalidateDerived();
  size_t Dim = 2 * numVars();
  std::vector<int64_t> &MM = matMut();
  // Every stored cell incident to the doubled indices of Idx: the two rows
  // (columns 0..(I|1)) and the two columns (rows with J ≤ (A|1)).
  for (int S = 0; S < 2; ++S) {
    size_t I = 2 * Idx + S;
    size_t RowBase = matPos(I, 0);
    for (size_t J = 0, JMax = I | 1; J <= JMax; ++J)
      MM[RowBase + J] = Inf;
    for (size_t A = 0; A < Dim; ++A)
      if (I <= (A | 1))
        MM[matPos(A, I)] = Inf;
    MM[matPos(I, I)] = 0;
  }
  // Removing constraints from a closed matrix cannot break the closure
  // axioms (every bound on the right of them only grows), so Closed holds.
}

void Octagon::restrictAndRename(const std::vector<SymbolId> &From,
                                const std::vector<SymbolId> &To) {
  assert(From.size() == To.size() && "one target per source");
  // (new symbol, old index) of every present source, in new-symbol order.
  std::vector<std::pair<SymbolId, size_t>> Kept;
  for (size_t K = 0; K < From.size(); ++K)
    if (size_t Idx = varIndex(From[K]); Idx != npos)
      Kept.emplace_back(To[K], Idx);
  std::sort(Kept.begin(), Kept.end());
  assert(std::adjacent_find(Kept.begin(), Kept.end(),
                            [](const auto &A, const auto &B) {
                              return A.first == B.first;
                            }) == Kept.end() &&
         "restrictAndRename targets must be distinct");
  bool Dropped = Kept.size() != numVars();
  bool Identity = !Dropped;
  for (size_t K = 0; Identity && K < Kept.size(); ++K)
    Identity = Kept[K].first == varList()[K] && Kept[K].second == K;
  if (Identity)
    return; // nothing dropped or renamed
  if (Dropped) {
    // Precision requires propagating the dropped variables' constraints
    // first. close() never reindexes, so Kept stays valid unless the value
    // collapses to ⊥ (then there is nothing left to project).
    close();
    if (Bottom)
      return;
  }
  std::vector<SymbolId> NewVars(Kept.size());
  std::vector<size_t> OldIdx(Kept.size());
  for (size_t K = 0; K < Kept.size(); ++K)
    std::tie(NewVars[K], OldIdx[K]) = Kept[K];
  resizeFor(std::move(NewVars), OldIdx);
}

void Octagon::projectRawTo(const std::vector<SymbolId> &Keep) {
  if (Bottom)
    return;
  std::vector<SymbolId> NewVars;
  std::vector<size_t> OldIdx;
  for (size_t K = 0; K < numVars(); ++K) {
    if (std::find(Keep.begin(), Keep.end(), varList()[K]) == Keep.end())
      continue;
    NewVars.push_back(varList()[K]);
    OldIdx.push_back(K);
  }
  if (NewVars.size() == numVars())
    return;
  resizeFor(std::move(NewVars), OldIdx);
}

void Octagon::set(size_t I, size_t J, int64_t V) {
  assert(I < 2 * numVars() && J < 2 * numVars() && "set index out of range");
  size_t Pos = matPos2(I, J);
  if (mat()[Pos] == V)
    return; // no-op write: matrix, caches, and Closed all stay valid
  invalidateDerived();
  matMut()[Pos] = V;
  // Any change breaks the canonical form: a raised entry is looser than
  // what the rest of the matrix implies, a tightened one is unpropagated
  // (and could even hide ⊥), so the flag survives only no-op writes.
  Closed = false;
}

bool Octagon::addConstraint(size_t XIdx, bool PosX, size_t YIdx, bool PosY,
                            int64_t C) {
  assert(XIdx < numVars() && "constraint variable out of range");
  // Like set(): only a write that lowers the cell un-shares the buffer,
  // drops the derived caches and clears Closed.
  auto tighten = [&](size_t I, size_t J, int64_t Bound) {
    size_t Pos = matPos2(I, J);
    if (Bound >= mat()[Pos])
      return false;
    invalidateDerived();
    matMut()[Pos] = Bound;
    Closed = false;
    return true;
  };
  if (YIdx == npos) {
    // ±x ≤ C  ⟺  (±x) − (∓x) ≤ 2C. A doubled bound at or past the +∞
    // sentinel is dropped; one below INT64_MIN saturates as bAdd does.
    size_t Pos = 2 * XIdx, Neg = 2 * XIdx + 1;
    if (C >= Inf / 2)
      return false;
    return PosX ? tighten(Neg, Pos, bAdd(C, C)) : tighten(Pos, Neg, bAdd(C, C));
  }
  assert(YIdx < numVars() && "constraint variable out of range");
  assert(XIdx != YIdx && "binary constraints need distinct variables");
  // (±x) + (±y) ≤ C  ⟺  V_a − V_b ≤ C with V_a = ±x and V_b = ∓y. The
  // coherent mirror (ā, b̄) is the same stored cell, so one write covers
  // both orientations.
  size_t A = 2 * XIdx + (PosX ? 0 : 1);
  size_t B = 2 * YIdx + (PosY ? 1 : 0);
  return tighten(B, A, C);
}

void Octagon::assignShifted(size_t Idx, bool Negate, int64_t C) {
  assert(Idx < numVars() && "assignment target out of range");
  assert(C > -(Inf / 2) && C < Inf / 2 && "shift must keep 2C representable");
  if (!Negate && C == 0)
    return; // x := x
  invalidateDerived();
  int64_t *M = matMut().data();
  const size_t P = 2 * Idx, N = P + 1, Dim = 2 * numVars();
  // The new coordinates are V'_P = ±x + C and V'_N = −V'_P. For −x the two
  // doubled indices trade places (V'_P starts as V_N); then every stored
  // cell (I, J) bounding V_J − V_I moves by d(J) − d(I), where d(P) = C,
  // d(N) = −C and d = 0 elsewhere. The rows of P and N hold x's cells
  // against lower variables, its unary cells and its self-loops; below
  // them, x's cells against higher variables sit in columns P and N.
  bool Exact = true;
  auto shift = [&Exact](int64_t &Slot, int64_t D) {
    int64_t R;
    if (Slot == Inf)
      return;
    if (__builtin_add_overflow(Slot, D, &R) || R == Inf) {
      Exact = false; // saturated: loosened, maybe no longer a shortest path
      R = bAdd(Slot, D);
    }
    Slot = R;
  };
  int64_t *RowP = M + matPos(P, 0), *RowN = M + matPos(N, 0);
  for (size_t J = 0; J < P; ++J) {
    if (Negate)
      std::swap(RowP[J], RowN[J]);
    shift(RowP[J], -C);
    shift(RowN[J], C);
  }
  if (Negate) {
    std::swap(RowP[N], RowN[P]); // the unary cells 2x ≤ · and −2x ≤ ·
    std::swap(RowP[P], RowN[N]); // the self-loops
  }
  shift(RowP[N], -2 * C);
  shift(RowN[P], 2 * C);
  for (size_t I = N + 1; I < Dim; ++I) {
    int64_t *Row = M + matPos(I, 0);
    if (Negate)
      std::swap(Row[P], Row[N]);
    shift(Row[P], C);
    shift(Row[N], -C);
  }
  if (!Exact)
    Closed = false;
}

void Octagon::elementwiseMax(const Octagon &O) {
  assert(varList() == O.varList() && "elementwiseMax requires equal vars");
  invalidateDerived();
  std::vector<int64_t> &MM = matMut();
  const std::vector<int64_t> &Theirs = O.mat();
  for (size_t I = 0, E = MM.size(); I < E; ++I)
    if (Theirs[I] > MM[I])
      MM[I] = Theirs[I];
}

void Octagon::widenWith(const Octagon &O) {
  assert(varList() == O.varList() && "widenWith requires equal vars");
  invalidateDerived();
  size_t Dim = 2 * numVars();
  std::vector<int64_t> &MM = matMut();
  const std::vector<int64_t> &Theirs = O.mat();
  for (size_t I = 0, E = MM.size(); I < E; ++I)
    if (Theirs[I] > MM[I])
      MM[I] = Inf;
  // Pin the diagonal (both diagonals are 0 in well-formed inputs; this
  // guards against raw-edited values).
  for (size_t I = 0; I < Dim; ++I)
    MM[matPos(I, I)] = 0;
  Closed = false;
}

void Octagon::pairPivot(size_t VarK, uint64_t &CellsTouched) {
  size_t Dim = 2 * numVars();
  std::vector<int64_t> &MM = matMut();
  const size_t K = 2 * VarK, K1 = K + 1;
  // Snapshot the two pivot rows (the textbook D_{k-1} reads). The four
  // Miné path candidates below include the K↔K1 compositions explicitly,
  // which is what makes the PAIR step correct on a coherent half-matrix: a
  // single-index sweep would apply the pivot to only one orientation of
  // each stored cell. Coherence turns the pivot *columns* into these same
  // rows: m[I][K] = m[K̄][Ī] = RowK1[Ī], and m[I][K1] = RowK[Ī].
  // Scratch rows are thread_local (single-threaded engine per thread, like
  // closureCounters): the pivot kernels run thousands of times per analysis
  // and must not pay a heap allocation each.
  static thread_local std::vector<int64_t> RowK, RowK1;
  RowK.resize(Dim);
  RowK1.resize(Dim);
  for (size_t J = 0; J < Dim; ++J) {
    RowK[J] = MM[matPos2(K, J)];
    RowK1[J] = MM[matPos2(K1, J)];
  }
  const int64_t KK1 = RowK[K1]; // m[K][K+1]
  const int64_t K1K = RowK1[K]; // m[K+1][K]
  for (size_t I = 0; I < Dim; ++I) {
    const int64_t IK = RowK1[I ^ 1];
    const int64_t IK1 = RowK[I ^ 1];
    // Cheapest way from I into each pivot, allowing the K↔K1 hop; combined
    // with the pivot rows below this realizes all four candidates
    // I→K→J, I→K1→J, I→K→K1→J, I→K1→K→J.
    const int64_t BestIK = std::min(IK, bAdd(IK1, K1K));
    const int64_t BestIK1 = std::min(IK1, bAdd(IK, KK1));
    if (BestIK == Inf && BestIK1 == Inf)
      continue;
    const size_t JMax = I | 1;
    const size_t RowBase = matPos(I, 0);
    for (size_t J = 0; J <= JMax; ++J) {
      const int64_t Cand =
          std::min(bAdd(BestIK, RowK[J]), bAdd(BestIK1, RowK1[J]));
      int64_t &Slot = MM[RowBase + J];
      if (Cand < Slot) {
        Slot = Cand;
        ++CellsTouched;
      }
    }
  }
}

bool Octagon::strengthenAndCheckEmpty(uint64_t &CellsTouched) {
  size_t Dim = 2 * numVars();
  std::vector<int64_t> &MM = matMut();
  // Strengthening: combine the two unary constraints through i and j̄.
  // Snapshotting ⌊m[i][ī]/2⌋ up front matches the in-place dense sweep
  // exactly: strengthening a unary cell rewrites it to 2·⌊·/2⌋, which is a
  // fixed point of floorDiv2, so pre- and post-update reads agree.
  static thread_local std::vector<int64_t> Unary; // see pairPivot's scratch
  Unary.resize(Dim);
  for (size_t I = 0; I < Dim; ++I)
    Unary[I] = floorDiv2(MM[matPos2(I, I ^ 1)]);
  for (size_t I = 0; I < Dim; ++I) {
    const int64_t HalfI = Unary[I];
    if (HalfI == Inf)
      continue; // every candidate in this row is +∞
    const size_t JMax = I | 1;
    const size_t RowBase = matPos(I, 0);
    for (size_t J = 0; J <= JMax; ++J) {
      int64_t Cand = bAdd(HalfI, Unary[J ^ 1]);
      int64_t &Slot = MM[RowBase + J];
      if (Cand < Slot) {
        Slot = Cand;
        ++CellsTouched;
      }
    }
  }
  // Emptiness: a negative self-loop.
  for (size_t I = 0; I < Dim; ++I) {
    int64_t &D = MM[matPos(I, I)];
    if (D < 0) {
      *this = bottomValue();
      return false;
    }
    D = 0;
  }
  return true;
}

void Octagon::close() {
  DAI_FAULT_POINT(Closure); // at entry: matrix and Closed flag untouched
  if (Bottom)
    return;
  if (Closed) {
    ++closureCounters().ClosesSkipped;
    return;
  }
  if (MPtr && MPtr->ClosedCache) {
    // Another consumer already closed this matrix: adopt its result.
    std::shared_ptr<const Octagon> Cache = MPtr->ClosedCache; // keep alive
    ++closureCounters().CachedCloses;
    *this = *Cache;
    return;
  }
  size_t N = numVars();
  if (N == 0) {
    Closed = true;
    return;
  }
  ++closureCounters().FullCloses;
  TraceSpan Sp("oct.close_full", N);
  uint64_t Touched = 0;
  for (size_t V = 0; V < N; ++V)
    pairPivot(V, Touched);
  bool NonEmpty = strengthenAndCheckEmpty(Touched);
  closureCounters().CellsTouched += Touched;
  if (!NonEmpty)
    return;
  Closed = true;
}

void Octagon::closeIncremental(size_t XIdx, size_t YIdx) {
  DAI_FAULT_POINT(Closure); // at entry: matrix and Closed flag untouched
  if (Bottom)
    return;
  if (Closed) {
    // addConstraint always clears the flag, so this only happens when a
    // caller re-closes defensively; count it with the other skips.
    ++closureCounters().ClosesSkipped;
    return;
  }
  if (numVars() == 0) {
    Closed = true;
    return;
  }
  assert(XIdx < numVars() && "pivot variable out of range");
  invalidateDerived(); // the pivot sweeps below write M directly
  ++closureCounters().IncrementalCloses;
  TraceSpan Sp("oct.close_incr", numVars());
  uint64_t Touched = 0;
  // Every tightened edge is incident to the doubled indices of x (and y),
  // so any path improved by the new constraints decomposes into old
  // shortest-path segments joined at those ≤4 vertices: running the pair
  // pivot step for just these variables restores exact shortest paths in
  // O(n²) (each pair is processed once; order is irrelevant).
  pairPivot(XIdx, Touched);
  if (YIdx != npos) {
    assert(YIdx < numVars() && "pivot variable out of range");
    pairPivot(YIdx, Touched);
  }
  bool NonEmpty = strengthenAndCheckEmpty(Touched);
  closureCounters().CellsTouched += Touched;
  if (!NonEmpty)
    return;
  Closed = true;
}

void Octagon::closeIncrementalMulti(const std::vector<size_t> &Idxs) {
  DAI_FAULT_POINT(Closure); // at entry: matrix and Closed flag untouched
  if (Bottom)
    return;
  if (Closed) {
    ++closureCounters().ClosesSkipped;
    return;
  }
  if (numVars() == 0) {
    Closed = true;
    return;
  }
  // Deduplicate: pivoting a variable twice in one pass is wasted work (the
  // second sweep finds nothing to tighten). Sorting keeps the pivot order
  // deterministic regardless of the caller's collection order.
  static thread_local std::vector<size_t> Pivots; // scratch, see pairPivot
  Pivots.assign(Idxs.begin(), Idxs.end());
  std::sort(Pivots.begin(), Pivots.end());
  Pivots.erase(std::unique(Pivots.begin(), Pivots.end()), Pivots.end());
  if (Pivots.empty())
    return; // no touched variables: nothing this closure could restore
  invalidateDerived(); // the pivot sweeps below write M directly
  ++closureCounters().IncrementalCloses;
  TraceSpan Sp("oct.close_incr", numVars(), Pivots.size());
  uint64_t Touched = 0;
  for (size_t Idx : Pivots) {
    assert(Idx < numVars() && "pivot variable out of range");
    pairPivot(Idx, Touched);
  }
  bool NonEmpty = strengthenAndCheckEmpty(Touched);
  closureCounters().CellsTouched += Touched;
  if (!NonEmpty)
    return;
  Closed = true;
}

const Octagon &Octagon::closedView() const {
  if (Bottom || Closed)
    return *this;
  if (numVars() == 0) {
    // Unclosed but zero-variable: the closure is the empty ⊤. Handled
    // before touching MPtr — caching a copy here would let close()'s
    // zero-dimension early-return keep sharing this buffer and form a
    // MatBuf→Octagon→MatBuf cycle (a leak).
    static const Octagon EmptyClosed;
    return EmptyClosed;
  }
  if (!MPtr->ClosedCache) {
    auto C = std::make_shared<Octagon>(*this); // close() un-shares C's buffer
    C->close();
    MPtr->ClosedCache = std::move(C);
  } else {
    ++closureCounters().CachedCloses;
  }
  return *MPtr->ClosedCache;
}

Interval Octagon::boundsOf(SymbolId Sym) const {
  assert(!Bottom && "boundsOf on ⊥");
  size_t Idx = varIndex(Sym);
  if (Idx == npos)
    return Interval::top();
  int64_t UpperRaw = mat()[matPos2(2 * Idx + 1, 2 * Idx)]; // 2x ≤ UpperRaw
  int64_t LowerRaw = mat()[matPos2(2 * Idx, 2 * Idx + 1)]; // −2x ≤ LowerRaw
  int64_t Hi = (UpperRaw == Inf) ? Interval::kPosInf : floorDiv2(UpperRaw);
  int64_t Lo = (LowerRaw == Inf) ? Interval::kNegInf : -floorDiv2(LowerRaw);
  return Interval::range(Lo, Hi);
}

Interval Octagon::boundsOf(const std::string &Var) const {
  SymbolId Sym = lookupSymbol(Var);
  return Sym == kNoSymbol ? Interval::top() : boundsOf(Sym);
}

Interval Octagon::sumBounds(SymbolId X, SymbolId Y) const {
  assert(!Bottom && "sumBounds on ⊥");
  assert(Closed && "sumBounds requires a closed receiver");
  if (X == Y) {
    Interval B = boundsOf(X);
    return B.add(B); // 2x
  }
  size_t I = varIndex(X), J = varIndex(Y);
  if (I == npos || J == npos)
    return boundsOf(X).add(boundsOf(Y)); // at least one operand is ⊤
  // (+x) − (−y) = x + y ≤ at(2j+1, 2i); (−x) − (+y) = −x − y ≤ at(2j, 2i+1).
  int64_t Up = at(2 * J + 1, 2 * I);
  int64_t Dn = at(2 * J, 2 * I + 1);
  return Interval::range(Dn == Inf ? Interval::kNegInf : -Dn,
                         Up == Inf ? Interval::kPosInf : Up);
}

Interval Octagon::diffBounds(SymbolId X, SymbolId Y) const {
  assert(!Bottom && "diffBounds on ⊥");
  assert(Closed && "diffBounds requires a closed receiver");
  if (X == Y)
    return Interval::constant(0);
  size_t I = varIndex(X), J = varIndex(Y);
  if (I == npos || J == npos)
    return boundsOf(X).sub(boundsOf(Y));
  // (+x) − (+y) = x − y ≤ at(2j, 2i); (−x) − (−y) = y − x ≤ at(2j+1, 2i+1).
  int64_t Up = at(2 * J, 2 * I);
  int64_t Dn = at(2 * J + 1, 2 * I + 1);
  return Interval::range(Dn == Inf ? Interval::kNegInf : -Dn,
                         Up == Inf ? Interval::kPosInf : Up);
}

bool Octagon::entailsEntrywise(const Octagon &O) const {
  // "this" must be closed; checks closed(this) ⊑ O entrywise over O's vars.
  // Sweeping O's STORED cells covers every logical entry: both matrices are
  // coherent, and the coherence involution maps stored cells onto the
  // mirrored logical half.
  size_t ODim = 2 * O.numVars();
  const std::vector<int64_t> &TheirM = O.mat();
  // Hoist the symbol→index translation out of the quadratic loop.
  std::vector<size_t> MyIdx(O.numVars());
  for (size_t A = 0; A < O.numVars(); ++A)
    MyIdx[A] = varIndex(O.varList()[A]);
  for (size_t OI = 0; OI < ODim; ++OI) {
    size_t MyA = MyIdx[OI / 2];
    size_t JMax = OI | 1;
    size_t RowBase = matPos(OI, 0);
    for (size_t OJ = 0; OJ <= JMax; ++OJ) {
      int64_t Theirs = TheirM[RowBase + OJ];
      if (Theirs == Inf)
        continue;
      int64_t Mine;
      if (OI == OJ)
        Mine = 0;
      else if (MyA != npos && MyIdx[OJ / 2] != npos)
        Mine = mat()[matPos2(2 * MyA + (OI & 1),
                             2 * MyIdx[OJ / 2] + (OJ & 1))];
      else
        Mine = Inf;
      if (Mine > Theirs)
        return false;
    }
  }
  return true;
}

uint64_t Octagon::hash() const {
  if (Bottom)
    return 0x0c7a60b07700ULL;
  uint64_t H = 0x8f1bbcdc12345678ULL;
  for (SymbolId V : varList())
    H = hashCombine(H, static_cast<uint64_t>(V));
  for (int64_t E : mat())
    H = hashCombine(H, static_cast<uint64_t>(E));
  return H;
}

size_t Octagon::markConstrained(std::vector<uint8_t> &Mark) const {
  const size_t N = numVars(), Dim = 2 * N;
  Mark.assign(N, 0);
  const int64_t *M = mat().data();
  size_t Count = 0;
  // Unary cells first: rows 2k and 2k+1 hold them at columns 2k+1 and 2k.
  for (size_t K = 0; K < N; ++K)
    if (M[matPos(2 * K, 2 * K + 1)] != Inf ||
        M[matPos(2 * K + 1, 2 * K)] != Inf) {
      Mark[K] = 1;
      ++Count;
    }
  // Binary cells, only for the dimensions still unmarked: a stored cell
  // relating K to a lower variable sits in rows 2k and 2k+1 below column
  // 2k, one relating it to a higher variable in columns 2k and 2k+1 of
  // the rows below. Every logical non-⊤ off-diagonal entry has a stored
  // representative over the same variable pair, so this sees them all;
  // the first one found marks both of its variables.
  for (size_t K = 0; K < N && Count < N; ++K) {
    if (Mark[K])
      continue;
    const size_t P = 2 * K;
    size_t Other = npos;
    const int64_t *RowP = M + matPos(P, 0), *RowN = M + matPos(P + 1, 0);
    for (size_t J = 0; Other == npos && J < P; ++J)
      if (RowP[J] != Inf || RowN[J] != Inf)
        Other = J / 2;
    for (size_t I = P + 2; Other == npos && I < Dim; ++I) {
      const int64_t *Row = M + matPos(I, 0);
      if (Row[P] != Inf || Row[P + 1] != Inf)
        Other = I / 2;
    }
    if (Other == npos)
      continue;
    Count += 1 + !Mark[Other];
    Mark[K] = Mark[Other] = 1;
  }
  return Count;
}

uint64_t Octagon::hashNormalized() const {
  assert((Bottom || Closed) && "hashNormalized requires a closed receiver");
  if (Bottom)
    return 0x0c7a60b07700ULL;
  if (!MPtr)
    return hash(); // no dimensions: nothing to drop
  if (MPtr->NormHashValid)
    return MPtr->NormHash;
  static thread_local std::vector<uint8_t> Mark; // see pairPivot's scratch
  if (!MPtr->AllConstrained && markConstrained(Mark) == numVars())
    MPtr->AllConstrained = true;
  uint64_t H;
  if (MPtr->AllConstrained) {
    H = hash();
  } else {
    // Kept = the constrained dimensions (normalize()'s predicate), hashed
    // in hash()'s order over the restricted half-matrix: kept ids
    // ascending, then the restricted storage in row-major order.
    std::vector<size_t> Kept;
    for (size_t K = 0; K < numVars(); ++K)
      if (Mark[K])
        Kept.push_back(K);
    H = 0x8f1bbcdc12345678ULL;
    for (size_t K : Kept)
      H = hashCombine(H, static_cast<uint64_t>(varList()[K]));
    size_t KDim = 2 * Kept.size();
    for (size_t NI = 0; NI < KDim; ++NI) {
      size_t OldI = 2 * Kept[NI / 2] + (NI & 1);
      for (size_t NJ = 0, JMax = NI | 1; NJ <= JMax; ++NJ) {
        size_t OldJ = 2 * Kept[NJ / 2] + (NJ & 1);
        H = hashCombine(H, static_cast<uint64_t>(mat()[matPos2(OldI, OldJ)]));
      }
    }
  }
  MPtr->NormHash = H;
  MPtr->NormHashValid = true;
  return H;
}

void Octagon::normalize() {
  close();
  if (Bottom || !MPtr)
    return; // ⊥, or no dimensions to drop
  if (MPtr->AllConstrained)
    return;
  static thread_local std::vector<uint8_t> Mark; // see pairPivot's scratch
  if (markConstrained(Mark) != numVars()) {
    // The kept dimensions stay constrained: a dropped one has no
    // constraint, so none of theirs relates them to it. A closed matrix
    // projects without re-closing.
    std::vector<SymbolId> NewVars;
    std::vector<size_t> OldIdx;
    for (size_t K = 0; K < numVars(); ++K)
      if (Mark[K]) {
        NewVars.push_back(varList()[K]);
        OldIdx.push_back(K);
      }
    resizeFor(std::move(NewVars), OldIdx);
  }
  MPtr->AllConstrained = true;
}

std::string Octagon::toString() const {
  if (Bottom)
    return "⊥";
  std::ostringstream OS;
  OS << "{";
  bool First = true;
  auto emit = [&](const std::string &Text) {
    if (!First)
      OS << ", ";
    First = false;
    OS << Text;
  };
  for (size_t I = 0; I < numVars(); ++I) {
    const std::string &NameI = symbolName(varList()[I]);
    Interval B = boundsOf(varList()[I]);
    if (!B.isTop())
      emit(NameI + " in " + B.toString());
    for (size_t J = I + 1; J < numVars(); ++J) {
      const std::string &NameJ = symbolName(varList()[J]);
      // x_J − x_I ≤ c and x_I + x_J ≤ c forms, both signs.
      int64_t Diff = at(2 * I, 2 * J);
      if (Diff != Inf)
        emit(NameJ + " - " + NameI + " <= " + std::to_string(Diff));
      int64_t RevDiff = at(2 * J, 2 * I);
      if (RevDiff != Inf)
        emit(NameI + " - " + NameJ + " <= " + std::to_string(RevDiff));
      int64_t Sum = at(2 * I + 1, 2 * J);
      if (Sum != Inf)
        emit(NameI + " + " + NameJ + " <= " + std::to_string(Sum));
      int64_t NegSum = at(2 * I, 2 * J + 1);
      if (NegSum != Inf)
        emit("-" + NameI + " - " + NameJ + " <= " + std::to_string(NegSum));
    }
  }
  OS << "}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// OctagonDomain
//===----------------------------------------------------------------------===//

namespace {

/// Projects the octagon onto per-variable intervals (for the interval
/// fallback on non-octagonal expressions). Requires \p O closed. Both
/// sides of this interface are SymbolId-keyed, so no strings are touched.
IntervalState toIntervalState(const Octagon &O) {
  IntervalState S;
  if (O.isBottom()) {
    S.Bottom = true;
    return S;
  }
  S.Env.reserve(O.numVars());
  for (SymbolId V : O.vars())
    S.set(V, VarAbs::numeric(O.boundsOf(V)));
  return S;
}

/// Makes x unconstrained in the closed \p O and returns its index: havocs
/// a tracked x in place, or adds it. \p Also is added too, in the same
/// resize, which comes first so that the havoc runs on its fresh buffer.
size_t havocOrAdd(Octagon &O, SymbolId X, SymbolId Also) {
  bool Tracked = O.varIndex(X) != npos;
  O.addVars(std::array<SymbolId, 2>{X, Also});
  size_t XI = O.varIndex(X);
  if (Tracked)
    O.forgetInPlace(XI); // in place: no dimension resize
  return XI;
}

/// Binds x to the interval \p I (neither ⊤ nor empty) in the closed \p O.
void bindToInterval(Octagon &O, SymbolId X, const Interval &I) {
  size_t XI = havocOrAdd(O, X, X);
  if (I.hi() != Interval::kPosInf)
    O.addConstraint(XI, true, npos, true, I.hi());
  if (I.lo() != Interval::kNegInf)
    O.addConstraint(XI, false, npos, true, -I.lo());
  O.closeIncremental(XI);
}

/// Assigns x := e precisely for octagonal right-hand sides, with an interval
/// fallback otherwise. \p O must be closed on entry; closed on exit.
void evalAssign(Octagon &O, SymbolId X, const ExprPtr &E) {
  LinForm F = linearize(E);
  bool Octagonal = F.Ok && F.Coeffs.size() <= 1 &&
                   (F.Coeffs.empty() || F.Coeffs.begin()->second == 1 ||
                    F.Coeffs.begin()->second == -1);
  if (Octagonal && F.Coeffs.empty()) {
    // x := c. havoc/addVar keep the value closed, so the two unary
    // constraints on x re-close incrementally.
    size_t XI = havocOrAdd(O, X, X);
    O.addConstraint(XI, /*PosX=*/true, npos, true, F.Const);
    O.addConstraint(XI, /*PosX=*/false, npos, true, bNeg(F.Const));
    O.closeIncremental(XI);
    return;
  }
  if (Octagonal) {
    SymbolId Y = F.Coeffs.begin()->first;
    bool PosY = F.Coeffs.begin()->second > 0;
    if (Y != X) {
      size_t XI = havocOrAdd(O, X, Y), YI = O.varIndex(Y);
      // x − (±y) ≤ c and −x + (±y) ≤ −c.
      O.addConstraint(XI, true, YI, !PosY, F.Const);
      O.addConstraint(XI, false, YI, PosY, bNeg(F.Const));
      O.closeIncremental(XI, YI);
      return;
    }
    // x := ±x + c is invertible: it maps the closed value onto a closed
    // value in place. An untracked x stays unconstrained, so the value is
    // unchanged. A shift too large for ±2c to fit in int64 takes the
    // interval fallback below, which saturates.
    if (F.Const > -(Inf / 2) && F.Const < Inf / 2) {
      if (size_t XI = O.varIndex(X); XI != npos)
        O.assignShifted(XI, /*Negate=*/!PosY, F.Const);
      return;
    }
  }
  // Interval fallback: bound x by the interval of e.
  Interval I = IntervalDomain::eval(E, toIntervalState(O)).Num;
  if (I.isEmpty()) {
    // e has NO possible value (e.g. a division by exactly zero): the
    // assignment cannot execute, so the whole state is unreachable — the
    // opposite of havocking x.
    O = Octagon::bottomValue();
    return;
  }
  if (!I.isTop())
    bindToInterval(O, X, I);
  else
    O.forgetAndRemove(X); // unconstrained: drop the dimension entirely
}

/// Adds the linear inequality F ≤ 0 when it is octagonal; returns false if
/// the form is not representable (caller falls back to intervals).
bool addLinearLeqZero(Octagon &O, const LinForm &F) {
  if (!F.Ok || F.Coeffs.size() > 2)
    return false;
  std::array<SymbolId, 2> Vars{};
  size_t NVars = 0;
  for (const auto &[V, C] : F.Coeffs) {
    if (C != 1 && C != -1)
      return false;
    Vars[NVars++] = V;
  }
  int64_t Bound = bNeg(F.Const); // Σ ±v ≤ −Const.
  if (F.Coeffs.empty()) {
    if (0 > Bound)
      O = Octagon::bottomValue();
    return true;
  }
  O.addVars({Vars.data(), NVars});
  // O is closed on entry (assume() closes its input; addVars preserves
  // closure), so one incremental re-closure suffices.
  auto It = F.Coeffs.begin();
  if (F.Coeffs.size() == 1) {
    size_t XI = O.varIndex(It->first);
    O.addConstraint(XI, It->second > 0, npos, true, Bound);
    O.closeIncremental(XI);
  } else {
    auto It2 = std::next(It);
    size_t XI = O.varIndex(It->first), YI = O.varIndex(It2->first);
    O.addConstraint(XI, It->second > 0, YI, It2->second > 0, Bound);
    O.closeIncremental(XI, YI);
  }
  return true;
}

} // namespace

bool OctagonDomain::isBottom(const Elem &A) {
  if (A.Bottom)
    return true;
  if (A.isClosed())
    return false;
  return A.closedView().isBottom();
}

Octagon OctagonDomain::initialEntry(const std::vector<std::string> &) {
  return Octagon::top();
}

Octagon OctagonDomain::assume(const Elem &In, const ExprPtr &Cond) {
  if (In.Bottom || !Cond)
    return In;
  switch (Cond->Kind) {
  case ExprKind::BoolLit:
    return Cond->BoolVal ? In : bottom();
  case ExprKind::IntLit:
    return Cond->IntVal != 0 ? In : bottom();
  case ExprKind::Unary:
    if (Cond->UOp == UnaryOp::Not)
      return assume(In, negate(Cond->Lhs));
    return In;
  case ExprKind::Var:
    return assume(In, Expr::mkBinary(BinaryOp::Ne, Cond, Expr::mkInt(0)));
  case ExprKind::Binary: {
    if (Cond->BOp == BinaryOp::And)
      return assume(assume(In, Cond->Lhs), Cond->Rhs);
    if (Cond->BOp == BinaryOp::Or)
      return join(assume(In, Cond->Lhs), assume(In, Cond->Rhs));
    if (!isComparison(Cond->BOp))
      return In;
    Octagon Out = In.closedView();
    if (Out.isBottom())
      return Out;
    // Null comparisons carry no octagonal content.
    if ((Cond->Lhs && Cond->Lhs->Kind == ExprKind::NullLit) ||
        (Cond->Rhs && Cond->Rhs->Kind == ExprKind::NullLit))
      return Out;
    LinForm L = linearize(Cond->Lhs), R = linearize(Cond->Rhs);
    if (L.Ok && R.Ok) {
      LinForm Diff = L.plus(R, -1); // L − R
      bool Handled = true;
      switch (Cond->BOp) {
      case BinaryOp::Le:
        Handled = addLinearLeqZero(Out, Diff);
        break;
      case BinaryOp::Lt:
        Handled = addLinearLeqZero(Out, Diff.plus(LinForm::constant(1), 1));
        break;
      case BinaryOp::Ge:
        Handled = addLinearLeqZero(Out, Diff.scaled(-1));
        break;
      case BinaryOp::Gt:
        Handled = addLinearLeqZero(
            Out, Diff.scaled(-1).plus(LinForm::constant(1), 1));
        break;
      case BinaryOp::Eq:
        Handled = addLinearLeqZero(Out, Diff) &&
                  (Out.isBottom() || addLinearLeqZero(Out, Diff.scaled(-1)));
        break;
      case BinaryOp::Ne:
        Handled = false; // disequality: fall through to interval check
        break;
      default:
        Handled = false;
      }
      if (Handled)
        return Out;
    }
    // Fallback: consult the interval projection; import refined unary
    // bounds and detect definite falsity.
    IntervalState Proj = toIntervalState(Out);
    IntervalState Refined = IntervalDomain::assume(Proj, Cond);
    if (Refined.Bottom)
      return bottom();
    // Import every refined unary bound into the (closed) receiver first,
    // then restore closure with ONE k-pivot sweep over the variables whose
    // bounds lowered a cell: an assume chain refining k variables pays a
    // single O(k·n²) pass instead of k separate re-closures, and one that
    // refines nothing (most bounds re-import what the projection read off
    // the receiver) leaves it closed and unshared.
    std::vector<size_t> TouchedIdxs;
    for (const auto &[Var, V] : Refined.Env) {
      size_t Idx = Out.varIndex(Var);
      if (Idx == npos)
        continue;
      bool Tightened = false;
      if (V.Num.hi() != Interval::kPosInf)
        Tightened |= Out.addConstraint(Idx, true, npos, true, V.Num.hi());
      if (V.Num.lo() != Interval::kNegInf)
        Tightened |= Out.addConstraint(Idx, false, npos, true, -V.Num.lo());
      if (Tightened)
        TouchedIdxs.push_back(Idx);
    }
    if (!TouchedIdxs.empty())
      Out.closeIncrementalMulti(TouchedIdxs);
    return Out;
  }
  default:
    return In;
  }
}

Octagon OctagonDomain::transfer(const Stmt &S, const Elem &In) {
  if (In.Bottom)
    return In;
  Octagon Out = In.closedView();
  if (Out.isBottom())
    return Out;
  switch (S.Kind) {
  case StmtKind::Skip:
  case StmtKind::Print:
  case StmtKind::FieldWrite:
  case StmtKind::ArrayWrite: // array contents are not tracked relationally
    return Out;
  case StmtKind::Alloc:
  case StmtKind::Call:
    Out.forgetAndRemove(S.LhsSym);
    Out.normalize();
    return Out;
  case StmtKind::Assign:
    evalAssign(Out, S.LhsSym, S.Rhs);
    Out.normalize();
    return Out;
  case StmtKind::Assume:
  case StmtKind::Assert: { // Aborts on failure: the condition holds after.
    Octagon R = assume(Out, S.Rhs);
    R.normalize();
    return R;
  }
  }
  return Out;
}

Octagon OctagonDomain::join(const Elem &A, const Elem &B) {
  // Close each input exactly once (the old path closed twice: once inside
  // the isBottom probe and again on the local copy).
  Octagon CA = A.closedView();
  if (CA.isBottom())
    return B;
  const Octagon &CB = B.closedView();
  if (CB.isBottom())
    return CA;
  // Fast path: identical variable sets (the steady state under normalize)
  // need no projection and can tighten CA in place against CB directly.
  if (CA.vars() == CB.vars()) {
    CA.elementwiseMax(CB);
    CA.Closed = true; // elementwise max of two closed DBMs remains closed
    CA.normalize();
    return CA;
  }
  // Join over the common variable set (absent = unconstrained).
  std::vector<SymbolId> Common;
  for (SymbolId V : CA.vars())
    if (CB.varIndex(V) != npos)
      Common.push_back(V);
  CA.restrictTo(Common);
  Octagon CBR = CB;
  CBR.restrictTo(Common);
  CA.elementwiseMax(CBR);
  // Elementwise max of two closed DBMs remains closed.
  CA.Closed = true;
  CA.normalize();
  return CA;
}

Octagon OctagonDomain::widen(const Elem &Prev, const Elem &Next) {
  if (Prev.Bottom)
    return Next;
  Octagon NC = Next.closedView();
  if (NC.isBottom())
    return Prev;
  // The previous iterate must stay UNCLOSED on the left of ∇ for
  // convergence; projectRawTo drops dimensions without closing (dropping
  // is sound for widening).
  Octagon P = Prev;
  std::vector<SymbolId> Common;
  for (SymbolId V : P.vars())
    if (NC.varIndex(V) != npos)
      Common.push_back(V);
  P.projectRawTo(Common);
  NC.restrictTo(Common);
  P.widenWith(NC);
  return P;
}

bool OctagonDomain::leq(const Elem &A, const Elem &B) {
  // Close A exactly once, copying only when it is an (unclosed) widening
  // iterate; the old path copied and closed once for the ⊥ probe and a
  // second time for the entailment check.
  const Octagon &CA = A.closedView();
  if (CA.isBottom())
    return true;
  if (isBottom(B))
    return false;
  return CA.entailsEntrywise(B);
}

bool OctagonDomain::equal(const Elem &A, const Elem &B) {
  return leq(A, B) && leq(B, A);
}

uint64_t OctagonDomain::hash(const Elem &A) {
  // Equivalent to normalize-then-hash, but without copying the matrix:
  // closedView() shares the cached closure and hashNormalized() skips
  // unconstrained dimensions in place.
  return A.closedView().hashNormalized();
}

std::string OctagonDomain::toString(const Elem &A) {
  return A.closedView().toString();
}

Octagon OctagonDomain::enterCall(const Elem &Caller, const Stmt &CallSite,
                                 const std::vector<std::string> &CalleeParams) {
  if (isBottom(Caller))
    return bottom();
  assert(CallSite.Kind == StmtKind::Call && "enterCall requires a call site");
  // Bind temporaries to the actuals inside the caller state, project onto
  // them, then rename to the formals — this preserves relations *among*
  // parameters (e.g. f(i, i+1) enters with p1 − p0 = 1).
  Octagon Tmp = Caller.closedView();
  if (Tmp.isBottom())
    return bottom();
  // The temporaries use '$' names (unspellable as source identifiers), so a
  // program variable named "__arg0" in the caller — or among the actuals
  // still to be evaluated — can never be clobbered by them; freshSymbol
  // additionally guards against any other occupant of the dimension.
  std::vector<SymbolId> TmpSyms;
  for (size_t I = 0, E = CalleeParams.size(); I != E; ++I) {
    SymbolId TmpSym = freshSymbol(Tmp, "__arg$" + std::to_string(I));
    TmpSyms.push_back(TmpSym);
    if (I < CallSite.Args.size())
      evalAssign(Tmp, TmpSym, CallSite.Args[I]);
  }
  // Project onto the temporaries and rename them to the formals in one
  // resize.
  std::vector<SymbolId> Formals;
  for (const std::string &Param : CalleeParams)
    Formals.push_back(internSymbol(Param));
  Tmp.restrictAndRename(TmpSyms, Formals);
  Tmp.normalize();
  return Tmp;
}

Octagon OctagonDomain::exitCall(const Elem &Caller, const Elem &CalleeExit,
                                const Stmt &CallSite) {
  if (isBottom(Caller))
    return bottom();
  if (isBottom(CalleeExit))
    return bottom(); // The call never returns.
  assert(CallSite.Kind == StmtKind::Call && "exitCall requires a call site");
  Octagon Out = Caller.closedView();
  const Octagon &CE = CalleeExit.closedView();
  // Import the return value's interval (relations between callee locals and
  // caller locals are not representable without a combined frame).
  Interval Ret = CE.boundsOf(RetVar);
  if (!Ret.isTop() && !Ret.isEmpty())
    bindToInterval(Out, CallSite.LhsSym, Ret);
  else
    Out.forgetAndRemove(CallSite.LhsSym);
  Out.normalize();
  return Out;
}
