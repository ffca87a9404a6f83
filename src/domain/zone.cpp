//===-- domain/zone.cpp - Sparse split-DBM zone domain --------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "domain/zone.h"

#include "cfg/program.h"
#include "domain/linear.h"
#include "support/fault_injection.h"
#include "support/hashing.h"
#include "support/observe.h"
#include "support/statistics.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <sstream>

using namespace dai;

namespace {

constexpr int64_t Inf = Zone::kPosInf;
constexpr size_t npos = static_cast<size_t>(-1);
constexpr uint32_t NoVert = ~0u;

/// Bound addition with +∞ absorption (same clamp discipline as the
/// octagon's bAdd: negative overflow errs toward ⊥ detection).
int64_t bAdd(int64_t A, int64_t B) {
  if (A == Inf || B == Inf)
    return Inf;
  int64_t R;
  if (__builtin_add_overflow(A, B, &R))
    return (A > 0) ? Inf : INT64_MIN / 4;
  return R;
}

/// −C as a bound. −INT64_MIN is not representable: the bound is dropped
/// (+∞, which tightenAndClose ignores) instead of wrapping.
int64_t bNeg(int64_t C) { return C == INT64_MIN ? Inf : -C; }

/// Bounds with magnitude beyond this are unconstraining no-ops: closure
/// sums up to three stored weights, so Inf/4 of headroom keeps every
/// candidate finite-arithmetic clean.
constexpr int64_t kMaxBound = Inf / 4;

} // namespace

//===----------------------------------------------------------------------===//
// Buffer management (copy-on-write, octagon MatBuf scheme)
//===----------------------------------------------------------------------===//

const Zone::GraphBuf &Zone::buf() const {
  static const GraphBuf Empty{{}, {}, {kNoSymbol}, {{}}, {{}}, {0},
                              {},  0,  nullptr,    0,    false};
  return B ? *B : Empty;
}

Zone::GraphBuf &Zone::bufMut() {
  if (!B) {
    B = std::make_shared<GraphBuf>();
    B->SymOf.push_back(kNoSymbol); // the zero vertex
    B->Out.emplace_back();
    B->In.emplace_back();
    B->Pot.push_back(0);
  } else if (B.use_count() > 1) {
    auto Fresh = std::make_shared<GraphBuf>(*B);
    Fresh->ClosedCache.reset();
    Fresh->NormHashValid = false;
    B = std::move(Fresh);
  }
  return *B;
}

void Zone::invalidateDerived() {
  if (!B)
    return;
  GraphBuf &G = bufMut();
  G.ClosedCache.reset();
  G.NormHashValid = false;
}

const std::vector<SymbolId> &Zone::vars() const { return buf().Vars; }

size_t Zone::varIndex(SymbolId Sym) const {
  const std::vector<SymbolId> &V = vars();
  auto It = std::lower_bound(V.begin(), V.end(), Sym);
  if (It == V.end() || *It != Sym)
    return npos;
  return static_cast<size_t>(It - V.begin());
}

size_t Zone::varIndex(const std::string &Var) const {
  SymbolId Sym = lookupSymbol(Var);
  return Sym == kNoSymbol ? npos : varIndex(Sym);
}

uint32_t Zone::vertOf(SymbolId Sym) const {
  size_t Idx = varIndex(Sym);
  return Idx == npos ? NoVert : buf().VertOf[Idx];
}

uint32_t Zone::ensureVert(SymbolId Sym) {
  uint32_t V = vertOf(Sym);
  if (V != NoVert)
    return V;
  GraphBuf &G = bufMut();
  if (!G.FreeVerts.empty()) {
    V = G.FreeVerts.back();
    G.FreeVerts.pop_back();
    assert(G.Out[V].empty() && G.In[V].empty() && "freed vertex has edges");
  } else {
    V = static_cast<uint32_t>(G.SymOf.size());
    G.SymOf.push_back(kNoSymbol);
    G.Out.emplace_back();
    G.In.emplace_back();
    G.Pot.push_back(0);
  }
  G.SymOf[V] = Sym;
  // A fresh vertex has no edges, so any potential value is valid for it.
  G.Pot[V] = 0;
  auto It = std::lower_bound(G.Vars.begin(), G.Vars.end(), Sym);
  size_t Idx = static_cast<size_t>(It - G.Vars.begin());
  G.Vars.insert(It, Sym);
  G.VertOf.insert(G.VertOf.begin() + static_cast<ptrdiff_t>(Idx), V);
  return V;
}

void Zone::addVar(SymbolId Sym) {
  if (varIndex(Sym) != npos)
    return;
  invalidateDerived();
  ensureVert(Sym);
  // A fresh unconstrained dimension keeps closedness.
  assertPotentialValid();
}

//===----------------------------------------------------------------------===//
// Edge storage
//===----------------------------------------------------------------------===//

int64_t Zone::weightOf(uint32_t U, uint32_t V) const {
  const std::vector<Edge> &Row = buf().Out[U];
  auto It = std::lower_bound(
      Row.begin(), Row.end(), V,
      [](const Edge &E, uint32_t Dst) { return E.Dst < Dst; });
  return (It != Row.end() && It->Dst == V) ? It->W : Inf;
}

void Zone::storeEdge(uint32_t U, uint32_t V, int64_t W) {
  assert(U != V && "no self loops: the diagonal is implicitly 0");
  GraphBuf &G = bufMut();
  std::vector<Edge> &Row = G.Out[U];
  auto It = std::lower_bound(
      Row.begin(), Row.end(), V,
      [](const Edge &E, uint32_t Dst) { return E.Dst < Dst; });
  if (It != Row.end() && It->Dst == V) {
    It->W = W;
    return;
  }
  Row.insert(It, Edge{V, W});
  std::vector<uint32_t> &Preds = G.In[V];
  Preds.insert(std::lower_bound(Preds.begin(), Preds.end(), U), U);
  ++G.NumEdges;
  ++zoneCounters().EdgesStored;
}

void Zone::eraseEdge(uint32_t U, uint32_t V) {
  GraphBuf &G = bufMut();
  std::vector<Edge> &Row = G.Out[U];
  auto It = std::lower_bound(
      Row.begin(), Row.end(), V,
      [](const Edge &E, uint32_t Dst) { return E.Dst < Dst; });
  if (It == Row.end() || It->Dst != V)
    return;
  Row.erase(It);
  std::vector<uint32_t> &Preds = G.In[V];
  auto PIt = std::lower_bound(Preds.begin(), Preds.end(), U);
  assert(PIt != Preds.end() && *PIt == U && "In/Out desynchronized");
  Preds.erase(PIt);
  --G.NumEdges;
}

void Zone::stripVertex(uint32_t Vert) {
  GraphBuf &G = bufMut();
  // Detach from successors' predecessor lists…
  for (const Edge &E : G.Out[Vert]) {
    std::vector<uint32_t> &Preds = G.In[E.Dst];
    auto PIt = std::lower_bound(Preds.begin(), Preds.end(), Vert);
    assert(PIt != Preds.end() && *PIt == Vert && "In/Out desynchronized");
    Preds.erase(PIt);
  }
  G.NumEdges -= G.Out[Vert].size();
  G.Out[Vert].clear();
  // …and remove incoming edges from predecessors' out-rows.
  for (uint32_t P : G.In[Vert]) {
    std::vector<Edge> &Row = G.Out[P];
    auto It = std::lower_bound(
        Row.begin(), Row.end(), Vert,
        [](const Edge &E, uint32_t Dst) { return E.Dst < Dst; });
    assert(It != Row.end() && It->Dst == Vert && "In/Out desynchronized");
    Row.erase(It);
    --G.NumEdges;
  }
  G.In[Vert].clear();
}

void Zone::freeVertex(uint32_t Vert) {
  assert(Vert != kZeroVert && "the zero vertex is permanent");
  stripVertex(Vert);
  GraphBuf &G = bufMut();
  SymbolId Sym = G.SymOf[Vert];
  G.SymOf[Vert] = kNoSymbol;
  G.FreeVerts.push_back(Vert);
  size_t Idx = varIndex(Sym);
  assert(Idx != npos && "freeing an untracked vertex");
  G.Vars.erase(G.Vars.begin() + static_cast<ptrdiff_t>(Idx));
  G.VertOf.erase(G.VertOf.begin() + static_cast<ptrdiff_t>(Idx));
}

size_t Zone::edgeCount() const { return buf().NumEdges; }

//===----------------------------------------------------------------------===//
// Potential maintenance (the feasibility certificate)
//===----------------------------------------------------------------------===//

bool Zone::potentialValid() const {
  if (Bottom || !B)
    return true;
  const GraphBuf &G = buf();
  for (uint32_t U = 0; U < G.Out.size(); ++U)
    for (const Edge &E : G.Out[U])
      if (bAdd(G.Pot[U], E.W) < G.Pot[E.Dst])
        return false;
  return true;
}

void Zone::assertPotentialValid() const {
  assert(potentialValid() && "potential certificate violated");
}

bool Zone::repairPotential(uint32_t U, uint32_t V, int64_t W) {
  GraphBuf &G = bufMut();
  if (bAdd(G.Pot[U], W) >= G.Pot[V])
    return true; // still a model, nothing to repair
  ++zoneCounters().PotentialRepairs;
  // Bellman–Ford relaxation restricted to vertices whose potential the new
  // edge actually lowers. Any negative cycle must pass through U→V (the
  // graph without it was feasible), so the relaxation wrapping back to U is
  // the complete infeasibility test, and absent such a cycle the descent
  // terminates (each vertex settles at its true shortest-path-adjusted
  // value).
  G.Pot[V] = bAdd(G.Pot[U], W);
  static thread_local std::vector<uint32_t> Queue;
  static thread_local std::vector<uint8_t> Queued;
  Queue.clear();
  Queued.assign(G.SymOf.size(), 0);
  Queue.push_back(V);
  Queued[V] = 1;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    uint32_t X = Queue[Head];
    Queued[X] = 0;
    for (const Edge &E : G.Out[X]) {
      int64_t Cand = bAdd(G.Pot[X], E.W);
      if (Cand >= G.Pot[E.Dst])
        continue;
      if (E.Dst == U)
        return false; // negative cycle through the new edge: infeasible
      G.Pot[E.Dst] = Cand;
      if (!Queued[E.Dst]) {
        Queued[E.Dst] = 1;
        Queue.push_back(E.Dst);
      }
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Closure kernels (restricted, demand-driven)
//===----------------------------------------------------------------------===//

void Zone::closeOverEdge(uint32_t U, uint32_t V) {
  DAI_FAULT_POINT(Closure); // at entry: unwind leaves the graph unclosed
                            // (Closed already false) but sound
  GraphBuf &G = bufMut();
  int64_t W = weightOf(U, V);
  assert(W != Inf && "closeOverEdge requires the edge to exist");
  ++zoneCounters().IncrementalCloses;
  TraceSpan Sp("zone.close_edge", U, V);
  uint64_t Visited = 2; // U and V themselves
  // Improved predecessors of U: s with s→U stored and s→U→V shorter than
  // the current s→V. On a previously-closed graph every newly-finite pair
  // factors through the new edge with STORED prefix/suffix weights, so
  // these two scans plus their cross product restore exact closure
  // (Cotton–Maler; crab's close_over_edge).
  static thread_local std::vector<std::pair<uint32_t, int64_t>> SrcDec;
  static thread_local std::vector<std::pair<uint32_t, int64_t>> DstDec;
  SrcDec.clear();
  DstDec.clear();
  Visited += G.In[U].size();
  for (uint32_t S : G.In[U]) {
    if (S == V)
      continue; // a V→U→V cycle is ≥ 0; the diagonal stays implicit
    int64_t Cand = bAdd(weightOf(S, U), W);
    if (Cand < weightOf(S, V))
      SrcDec.emplace_back(S, Cand);
  }
  Visited += G.Out[V].size();
  for (const Edge &E : G.Out[V]) {
    if (E.Dst == U)
      continue;
    int64_t Cand = bAdd(W, E.W);
    if (Cand < weightOf(U, E.Dst))
      DstDec.emplace_back(E.Dst, Cand);
  }
  for (const auto &[S, WS] : SrcDec)
    storeEdge(S, V, WS);
  for (const auto &[T, WT] : DstDec)
    storeEdge(U, T, WT);
  Visited += SrcDec.size() * DstDec.size();
  for (const auto &[S, WS] : SrcDec) {
    // WS = w(S,U) + W, so WS + w(V,T) = w(S,U) + W + w(V,T).
    for (const auto &[T, WT] : DstDec) {
      if (S == T)
        continue;
      int64_t Cand = bAdd(WS, bAdd(WT, -W));
      if (Cand < weightOf(S, T))
        storeEdge(S, T, Cand);
    }
  }
  zoneCounters().ClosureVerticesVisited += Visited;
}

void Zone::closeEdgesFrom(uint32_t Vert) {
  DAI_FAULT_POINT(Closure); // at entry: unwind leaves the graph unclosed
                            // (Closed already false) but sound
  GraphBuf &G = bufMut();
  if (G.Out[Vert].empty())
    return;
  TraceSpan Sp("zone.close_from", Vert);
  // Reduced-cost Dijkstra: rc(u→v) = π(u) + w − π(v) ≥ 0 by the potential
  // certificate, so one heap sweep settles exact distances while touching
  // only vertices reachable through stored (non-⊤) edges — a mostly-⊤ zone
  // pays for its constrained part only.
  static thread_local std::vector<int64_t> DistRc;
  static thread_local std::vector<uint8_t> Settled;
  static thread_local std::vector<uint32_t> Touched;
  DistRc.assign(G.SymOf.size(), Inf);
  Settled.assign(G.SymOf.size(), 0);
  Touched.clear();
  using QE = std::pair<int64_t, uint32_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<QE>> Heap;
  DistRc[Vert] = 0;
  Heap.emplace(0, Vert);
  uint64_t Visited = 0;
  while (!Heap.empty()) {
    auto [D, X] = Heap.top();
    Heap.pop();
    if (Settled[X])
      continue;
    Settled[X] = 1;
    ++Visited;
    if (X != Vert)
      Touched.push_back(X);
    for (const Edge &E : G.Out[X]) {
      if (Settled[E.Dst])
        continue;
      // All accumulation goes through bAdd: a path whose sum leaves the
      // finite range saturates to +∞ and is simply not materialized —
      // sound (the closure stays an over-approximation) where raw int64
      // sums would wrap into spuriously tight bounds. The workload's small
      // constants never get near this; it guards adversarial weights.
      int64_t Rc = bAdd(bAdd(E.W, G.Pot[X]), -G.Pot[E.Dst]);
      assert(Rc >= 0 && "negative reduced cost: potential invalid");
      int64_t Cand = bAdd(D, Rc);
      if (Cand < DistRc[E.Dst]) {
        DistRc[E.Dst] = Cand;
        Heap.emplace(Cand, E.Dst);
      }
    }
  }
  zoneCounters().ClosureVerticesVisited += Visited;
  // Materialize the finite shortest paths: dist(s,t) = rc-dist + π(t) − π(s).
  for (uint32_t T : Touched) {
    int64_t Dist = bAdd(bAdd(DistRc[T], G.Pot[T]), -G.Pot[Vert]);
    if (Dist < weightOf(Vert, T))
      storeEdge(Vert, T, Dist);
  }
}

void Zone::close() {
  DAI_FAULT_POINT(Closure); // at entry: graph and Closed flag untouched
  if (Bottom)
    return;
  if (Closed) {
    ++zoneCounters().ClosesSkipped;
    return;
  }
  if (!B || B->NumEdges == 0) {
    Closed = true;
    return;
  }
  if (B->ClosedCache) {
    // Another consumer already closed this graph: adopt its result.
    std::shared_ptr<const Zone> Cache = B->ClosedCache; // keep alive
    ++zoneCounters().CachedCloses;
    *this = *Cache;
    return;
  }
  invalidateDerived();
  ++zoneCounters().FullCloses;
  TraceSpan Sp("zone.close_full", B->NumEdges);
  // Restricted all-sources sweep: only vertices that constrain something
  // (have out-edges) can be shortest-path sources. NOTE closeEdgesFrom may
  // add edges to a previously edge-free row, so snapshot the source list
  // up front — a vertex with no out-edges before closure cannot gain a
  // finite distance to anything it could not already reach, so the
  // snapshot loses nothing.
  GraphBuf &G = bufMut();
  static thread_local std::vector<uint32_t> Sources;
  Sources.clear();
  for (uint32_t U = 0; U < G.Out.size(); ++U)
    if (!G.Out[U].empty())
      Sources.push_back(U);
  for (uint32_t U : Sources)
    closeEdgesFrom(U);
  Closed = true;
  assertPotentialValid();
}

const Zone &Zone::closedView() const {
  if (Bottom || Closed)
    return *this;
  if (!B || B->NumEdges == 0) {
    // Unclosed but edge-free: the closure is this value with the flag set —
    // but caching a copy of *this inside our own buffer would form a
    // GraphBuf→Zone→GraphBuf cycle (a leak; the octagon's closedView has
    // the same guard). Return a static empty ⊤ instead: an edge-free zone
    // differs from it only in tracked-but-unconstrained dimensions, which
    // every consumer treats as absent-means-⊤ (and normalize() actively
    // drops), so the two are semantically interchangeable.
    static const Zone EmptyClosed;
    return EmptyClosed;
  }
  if (!B->ClosedCache) {
    auto C = std::make_shared<Zone>(*this); // close() un-shares C's buffer
    C->close();
    B->ClosedCache = std::move(C);
  } else {
    ++zoneCounters().CachedCloses;
  }
  return *B->ClosedCache;
}

//===----------------------------------------------------------------------===//
// Constraint addition
//===----------------------------------------------------------------------===//

void Zone::tightenAndClose(uint32_t U, uint32_t V, int64_t W) {
  if (W >= kMaxBound)
    return; // effectively unconstraining (and keeps closure sums exact)
  if (W < -kMaxBound)
    W = -kMaxBound; // sound weakening that keeps all arithmetic exact
  if (W >= weightOf(U, V))
    return; // no-op: graph, caches, and Closed all stay valid
  invalidateDerived();
  storeEdge(U, V, W);
  if (!repairPotential(U, V, W)) {
    *this = bottomValue();
    return;
  }
  if (Closed)
    closeOverEdge(U, V); // incremental: closure is preserved
  assertPotentialValid();
}

void Zone::addUpperBound(SymbolId X, int64_t C) {
  if (Bottom)
    return;
  uint32_t VX = vertOf(X);
  assert(VX != NoVert && "addUpperBound on an untracked variable");
  tightenAndClose(kZeroVert, VX, C); // x − 0 ≤ C
}

void Zone::addLowerBound(SymbolId X, int64_t C) {
  if (Bottom)
    return;
  uint32_t VX = vertOf(X);
  assert(VX != NoVert && "addLowerBound on an untracked variable");
  if (C <= -kMaxBound)
    return; // −C would be unconstraining anyway; avoid negating INT64_MIN
  tightenAndClose(VX, kZeroVert, -C); // 0 − x ≤ −C
}

void Zone::addDifference(SymbolId X, SymbolId Y, int64_t C) {
  if (Bottom)
    return;
  assert(X != Y && "difference constraints need distinct variables");
  uint32_t VX = vertOf(X), VY = vertOf(Y);
  assert(VX != NoVert && VY != NoVert &&
         "addDifference on untracked variables");
  // x − y ≤ c  ⟺  edge y → x with weight c (x_v − x_u ≤ w convention).
  tightenAndClose(VY, VX, C);
}

//===----------------------------------------------------------------------===//
// Projection, forgetting, renaming
//===----------------------------------------------------------------------===//

void Zone::forgetInPlace(SymbolId Sym) {
  uint32_t V = vertOf(Sym);
  if (V == NoVert || Bottom)
    return;
  // Propagate Sym's constraints before dropping them (precision).
  close();
  if (Bottom)
    return;
  invalidateDerived();
  stripVertex(V);
  // Removing constraints from a closed graph keeps closure (every
  // remaining shortest path avoided the stripped vertex already — closure
  // materialized it as a direct edge).
  assertPotentialValid();
}

void Zone::forgetAndRemove(SymbolId Sym) {
  uint32_t V = vertOf(Sym);
  if (V == NoVert)
    return;
  if (Bottom)
    return;
  close();
  if (Bottom)
    return;
  invalidateDerived();
  freeVertex(V);
  assertPotentialValid();
}

void Zone::forgetAndRemove(const std::string &Var) {
  // Probing only: forgetting a never-interned name is a no-op and must not
  // grow the intern table.
  SymbolId Sym = lookupSymbol(Var);
  if (Sym != kNoSymbol)
    forgetAndRemove(Sym);
}

std::vector<SymbolId> Zone::varsNotIn(const std::vector<SymbolId> &Keep) const {
  std::vector<SymbolId> Drop;
  for (SymbolId V : vars())
    if (std::find(Keep.begin(), Keep.end(), V) == Keep.end())
      Drop.push_back(V);
  return Drop;
}

void Zone::dropVars(const std::vector<SymbolId> &Drop) {
  if (Drop.empty())
    return;
  invalidateDerived();
  for (SymbolId V : Drop)
    freeVertex(vertOf(V));
  assertPotentialValid();
}

void Zone::restrictTo(const std::vector<SymbolId> &Keep) {
  std::vector<SymbolId> Drop = varsNotIn(Keep);
  if (Drop.empty())
    return; // nothing dropped: projection is the identity
  // Precision requires propagating the dropped variables' constraints first.
  close();
  if (Bottom)
    return;
  dropVars(Drop);
}

void Zone::projectRawTo(const std::vector<SymbolId> &Keep) {
  if (Bottom)
    return;
  // No closing (widening-only escape hatch); Closed is preserved as-is —
  // dropping dimensions of a closed graph keeps it closed, and an unclosed
  // one stays unclosed.
  dropVars(varsNotIn(Keep));
}

void Zone::rename(SymbolId From, SymbolId To) {
  uint32_t V = vertOf(From);
  assert(V != NoVert && "rename source must exist");
  assert(varIndex(To) == npos && "rename target must be absent");
  invalidateDerived();
  GraphBuf &G = bufMut();
  size_t FromIdx = varIndex(From);
  G.Vars.erase(G.Vars.begin() + static_cast<ptrdiff_t>(FromIdx));
  G.VertOf.erase(G.VertOf.begin() + static_cast<ptrdiff_t>(FromIdx));
  auto It = std::lower_bound(G.Vars.begin(), G.Vars.end(), To);
  size_t ToIdx = static_cast<size_t>(It - G.Vars.begin());
  G.Vars.insert(It, To);
  G.VertOf.insert(G.VertOf.begin() + static_cast<ptrdiff_t>(ToIdx), V);
  G.SymOf[V] = To;
  // The graph (and therefore closure and the potential) is untouched.
}

//===----------------------------------------------------------------------===//
// Lattice kernels
//===----------------------------------------------------------------------===//

std::vector<uint32_t> Zone::vertMapTo(const Zone &O) const {
  const GraphBuf &G = buf();
  std::vector<uint32_t> Trans(G.SymOf.size(), NoVert);
  Trans[kZeroVert] = kZeroVert;
  for (size_t I = 0; I < G.Vars.size(); ++I)
    Trans[G.VertOf[I]] = O.vertOf(G.Vars[I]);
  return Trans;
}

void Zone::joinWith(const Zone &O) {
  assert(vars() == O.vars() && "joinWith requires equal variable sets");
  assert(Closed && O.Closed && "joinWith requires both sides closed");
  if (!B)
    return; // no edges on this side: already the join
  std::vector<uint32_t> Trans = vertMapTo(O);
  invalidateDerived();
  GraphBuf &G = bufMut();
  // Per-edge max over the union of edge sets: my edges are the union's
  // only candidates (an edge absent here is ∞ and cannot survive a max).
  static thread_local std::vector<std::pair<uint32_t, uint32_t>> ToErase;
  ToErase.clear();
  for (uint32_t U = 0; U < G.Out.size(); ++U) {
    for (Edge &E : G.Out[U]) {
      int64_t Theirs = O.weightOf(Trans[U], Trans[E.Dst]);
      if (Theirs == Inf)
        ToErase.emplace_back(U, E.Dst);
      else if (Theirs > E.W)
        E.W = Theirs; // loosening only: the potential stays a model
    }
  }
  for (const auto &[U, V] : ToErase)
    eraseEdge(U, V);
  // Entrywise max of two closed DBMs remains closed; Closed stays true.
  assertPotentialValid();
}

void Zone::widenWith(const Zone &O) {
  assert(vars() == O.vars() && "widenWith requires equal variable sets");
  if (!B) {
    Closed = false;
    return;
  }
  std::vector<uint32_t> Trans = vertMapTo(O);
  invalidateDerived();
  GraphBuf &G = bufMut();
  // Edge dropping: a bound that did not stabilize (O exceeds it) is
  // deleted outright — the sparse analogue of the matrix kernel's "unstable
  // entries go to +∞", and it physically shrinks the graph, so widened
  // chains both converge AND get cheaper to close.
  static thread_local std::vector<std::pair<uint32_t, uint32_t>> ToErase;
  ToErase.clear();
  for (uint32_t U = 0; U < G.Out.size(); ++U)
    for (const Edge &E : G.Out[U])
      if (O.weightOf(Trans[U], Trans[E.Dst]) > E.W)
        ToErase.emplace_back(U, E.Dst);
  for (const auto &[U, V] : ToErase)
    eraseEdge(U, V);
  Closed = false;
  assertPotentialValid();
}

bool Zone::entails(const Zone &O) const {
  assert((Closed || Bottom) && "entails requires a closed receiver");
  // Every stored constraint of O must be implied by this closed receiver:
  // γ(O) is defined by O's stored edges (closed or not), and closure
  // materialized this side's tightest derivable bound for every pair.
  const GraphBuf &OG = O.buf();
  std::vector<uint32_t> Trans = O.vertMapTo(*this);
  for (uint32_t U = 0; U < OG.Out.size(); ++U) {
    for (const Edge &E : OG.Out[U]) {
      uint32_t MyU = Trans[U], MyV = Trans[E.Dst];
      if (MyU == NoVert || MyV == NoVert)
        return false; // untracked here ⇒ unconstrained ⇒ ∞ > E.W
      if (weightOf(MyU, MyV) > E.W)
        return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Readers
//===----------------------------------------------------------------------===//

Interval Zone::boundsOf(SymbolId Sym) const {
  if (Bottom)
    return Interval::empty(); // ⊥-safe: no sentinel leaks out of ⊥
  uint32_t V = vertOf(Sym);
  if (V == NoVert)
    return Interval::top();
  int64_t Upper = weightOf(kZeroVert, V); // x ≤ Upper
  int64_t NegLower = weightOf(V, kZeroVert); // −x ≤ NegLower
  int64_t Hi = (Upper == Inf) ? Interval::kPosInf : Upper;
  int64_t Lo = (NegLower == Inf) ? Interval::kNegInf : -NegLower;
  return Interval::range(Lo, Hi);
}

Interval Zone::boundsOf(const std::string &Var) const {
  SymbolId Sym = lookupSymbol(Var);
  return Sym == kNoSymbol ? (Bottom ? Interval::empty() : Interval::top())
                          : boundsOf(Sym);
}

int64_t Zone::constraintOn(SymbolId U, SymbolId V) const {
  if (Bottom)
    return Inf;
  uint32_t VU = (U == kNoSymbol) ? kZeroVert : vertOf(U);
  uint32_t VV = (V == kNoSymbol) ? kZeroVert : vertOf(V);
  if (VU == NoVert || VV == NoVert)
    return Inf;
  if (VU == VV)
    return 0;
  return weightOf(VU, VV);
}

std::vector<SymbolId> Zone::constrainedVars() const {
  std::vector<SymbolId> Keep;
  if (Bottom || !B)
    return Keep;
  const GraphBuf &G = buf();
  for (size_t I = 0; I < G.Vars.size(); ++I) {
    uint32_t V = G.VertOf[I];
    if (!G.Out[V].empty() || !G.In[V].empty())
      Keep.push_back(G.Vars[I]);
  }
  return Keep;
}

uint64_t Zone::hashGraph(bool NormalizedVars) const {
  const GraphBuf &G = buf();
  uint64_t H = 0x51bbcdc87654321ULL;
  for (size_t I = 0; I < G.Vars.size(); ++I) {
    uint32_t V = G.VertOf[I];
    if (!NormalizedVars || !G.Out[V].empty() || !G.In[V].empty())
      H = hashCombine(H, static_cast<uint64_t>(G.Vars[I]));
  }
  auto symKey = [&](uint32_t Vert) -> uint64_t {
    return Vert == kZeroVert ? 0
                             : 1 + static_cast<uint64_t>(G.SymOf[Vert]);
  };
  static thread_local std::vector<std::pair<uint64_t, int64_t>> Row;
  auto hashRow = [&](uint32_t U) {
    if (G.Out[U].empty())
      return;
    Row.clear();
    for (const Edge &E : G.Out[U])
      Row.emplace_back(symKey(E.Dst), E.W);
    std::sort(Row.begin(), Row.end());
    H = hashCombine(H, symKey(U));
    for (const auto &[K, W] : Row) {
      H = hashCombine(H, K);
      H = hashCombine(H, static_cast<uint64_t>(W));
    }
  };
  hashRow(kZeroVert);
  for (uint32_t V : G.VertOf)
    hashRow(V);
  return H;
}

uint64_t Zone::hash() const {
  if (Bottom)
    return 0x20e50b07700ULL;
  return hashGraph(/*NormalizedVars=*/false);
}

uint64_t Zone::hashNormalized() const {
  assert((Bottom || Closed) && "hashNormalized requires a closed receiver");
  if (Bottom)
    return 0x20e50b07700ULL;
  if (B && B->NormHashValid)
    return B->NormHash;
  // Equivalent to restrictTo(constrained vars) + hash(), computed in place:
  // the edge sweep is identical (edge-free rows hash nothing); only the
  // variable prefix filters to normalize()'s keep-predicate.
  uint64_t H = hashGraph(/*NormalizedVars=*/true);
  if (B) {
    B->NormHash = H;
    B->NormHashValid = true;
  }
  return H;
}

std::string Zone::toString() const {
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
  const GraphBuf &G = buf();
  for (size_t I = 0; I < G.Vars.size(); ++I) {
    const std::string &NameI = symbolName(G.Vars[I]);
    Interval Bnd = boundsOf(G.Vars[I]);
    if (!Bnd.isTop())
      emit(NameI + " in " + Bnd.toString());
    // Differences x_J − x_I ≤ c, in symbol order.
    for (size_t J = 0; J < G.Vars.size(); ++J) {
      if (I == J)
        continue;
      int64_t W = weightOf(G.VertOf[I], G.VertOf[J]);
      if (W != Inf)
        emit(symbolName(G.Vars[J]) + " - " + NameI +
             " <= " + std::to_string(W));
    }
  }
  OS << "}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// ZoneDomain
//===----------------------------------------------------------------------===//

static_assert(AbstractDomain<ZoneDomain>,
              "ZoneDomain must satisfy the Section 3 domain concept");

namespace {

/// A symbol guaranteed absent from \p Z, derived from \p Base (same
/// contract as the octagon's freshSymbol: '$' names are unspellable as
/// source identifiers, and candidates are reused process-wide).
SymbolId freshSymbol(const Zone &Z, const std::string &Base) {
  SymbolId S = internSymbol(Base);
  for (unsigned K = 0; Z.varIndex(S) != npos; ++K)
    S = internSymbol(Base + "$" + std::to_string(K));
  return S;
}

/// The temporary of x := x + c, interned when the program starts, so that
/// a loop counter's step probes no symbol table; freshSymbol runs only
/// when a value already holds it.
const SymbolId ZoneTmpSym = internSymbol("__zone_tmp");

/// Projects the zone onto per-variable intervals (for the interval fallback
/// on non-zone expressions). Requires \p Z closed.
IntervalState toIntervalState(const Zone &Z) {
  IntervalState S;
  if (Z.isBottom()) {
    S.Bottom = true;
    return S;
  }
  S.Env.reserve(Z.vars().size());
  for (SymbolId V : Z.vars())
    S.set(V, VarAbs::numeric(Z.boundsOf(V)));
  return S;
}

/// Interval of the linear form Σ cᵢ·vᵢ + C over the zone's per-variable
/// bounds — the residual-interval evaluator of the zone-native affine
/// assignment transformers (crab's diffcsts_of_assign). Requires \p Z
/// closed (boundsOf needs tight unary edges). All arithmetic saturates
/// through the Interval kernels; a form whose own arithmetic overflowed
/// (!F.Ok) is ⊤.
Interval intervalOfLin(const Zone &Z, const LinForm &F) {
  if (!F.Ok)
    return Interval::top();
  Interval Acc = Interval::constant(F.Const);
  for (const auto &[V, C] : F.Coeffs)
    Acc = Acc.add(Z.boundsOf(V).mul(Interval::constant(C)));
  return Acc;
}

/// Drops unconstrained dimensions so structurally distinct but equal values
/// share a representation (memo-table reuse; equality itself is semantic).
void normalize(Zone &Z) {
  Z.close();
  if (Z.isBottom())
    return;
  std::vector<SymbolId> Keep = Z.constrainedVars();
  if (Keep.size() != Z.numVars())
    Z.restrictTo(Keep);
}

/// Assigns x := e precisely for zone-representable right-hand sides
/// (x := c, x := y + c), with an interval fallback otherwise. \p Z must be
/// closed on entry; closed on exit.
void evalAssign(Zone &Z, SymbolId X, const ExprPtr &E) {
  LinForm F = linearize(E);
  // Zone-exact shapes: a constant, or a single +1-coefficient variable
  // plus a constant (x := −y + c is OCTAGONAL, not a zone form — it falls
  // through to the interval fallback).
  bool ZoneExact =
      F.Ok && (F.Coeffs.empty() ||
               (F.Coeffs.size() == 1 && F.Coeffs.begin()->second == 1));
  auto havocOrAdd = [&Z](SymbolId V) {
    if (Z.varIndex(V) == npos)
      Z.addVar(V);
    else
      Z.forgetInPlace(V);
  };
  if (ZoneExact && F.Coeffs.empty()) {
    // x := c — two bounds on a havocked dimension; addUpper/LowerBound
    // restore closure incrementally.
    havocOrAdd(X);
    Z.addUpperBound(X, F.Const);
    if (!Z.isBottom())
      Z.addLowerBound(X, F.Const);
    return;
  }
  if (ZoneExact) {
    SymbolId Y = F.Coeffs.begin()->first;
    if (Y != X) {
      if (Z.varIndex(Y) == npos)
        Z.addVar(Y);
      havocOrAdd(X);
      // x − y ≤ c and y − x ≤ −c.
      Z.addDifference(X, Y, F.Const);
      if (!Z.isBottom())
        Z.addDifference(Y, X, bNeg(F.Const));
      return;
    }
    // x := x + c via a temporary dimension (same discipline as the
    // octagon: the gensym'd '$' name cannot collide with a program
    // variable, and freshSymbol guards against any other occupant).
    if (Z.varIndex(X) == npos)
      Z.addVar(X); // untracked x: x + c is then unconstrained, but the
                   // temp still must NOT read as a bound on a missing dim
    SymbolId Tmp = Z.varIndex(ZoneTmpSym) == npos
                       ? ZoneTmpSym
                       : freshSymbol(Z, "__zone_tmp");
    Z.addVar(Tmp);
    Z.addDifference(Tmp, X, F.Const);
    if (!Z.isBottom())
      Z.addDifference(X, Tmp, bNeg(F.Const));
    if (Z.isBottom())
      return;
    Z.forgetAndRemove(X);
    Z.rename(Tmp, X);
    return;
  }
  // Affine-but-not-zone-exact RHS (x := −y + c, x := y + z, …): the pure
  // interval fallback used to havoc every relation here. Following crab's
  // diffcsts_of_assign, derive DIFFERENCE bounds from residual intervals
  // instead — for each variable y of e,  x − y ≤ ub(e − y)  and
  // y − x ≤ ub(y − e), every residual evaluated in the PRE-state (the
  // assigned x reads e's pre-state value; x := −x + 1 must read the old x,
  // which is why residuals containing x use its OLD bounds and derived
  // differences are restricted to y ≠ x). The zone keeps relational
  // information exactly where it previously kept none, so the staged
  // domain escalates to the octagon less often.
  if (F.Ok) {
    Interval I = intervalOfLin(Z, F);
    if (I.isEmpty()) {
      Z = Zone::bottomValue();
      return;
    }
    struct DiffBound {
      SymbolId Y;
      int64_t Ub;
      bool XMinusY; ///< true: x − Y ≤ Ub; false: Y − x ≤ Ub.
    };
    std::vector<DiffBound> Diffs;
    for (const auto &[Y, CY] : F.Coeffs) {
      (void)CY;
      if (Y == X)
        continue;
      LinForm YF;
      YF.Ok = true;
      YF.Coeffs[Y] = 1;
      Interval XmY = intervalOfLin(Z, F.plus(YF, -1)); // e − y
      Interval YmX = intervalOfLin(Z, YF.plus(F, -1)); // y − e
      if (!XmY.isEmpty() && XmY.hi() != Interval::kPosInf)
        Diffs.push_back({Y, XmY.hi(), /*XMinusY=*/true});
      if (!YmX.isEmpty() && YmX.hi() != Interval::kPosInf)
        Diffs.push_back({Y, YmX.hi(), /*XMinusY=*/false});
    }
    if (I.isTop() && Diffs.empty()) {
      Z.forgetAndRemove(X); // nothing derivable: drop the dimension
      return;
    }
    for (const DiffBound &D : Diffs)
      if (Z.varIndex(D.Y) == npos)
        Z.addVar(D.Y);
    havocOrAdd(X);
    if (I.hi() != Interval::kPosInf)
      Z.addUpperBound(X, I.hi());
    if (!Z.isBottom() && I.lo() != Interval::kNegInf)
      Z.addLowerBound(X, I.lo());
    for (const DiffBound &D : Diffs) {
      if (Z.isBottom())
        return;
      if (D.XMinusY)
        Z.addDifference(X, D.Y, D.Ub);
      else
        Z.addDifference(D.Y, X, D.Ub);
    }
    return;
  }
  // Non-linear interval fallback: bound x by the interval of e (evaluated
  // in the PRE-state).
  Interval I = IntervalDomain::eval(E, toIntervalState(Z)).Num;
  if (I.isEmpty()) {
    // e has NO possible value (e.g. a division by exactly zero): the
    // assignment cannot execute — the opposite of havocking x.
    Z = Zone::bottomValue();
    return;
  }
  if (!I.isTop()) {
    havocOrAdd(X);
    if (I.hi() != Interval::kPosInf)
      Z.addUpperBound(X, I.hi());
    if (!Z.isBottom() && I.lo() != Interval::kNegInf)
      Z.addLowerBound(X, I.lo());
  } else {
    Z.forgetAndRemove(X); // unconstrained: drop the dimension entirely
  }
}

/// Adds the linear inequality F ≤ 0 when it is zone-representable; returns
/// false if not (caller falls back to intervals). Zone shapes: constants,
/// ±x ≤ c, and proper differences x − y ≤ c (one +1 and one −1
/// coefficient — sums like x + y ≤ c are octagonal, NOT zone forms).
bool addLinearLeqZero(Zone &Z, const LinForm &F) {
  if (!F.Ok || F.Coeffs.size() > 2)
    return false;
  for (const auto &[V, C] : F.Coeffs)
    if (C != 1 && C != -1)
      return false;
  int64_t Bound = bNeg(F.Const); // Σ ±v ≤ −Const.
  if (F.Coeffs.empty()) {
    if (0 > Bound)
      Z = Zone::bottomValue();
    return true;
  }
  if (F.Coeffs.size() == 1) {
    auto It = F.Coeffs.begin();
    if (Z.varIndex(It->first) == npos)
      Z.addVar(It->first);
    if (It->second > 0)
      Z.addUpperBound(It->first, Bound); // x ≤ Bound
    else
      Z.addLowerBound(It->first, -Bound); // −x ≤ Bound ⟺ x ≥ −Bound
    return true;
  }
  auto It = F.Coeffs.begin();
  auto It2 = std::next(It);
  if (It->second == It2->second)
    return false; // x + y ≤ c or −x − y ≤ c: octagonal, not zone
  SymbolId Pos = It->second > 0 ? It->first : It2->first;
  SymbolId Neg = It->second > 0 ? It2->first : It->first;
  if (Z.varIndex(Pos) == npos)
    Z.addVar(Pos);
  if (Z.varIndex(Neg) == npos)
    Z.addVar(Neg);
  Z.addDifference(Pos, Neg, Bound); // Pos − Neg ≤ Bound
  return true;
}

} // namespace

bool ZoneDomain::isBottom(const Elem &A) {
  // ⊥ is eager (potential repair fails at constraint addition), so the
  // flag is the whole answer — no closure needed, unlike the octagon.
  return A.Bottom;
}

Zone ZoneDomain::initialEntry(const std::vector<std::string> &) {
  return Zone::top();
}

Zone ZoneDomain::assume(const Elem &In, const ExprPtr &Cond) {
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
    Zone Out = In.closedView();
    if (Out.isBottom())
      return Out;
    // Null comparisons carry no zone content.
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
    // bounds (each add restores closure incrementally — cost per bound is
    // the touched vertex's degree, so a k-bound refinement is O(k · live)
    // rather than a dense O(k·n²) batch pass) and detect definite falsity.
    IntervalState Proj = toIntervalState(Out);
    IntervalState Refined = IntervalDomain::assume(Proj, Cond);
    if (Refined.Bottom)
      return bottom();
    for (const auto &[Var, V] : Refined.Env) {
      if (Out.isBottom())
        break;
      if (Out.varIndex(Var) == npos)
        continue;
      if (V.Num.hi() != Interval::kPosInf)
        Out.addUpperBound(Var, V.Num.hi());
      if (!Out.isBottom() && V.Num.lo() != Interval::kNegInf)
        Out.addLowerBound(Var, V.Num.lo());
    }
    return Out;
  }
  default:
    return In;
  }
}

Zone ZoneDomain::transfer(const Stmt &S, const Elem &In) {
  if (In.Bottom)
    return In;
  Zone Out = In.closedView();
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
    normalize(Out);
    return Out;
  case StmtKind::Assign:
    evalAssign(Out, S.LhsSym, S.Rhs);
    normalize(Out);
    return Out;
  case StmtKind::Assume:
  case StmtKind::Assert: { // Aborts on failure: the condition holds after.
    Zone R = assume(Out, S.Rhs);
    normalize(R);
    return R;
  }
  }
  return Out;
}

Zone ZoneDomain::join(const Elem &A, const Elem &B) {
  Zone CA = A.closedView();
  if (CA.isBottom())
    return B;
  const Zone &CB = B.closedView();
  if (CB.isBottom())
    return CA;
  // Fast path: identical variable sets (the steady state under normalize).
  if (CA.vars() == CB.vars()) {
    CA.joinWith(CB);
    normalize(CA);
    return CA;
  }
  // Join over the common variable set (absent = unconstrained).
  std::vector<SymbolId> Common;
  for (SymbolId V : CA.vars())
    if (CB.varIndex(V) != npos)
      Common.push_back(V);
  CA.restrictTo(Common);
  Zone CBR = CB;
  CBR.restrictTo(Common);
  CA.joinWith(CBR);
  normalize(CA);
  return CA;
}

Zone ZoneDomain::widen(const Elem &Prev, const Elem &Next) {
  if (Prev.Bottom)
    return Next;
  Zone NC = Next.closedView();
  if (NC.isBottom())
    return Prev;
  // The previous iterate must stay UNCLOSED on the left of ∇ for
  // convergence; projectRawTo drops dimensions without closing.
  Zone P = Prev;
  std::vector<SymbolId> Common;
  for (SymbolId V : P.vars())
    if (NC.varIndex(V) != npos)
      Common.push_back(V);
  P.projectRawTo(Common);
  NC.restrictTo(Common);
  P.widenWith(NC);
  return P;
}

bool ZoneDomain::leq(const Elem &A, const Elem &B) {
  const Zone &CA = A.closedView();
  if (CA.isBottom())
    return true;
  if (isBottom(B))
    return false;
  return CA.entails(B);
}

bool ZoneDomain::equal(const Elem &A, const Elem &B) {
  return leq(A, B) && leq(B, A);
}

uint64_t ZoneDomain::hash(const Elem &A) {
  // Equivalent to normalize-then-hash without copying: closedView shares
  // the cached closure, hashNormalized skips unconstrained dims in place.
  return A.closedView().hashNormalized();
}

std::string ZoneDomain::toString(const Elem &A) {
  return A.closedView().toString();
}

Zone ZoneDomain::enterCall(const Elem &Caller, const Stmt &CallSite,
                           const std::vector<std::string> &CalleeParams) {
  if (isBottom(Caller))
    return bottom();
  assert(CallSite.Kind == StmtKind::Call && "enterCall requires a call site");
  // Bind temporaries to the actuals inside the caller state, project onto
  // them, then rename to the formals — preserving relations *among*
  // parameters (f(i, i+1) enters with p1 − p0 = 1, a difference a zone
  // represents exactly).
  Zone Tmp = Caller.closedView();
  if (Tmp.isBottom())
    return bottom();
  std::vector<SymbolId> TmpSyms;
  for (size_t I = 0, E = CalleeParams.size(); I != E; ++I) {
    SymbolId TmpSym = freshSymbol(Tmp, "__arg$" + std::to_string(I));
    TmpSyms.push_back(TmpSym);
    if (I < CallSite.Args.size())
      evalAssign(Tmp, TmpSym, CallSite.Args[I]);
  }
  Tmp.restrictTo(TmpSyms);
  for (size_t I = 0, E = CalleeParams.size(); I != E; ++I)
    if (Tmp.varIndex(TmpSyms[I]) != npos)
      Tmp.rename(TmpSyms[I], internSymbol(CalleeParams[I]));
  normalize(Tmp);
  return Tmp;
}

Zone ZoneDomain::exitCall(const Elem &Caller, const Elem &CalleeExit,
                          const Stmt &CallSite) {
  if (isBottom(Caller))
    return bottom();
  if (isBottom(CalleeExit))
    return bottom(); // the call never returns
  assert(CallSite.Kind == StmtKind::Call && "exitCall requires a call site");
  Zone Out = Caller.closedView();
  const Zone &CE = CalleeExit.closedView();
  // Import the return value's interval (relations between callee locals
  // and caller locals are not representable without a combined frame).
  Interval Ret = CE.boundsOf(RetVar);
  Out.forgetAndRemove(CallSite.LhsSym);
  if (!Ret.isTop() && !Ret.isEmpty()) {
    SymbolId Lhs = CallSite.LhsSym;
    Out.addVar(Lhs);
    if (Ret.hi() != Interval::kPosInf)
      Out.addUpperBound(Lhs, Ret.hi());
    if (!Out.isBottom() && Ret.lo() != Interval::kNegInf)
      Out.addLowerBound(Lhs, Ret.lo());
  }
  normalize(Out);
  return Out;
}
