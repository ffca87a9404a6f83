//===-- domain/zone.h - Sparse split-DBM zone domain ------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The zone (difference-bound) abstract domain over a SPARSE weighted
/// digraph, after Gange et al., "Exploiting Sparsity in Difference-Bound
/// Matrices" (SAS'16) and its crab `split_dbm` engineering, with closure
/// maintenance following Cotton & Maler's incremental difference-constraint
/// propagation — rather than Miné-style dense O(n²)/O(n³) matrix sweeps.
/// This is the codebase's first non-matrix relational domain: where the
/// octagon pays for every tracked dimension on every closure, the zone's
/// transfer/query cost scales with the number of LIVE constraints, which is
/// exactly what the paper's demanded-evaluation model rewards on mostly-⊤
/// states (ROADMAP: "Truly sparse DBM rows").
///
/// Representation:
///  - Constraints are x − y ≤ c (differences) and ±x ≤ c (bounds via the
///    distinguished ZERO VERTEX 0, whose value is the constant 0). An edge
///    u → v with weight w encodes  x_v − x_u ≤ w  (the octagon file's
///    "entry (i,j) bounds V_j − V_i" read graph-wise), so edge (0,v,c) is
///    the upper bound x_v ≤ c and edge (v,0,c) the lower bound −x_v ≤ c.
///  - The graph is adjacency-list: per-vertex out-edge vectors sorted by
///    destination, plus predecessor lists for reverse sweeps. Vertices are
///    allocated per tracked variable (interned SymbolId, domain/symbol.h)
///    and recycled through a free list; absent edge = +∞, never stored.
///  - A POTENTIAL FUNCTION π (one value per vertex, maintained separately
///    from the graph, split-DBM style) certifies feasibility: π is a
///    concrete model, π(v) − π(u) ≤ w for every edge. Adding a constraint
///    repairs π with a Bellman–Ford relaxation from the edge head; repair
///    failure (the relaxation wraps back to the tail) is a negative cycle,
///    i.e. ⊥ — so emptiness is detected eagerly at constraint addition and
///    a non-⊥ zone always carries a feasibility certificate. ⊥ is explicit
///    (a flag), and every reader is ⊥-safe (boundsOf returns the empty
///    interval rather than leaking sentinels).
///  - π also makes all closure work Dijkstra-able: reduced costs
///    w + π(u) − π(v) are non-negative, so single-source sweeps need no
///    Bellman–Ford re-scans.
///
/// Closure discipline (mirrors domain/octagon.h, sparse kernels):
///  - The canonical closed form materializes exactly the FINITE
///    shortest-path entries as edges; unconstrained pairs stay absent.
///    Closed zones are canonical (equal concretizations ⟺ identical
///    closed graphs), which hash()/equal() rely on.
///  - Constraint addition on a closed value restores closure INCREMENTALLY
///    (Cotton–Maler / crab close_over_edge): only predecessors of the new
///    edge's tail and successors of its head participate, so the cost is
///    O(in-degree · out-degree) of the touched vertices — the number of
///    live constraints, not the dimension count.
///  - Full close() (for widening iterates of unknown provenance) is
///    DEMAND-DRIVEN RESTRICTED: closeEdgesFrom(s) runs one reduced-cost
///    Dijkstra from s touching only vertices reachable through non-⊤
///    edges, and close() sweeps only sources that have out-edges. A
///    mostly-⊤ zone closes in time proportional to its constrained part.
///  - widen keeps its result UNCLOSED (the classic DBM widening caveat) and
///    works by EDGE DROPPING: an edge whose bound did not stabilize is
///    removed outright, so widening also physically sparsifies.
///  - An unclosed value caches its closed form on first demand (closedView),
///    shared across copies — same contract as the octagon's.
///  - Every mutating entry point re-validates the potential certificate
///    under !NDEBUG (assertPotentialValid).
///
/// The value type is copy-on-write like the octagon's: DAIG cells, memo
/// stores, and closed views copy zones far more often than they mutate
/// them, so the graph buffer (and the caches derived from it) is shared
/// until a mutation un-shares it.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DOMAIN_ZONE_H
#define DAI_DOMAIN_ZONE_H

#include "domain/abstract_domain.h"
#include "domain/interval.h"
#include "support/statistics.h"
#include "support/symbol.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dai {

/// A zone abstract value: ⊥, or a sparse difference-bound graph over
/// interned variable symbols plus the zero vertex.
///
/// \invariant POTENTIAL FUNCTION: every non-⊥ zone carries a potential π
///   with π(v) − π(u) ≤ w for every stored edge u→v — a concrete model of
///   the constraint system, i.e. a *feasibility certificate*. It is
///   repaired at every constraint addition (Bellman–Ford from the edge
///   head); repair failure IS ⊥, so emptiness is detected eagerly and no
///   closure ever discovers it later. It also makes all closure sweeps
///   Dijkstra-able via non-negative reduced costs w + π(u) − π(v).
/// \invariant ⊥-SAFETY: every reader is total on ⊥ (boundsOf returns the
///   EMPTY interval, constraintOn returns +∞, vars() is empty) — no
///   npos-style sentinels leak out of degenerate states.
/// \invariant COPY-ON-WRITE: the graph buffer (including the cached closure
///   and normalized hash) is shared across copies until a mutation
///   un-shares it; derived caches are invalidated by any mutation.
class Zone {
public:
  static constexpr int64_t kPosInf = INT64_MAX;
  /// Vertex id of the distinguished zero vertex.
  static constexpr uint32_t kZeroVert = 0;

  /// Constructs ⊤ over the empty variable set.
  Zone() = default;

  static Zone top() { return Zone(); }
  static Zone bottomValue() {
    Zone Z;
    Z.Bottom = true;
    return Z;
  }

  /// ⊥ is explicit and eager: a non-⊥ zone carries a valid potential
  /// (feasibility certificate), so no closure can discover emptiness later.
  bool isBottom() const { return Bottom; }

  /// The tracked dimensions, sorted ascending by SymbolId.
  const std::vector<SymbolId> &vars() const;
  size_t numVars() const { return vars().size(); }

  /// Index of \p Sym in vars(), or npos.
  size_t varIndex(SymbolId Sym) const;
  /// String convenience: probes the intern table WITHOUT interning.
  size_t varIndex(const std::string &Var) const;

  /// Adds an unconstrained dimension for \p Sym if absent (keeps closure).
  void addVar(SymbolId Sym);
  void addVar(const std::string &Var) { addVar(internSymbol(Var)); }

  /// Removes every constraint involving \p Sym and drops its dimension
  /// (closes first for precision).
  void forgetAndRemove(SymbolId Sym);
  void forgetAndRemove(const std::string &Var);

  /// Removes every constraint involving \p Sym IN PLACE (the dimension
  /// stays, unconstrained). Closes first for precision; stripping a closed
  /// vertex preserves closure.
  void forgetInPlace(SymbolId Sym);

  /// Projects onto \p Keep (every other dimension is dropped), closing
  /// first for precision. No-op when nothing would be dropped.
  void restrictTo(const std::vector<SymbolId> &Keep);

  /// Projects onto \p Keep WITHOUT closing first (sound only where
  /// imprecision is acceptable — widening, which must not close its left
  /// argument). Preserves the Closed flag as-is.
  void projectRawTo(const std::vector<SymbolId> &Keep);

  /// Renames variable \p From to \p To (To must be absent). Pure symbol
  /// surgery: the graph is untouched (a sparse-representation win — the
  /// matrix layouts permute rows and columns here).
  void rename(SymbolId From, SymbolId To);
  void rename(const std::string &From, const std::string &To) {
    rename(internSymbol(From), internSymbol(To));
  }

  /// Tightens with  x ≤ C  /  x ≥ C  /  x − y ≤ C. The variables must be
  /// tracked (addVar first). On a closed receiver closure is restored
  /// incrementally (close_over_edge); on an unclosed one the value stays
  /// unclosed. Infeasibility collapses to ⊥ immediately. Bounds with |C|
  /// beyond kPosInf/4 are treated as unconstraining no-ops (overflow
  /// headroom for closure sums, as in the octagon's addConstraint guard).
  void addUpperBound(SymbolId X, int64_t C);
  void addLowerBound(SymbolId X, int64_t C);
  void addDifference(SymbolId X, SymbolId Y, int64_t C);

  /// Demand-driven restricted closure: materializes every finite
  /// shortest-path entry by running closeEdgesFrom over the vertices that
  /// have out-edges. Idempotent; cost ∝ constrained subgraph.
  /// \post isClosed() (or isBottom() was already true): every derivable
  ///       difference/unary bound is stored as a direct edge, so readers
  ///       (boundsOf, constraintOn, entails) see tight values.
  void close();

  /// Single-source restricted closure: one reduced-cost Dijkstra from
  /// \p Vert touching only reachable non-⊤ vertices, materializing the
  /// finite distances as edges. Building block of close(); exposed for
  /// tests and the bench.
  void closeEdgesFrom(uint32_t Vert);

  bool isClosed() const { return Closed; }

  /// Read-only access to the strongly closed form of this value: *this when
  /// already closed (or ⊥), otherwise a closure computed at most once and
  /// cached, shared across copies. Invalidated by any mutation.
  const Zone &closedView() const;

  /// Interval of \p Sym implied by this zone. ⊥-SAFE: returns the empty
  /// interval on ⊥ (the pre-PR-2 octagon leaked npos-style sentinels from
  /// readers on degenerate states; zone readers are total). Requires a
  /// closed (or ⊥) receiver for tight bounds.
  Interval boundsOf(SymbolId Sym) const;
  Interval boundsOf(const std::string &Var) const;

  /// Closed-graph weight between two endpoints (kNoSymbol = zero vertex),
  /// kPosInf when unconstrained. The lockstep test oracle's probe.
  int64_t constraintOn(SymbolId U, SymbolId V) const;

  /// Visits every stored constraint as (U, V, W) meaning x_V − x_U ≤ W,
  /// where kNoSymbol stands for the zero vertex — so (kNoSymbol, v, c) is
  /// the upper bound x_v ≤ c and (u, kNoSymbol, c) the lower bound
  /// −x_u ≤ c. Visitation order is unspecified. This is the escalation
  /// seeding surface of domain/staged.h: a closed receiver enumerates its
  /// canonical (all-pairs shortest-path) constraint set, which is exactly
  /// what an octagon seeded from this zone must entail.
  /// \pre Callback is invocable as void(SymbolId, SymbolId, int64_t).
  template <typename Callback> void forEachConstraint(Callback &&CB) const {
    if (Bottom || !B)
      return;
    const GraphBuf &G = buf();
    for (uint32_t U = 0; U < static_cast<uint32_t>(G.Out.size()); ++U)
      for (const Edge &E : G.Out[U])
        CB(G.SymOf[U], G.SymOf[E.Dst], E.W);
  }

  /// The tracked symbols carrying at least one constraint (an incident
  /// edge) — normalize()'s keep-predicate, one sweep over the adjacency.
  std::vector<SymbolId> constrainedVars() const;

  /// Entailment check: every edge (constraint) of \p O is implied by this
  /// (closed) receiver. Variables absent here are unconstrained.
  bool entails(const Zone &O) const;

  /// this := this ⊔ O over identical variable sets, both sides closed: an
  /// edge survives iff the pair is constrained in BOTH inputs, with the
  /// looser (max) bound — per-edge max over the union of edge sets, where
  /// one-sided pairs are ∞. Result is closed (entrywise max of closed DBMs
  /// is closed) and only ever loosens, so the potential stays valid.
  void joinWith(const Zone &O);

  /// Classic DBM widening kernel over identical variable sets, by edge
  /// DROPPING: an edge whose bound in \p O (closed) exceeds this one's is
  /// removed outright. Result is marked unclosed.
  void widenWith(const Zone &O);

  uint64_t hash() const;

  /// Hash of the normalized form (unconstrained dimensions ignored),
  /// canonical in symbol space. Requires a closed (or ⊥) receiver.
  uint64_t hashNormalized() const;

  std::string toString() const;

  /// Live edge count (introspection for tests/bench).
  size_t edgeCount() const;

  /// Validates the potential certificate: π(v) − π(u) ≤ w for every edge.
  /// Always true for non-⊥ values; asserted by every mutating entry point
  /// under !NDEBUG.
  bool potentialValid() const;

  bool Bottom = false;
  bool Closed = true; ///< The empty graph is trivially closed.

private:
  struct Edge {
    uint32_t Dst;
    int64_t W;
  };

  /// The shared graph buffer: everything derived from the constraint set
  /// (including the cached closure and normalized hash) lives inside, so
  /// the first consumer to close or hash any copy fills the cache for every
  /// sharer — the octagon's MatBuf scheme, graph-shaped.
  struct GraphBuf {
    std::vector<SymbolId> Vars;      ///< Tracked symbols, sorted ascending.
    std::vector<uint32_t> VertOf;    ///< Vars[i] lives at vertex VertOf[i].
    std::vector<SymbolId> SymOf;     ///< Vertex → symbol (kNoSymbol for the
                                     ///< zero vertex and freed slots).
    std::vector<std::vector<Edge>> Out; ///< Out-edges, sorted by Dst.
    std::vector<std::vector<uint32_t>> In; ///< Predecessor ids, sorted.
    std::vector<int64_t> Pot;        ///< The potential function π.
    std::vector<uint32_t> FreeVerts; ///< Recycled vertex slots.
    size_t NumEdges = 0;

    std::shared_ptr<const Zone> ClosedCache; ///< See closedView().
    uint64_t NormHash = 0;
    bool NormHashValid = false;
  };
  /// Null encodes the empty (zero-variable, zero-edge) value.
  std::shared_ptr<GraphBuf> B;

  const GraphBuf &buf() const;
  /// Mutable buffer access with copy-on-write: clones the graph iff shared;
  /// the clone starts with empty caches.
  GraphBuf &bufMut();
  /// Un-shares the buffer and drops caches derived from the old contents.
  void invalidateDerived();

  uint32_t vertOf(SymbolId Sym) const; ///< ~0u when untracked.
  uint32_t ensureVert(SymbolId Sym);

  /// Stored weight of edge U→V, kPosInf when absent.
  int64_t weightOf(uint32_t U, uint32_t V) const;
  /// Inserts or lowers edge U→V; counts materializations. Pure storage —
  /// no potential repair, no closure.
  void storeEdge(uint32_t U, uint32_t V, int64_t W);
  void eraseEdge(uint32_t U, uint32_t V);
  /// Removes every edge incident to \p Vert (the vertex stays allocated).
  void stripVertex(uint32_t Vert);
  /// stripVertex + returns the slot to the free list and drops the symbol.
  void freeVertex(uint32_t Vert);

  /// Canonical-order graph hash shared by hash() and hashNormalized():
  /// sources in (zero-vertex, then symbol-ascending) order, destinations by
  /// symbol key — vertex ids are an allocation artifact and must not leak
  /// in. When \p NormalizedVars, dimensions without an incident edge are
  /// skipped in the variable prefix (normalize()'s predicate); the edge
  /// sweep is identical either way, since edge-free rows hash nothing.
  uint64_t hashGraph(bool NormalizedVars) const;

  /// Vertex-translation table for binary kernels: my vertex id → \p O's
  /// vertex id of the same symbol (~0u when untracked there; identity for
  /// the zero vertex). Built once so the per-edge hop is two array loads.
  std::vector<uint32_t> vertMapTo(const Zone &O) const;

  /// Tracked symbols NOT in \p Keep (the projection helpers' drop set).
  std::vector<SymbolId> varsNotIn(const std::vector<SymbolId> &Keep) const;
  /// Frees every vertex in \p Drop (invalidating derived caches first).
  void dropVars(const std::vector<SymbolId> &Drop);

  /// Shared implementation of the three add* entry points: tightens edge
  /// U→V to min(current, W), repairs the potential (⊥ on negative cycle),
  /// and restores closure incrementally when the receiver was closed.
  void tightenAndClose(uint32_t U, uint32_t V, int64_t W);

  /// Bellman–Ford potential repair after edge U→V tightened to W. Returns
  /// false on a negative cycle (the relaxation wraps back to U).
  bool repairPotential(uint32_t U, uint32_t V, int64_t W);

  /// Cotton–Maler incremental closure after edge U→V was tightened on a
  /// previously-closed graph: tightens s→V for improved predecessors s of
  /// U, U→t for improved successors t of V, and the s×t cross product.
  void closeOverEdge(uint32_t U, uint32_t V);

  void assertPotentialValid() const;
};

/// The zone abstract domain policy (satisfies AbstractDomain).
struct ZoneDomain {
  using Elem = Zone;

  static Elem bottom() { return Zone::bottomValue(); }
  static Elem initialEntry(const std::vector<std::string> &Params);
  static Elem transfer(const Stmt &S, const Elem &In);
  static Elem join(const Elem &A, const Elem &B);
  static Elem widen(const Elem &Prev, const Elem &Next);
  static bool leq(const Elem &A, const Elem &B);
  static bool equal(const Elem &A, const Elem &B);
  static uint64_t hash(const Elem &A);
  static std::string toString(const Elem &A);
  static const char *name() { return "zone"; }
  static bool isBottom(const Elem &A);

  static Elem enterCall(const Elem &Caller, const Stmt &CallSite,
                        const std::vector<std::string> &CalleeParams);
  static Elem exitCall(const Elem &Caller, const Elem &CalleeExit,
                       const Stmt &CallSite);

  /// Refines \p In under the assumption \p Cond (difference/bound atoms are
  /// tightened exactly; others fall back to interval reasoning).
  static Elem assume(const Elem &In, const ExprPtr &Cond);
};

} // namespace dai

#endif // DAI_DOMAIN_ZONE_H
