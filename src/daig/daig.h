//===-- daig/daig.h - Demanded abstract interpretation graphs --*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demanded abstract interpretation graph (DAIG) of Sections 4–5: a
/// directed acyclic hypergraph whose vertices are named reference cells
/// (program statements and abstract states) and whose edges are analysis
/// computations (⟦·⟧♯, ⊔, ∇, fix). Queries evaluate cells on demand with
/// maximal reuse (rules Q-Reuse / Q-Match / Q-Miss / Q-Loop-Converge /
/// Q-Loop-Unroll of Fig. 8); edits dirty minimal state (rules E-Commit /
/// E-Propagate / E-Loop of Fig. 9).
///
/// The hypergraph is one store of cell records (Daig::Cell), addressed by
/// dense CellIds: the cell's key (its name), value or, for a statement
/// cell, CFG edge and label stamp (the edge owns the statement, cfg/cfg.h),
/// the computation that defines it, and the destinations of the computations
/// that read it, in key order. Computations and dependent lists hold ids, so
/// queries (walking computations backward) and dirtying (walking dependent
/// lists forward, stamping visited cells with a per-DAIG epoch) index the
/// store and never hash a key. The DAIG's key index (daig/cell_key.h) is
/// probed only where a key is built from a location or an edge:
/// construction, reconcile, the walk over a location's loop nest, and the
/// entry points naming one edge or the entry. The store is a vector, so a
/// cell may move whenever cells are added: no reference to a cell is held
/// across a call that can add cells (evaluation, which may unroll, or
/// building).
///
/// Loop handling follows the paper's demanded-unrolling scheme, generalized
/// to nested loops. A state cell's key is its location wrapped by one
/// iteration count per enclosing loop, outermost first; the builder keeps
/// those counts in one flat vector. A loop instance is its fix cell, the
/// head under the enclosing counts, whose iterate k is the fix cell's key
/// wrapped by k; the fix cell records the instance's count K, and the fix
/// edge reads iterates (K−1, K). Unrolling builds the next abstract
/// iteration of the loop body (resetting directly nested loops to their
/// initial two iterates) and slides the fix edge forward; dirtying iterate 1
/// rolls the fix edge back to iterates (0, 1) and deletes the unrolled
/// region, the cells reachable forward from iterate 1 short of the fix cell
/// (a semantically equivalent, memory-friendlier variant of E-Loop); each
/// iterate links to its fix cell, so the check is an array read. One walk
/// over a location's loop nest finds the cell holding its answer for
/// queryLocation and the location readers. See docs/architecture.md, "Cell
/// names" and "DAIG edits".
///
/// Program edits, each reconciled before the next query (which reads labels
/// from the CFG):
///  - applyStatementEdit: in-place statement replacement — a new label and
///    stamp on the edge, surgical dirtying, no structural change;
///  - rebuild(): after arbitrary structural CFG edits — reconciles the DAIG
///    with the CFG in place. Only the locations whose construction inputs
///    changed, widened to the outermost loops around them, are rebuilt;
///    every other cell keeps its key, value and degraded mark, and loops
///    without a changed location keep their unrollings. Cells whose
///    computation changed or that disappeared are emptied by the Fig. 9
///    dirtying rules;
///  - applyInsertedStatement: rebuild() for one statement insertion, whose
///    few candidate locations are known, so the diff skips the scan.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DAIG_DAIG_H
#define DAI_DAIG_DAIG_H

#include "cfg/cfg_analysis.h"
#include "cfg/edits.h"
#include "daig/cell_key.h"
#include "daig/memo_table.h"
#include "domain/abstract_domain.h"
#include "support/budget.h"
#include "support/fault_injection.h"
#include "support/observe.h"
#include "support/statistics.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <optional>

namespace dai {

/// How one demanded cell was resolved in a recorded query (see
/// Daig::explainQuery): the direct observables of the Fig. 8 rules —
/// Q-Reuse (Reused / DegradedReuse), Q-Match (MemoHit), Q-Miss
/// (Evaluated) — plus the budget layer's ⊤-substitution.
enum class DemandOutcome : uint8_t {
  Reused,        ///< Q-Reuse: the cell already held a value.
  Evaluated,     ///< Q-Miss: computed fresh by its defining computation.
  MemoHit,       ///< Q-Match: demand-miss answered by the memo table.
  TopBudget,     ///< ⊤-substituted by hard budget exhaustion.
  DegradedReuse, ///< Q-Reuse of a budget-degraded value.
};

inline const char *demandOutcomeName(DemandOutcome O) {
  switch (O) {
  case DemandOutcome::Reused:
    return "reused";
  case DemandOutcome::Evaluated:
    return "evaluated";
  case DemandOutcome::MemoHit:
    return "memo-hit";
  case DemandOutcome::TopBudget:
    return "top-budget";
  case DemandOutcome::DegradedReuse:
    return "degraded-reuse";
  }
  return "?";
}

/// The demand tree one explainQuery call records: which cells the query
/// traversed, in traversal order, and how each was resolved. Deterministic
/// for a fixed DAIG state: demand traversal follows the (deterministic)
/// computation-source order, so two runs over equal DAIG states record
/// equal trees.
struct DemandTree {
  static constexpr uint8_t kNoFn = 0xff;

  struct Node {
    CellKey N;
    DemandOutcome O = DemandOutcome::Evaluated;
    uint8_t FK = kNoFn; ///< FnKind of the defining computation; kNoFn = none
                        ///< (e.g. the entry cell).
    std::vector<size_t> Children;
  };

  std::vector<Node> Nodes;   ///< Preorder (record order).
  std::vector<size_t> Roots; ///< Top-level demands, in query order.

  size_t size() const { return Nodes.size(); }

  /// Indented text rendering, one cell per line:
  ///   <name> [<- <fn>] [outcome]
  std::string text() const {
    std::string Out;
    auto render = [&](auto &&Self, size_t Idx, unsigned Ind) -> void {
      const Node &Nd = Nodes[Idx];
      Out.append(size_t(Ind) * 2, ' ');
      Out += Nd.N.toString();
      if (Nd.FK != kNoFn) {
        Out += " <- ";
        Out += fnKindName(FnKind(Nd.FK));
      }
      Out += " [";
      Out += demandOutcomeName(Nd.O);
      Out += "]\n";
      for (size_t C : Nd.Children)
        Self(Self, C, Ind + 1);
    };
    for (size_t R : Roots)
      render(render, R, 0);
    return Out;
  }

  /// Graphviz DOT rendering; outcome encoded as node color.
  std::string dot() const {
    auto escape = [](const std::string &S) {
      std::string E;
      for (char C : S) {
        if (C == '"' || C == '\\')
          E += '\\';
        E += C;
      }
      return E;
    };
    auto color = [](DemandOutcome O) {
      switch (O) {
      case DemandOutcome::Reused:
        return "gray60";
      case DemandOutcome::Evaluated:
        return "black";
      case DemandOutcome::MemoHit:
        return "blue";
      case DemandOutcome::TopBudget:
        return "red";
      case DemandOutcome::DegradedReuse:
        return "orange";
      }
      return "black";
    };
    std::string Out = "digraph demand {\n"
                      "  node [shape=box, fontname=\"monospace\"];\n";
    for (size_t I = 0; I < Nodes.size(); ++I) {
      const Node &Nd = Nodes[I];
      Out += "  n" + std::to_string(I) + " [label=\"" +
             escape(Nd.N.toString()) + "\\n" + demandOutcomeName(Nd.O) +
             "\", color=" + color(Nd.O) + "];\n";
    }
    for (size_t I = 0; I < Nodes.size(); ++I)
      for (size_t C : Nodes[I].Children)
        Out += "  n" + std::to_string(I) + " -> n" + std::to_string(C) +
               ";\n";
    Out += "}\n";
    return Out;
  }
};

/// A DAIG over abstract domain \p D for a single control-flow graph.
template <typename D>
  requires AbstractDomain<D>
class Daig {
public:
  using Elem = typename D::Elem;
  /// A computed abstract value: built once, by the domain operation that
  /// produced it, then immutable and shared by every cell and memo entry
  /// holding that result. Q-Reuse, Q-Match and every store copy this
  /// handle, not the abstract state; a value is deep-copied only where it
  /// leaves the DAIG by value (queryLocation).
  using ElemPtr = typename MemoTable<D>::ElemPtr;
  /// Statement interpretation override used by the interprocedural engine to
  /// resolve the Call on an edge by demanding callee summaries.
  using TransferFn = std::function<Elem(const CfgEdge &, const Elem &)>;
  /// Invalidation callback: fired with the key of every cell emptied by an
  /// edit, letting the engine propagate dirtying across function DAIGs.
  using EmptiedFn = std::function<void(const CellKey &)>;

  /// Test access to internals (tests/daig_reconcile_test.cpp).
  friend struct DaigTestPeer;

  /// A computation edge n ← f(n1, ..., nk): the function and its sources
  /// in argument order (a transfer reads its statement cell first).
  struct Comp {
    FnKind F;
    std::vector<CellId> Srcs;

    bool operator==(const Comp &O) const { return F == O.F && Srcs == O.Srcs; }
  };

  /// One reference cell and everything the DAIG keeps about it: its key,
  /// value or edge, the computation that defines it (at most one, Definition
  /// 4.1) and the computations that read it, plus its loop-instance and
  /// degraded bookkeeping. An edit changes one record; auditInvariants
  /// checks that each cell's computation and its sources' dependent lists
  /// agree.
  struct Cell {
    /// The cell's name; invalid while the slot is free.
    CellKey Key;
    /// Holds a budget-degraded value (support/budget.h): ⊤-substituted on
    /// hard exhaustion, or computed from a degraded input (taint). Cleared
    /// whenever the cell is emptied: the mark describes the value stored.
    bool Degraded = false;
    /// A loop instance's fix cell: the instance's count K, its fix edge
    /// reading iterates (K−1, K); K = 1 initially. 0 for every other cell.
    uint32_t K = 0;
    /// A loop iterate: its instance's fix cell, as buildIteration last set
    /// it (E-Loop rollback checks it against the keys before use).
    CellId Fix = kNoCell;
    /// A statement cell: the edge whose label it refers to (InvalidEdgeId
    /// for a state cell) and the edge's LabelStamp when it last read it.
    EdgeId Edge = InvalidEdgeId;
    uint64_t Stamp = 0;
    /// A state cell's value; null while unfilled and for statement cells.
    ElemPtr V;
    /// The defining computation; none for statement cells and the entry
    /// cell.
    std::optional<Comp> Def;
    /// Destinations of the computations reading this cell, in key order and
    /// without repeats: the order dirtying visits them in.
    std::vector<CellId> Deps;
    /// The epoch of the last dirtying or rollback walk that visited it.
    uint64_t Seen = 0;

    bool isStmt() const { return Edge != InvalidEdgeId; }
    bool hasValue() const { return V != nullptr; }
    bool reads(const CfgEdge &E) const {
      return Edge == E.Id && Stamp == E.LabelStamp;
    }
  };

  /// Note: the memo table counts its own hits/misses/evictions into the
  /// Statistics attached to IT (MemoTable::attachStatistics) — attachment
  /// is the table owner's decision, since the sink must outlive the table
  /// (an engine shares one table across all its instances' DAIGs).
  Daig(Cfg *G, Elem EntryValue, Statistics *Stats = nullptr,
       MemoTable<D> *Memo = nullptr)
      : G(G), EntryValue(share(std::move(EntryValue))), Stats(Stats),
        Memo(Memo) {
    construct();
  }

  void setTransferHook(TransferFn Fn) { Hook = std::move(Fn); }
  void setOnCellEmptied(EmptiedFn Fn) { OnCellEmptied = std::move(Fn); }

  const CfgInfo &info() const { return *Info; }
  bool valid() const { return Info->valid(); }

  //===--------------------------------------------------------------------===//
  // Keys of interest
  //===--------------------------------------------------------------------===//

  /// The key of the cell holding queryLocation(exit)'s answer. No loop
  /// encloses the exit, so its key carries no count.
  CellKey exitCellKey() const { return CellKey::state(G->exit()); }

  //===--------------------------------------------------------------------===//
  // Queries (Fig. 8)
  //===--------------------------------------------------------------------===//

  /// Demands the abstract state at location \p L, computing enclosing loop
  /// fixed points as needed. Returns ⊥ for unreachable locations. The
  /// answer is a copy of the cell's shared value: the one deep copy a query
  /// makes.
  Elem queryLocation(Loc L) {
    if (!Info->reachable(L))
      return D::bottom();
    ElemPtr DegradedFix;
    CellId Id = answerCell(L, [&](CellId Fix) {
      ElemPtr FV = queryCell(Fix);
      if (!Cells[Fix].Degraded)
        return false;
      // The enclosing fixpoint was ⊤-degraded by a budget: its iterate
      // cells are intermediate (pre-convergence) states, NOT sound final
      // answers for body locations. The degraded fix value (⊤) is the
      // only sound answer for anything inside the loop.
      budgetState().TaintPending = true;
      DegradedFix = std::move(FV);
      return true;
    });
    assert(Id != kNoCell && "a reachable location has an answer cell");
    return DegradedFix ? *DegradedFix : *queryCell(Id);
  }

  /// Demands every reachable location (the eager, incremental-only mode).
  void queryAllLocations() {
    for (Loc L : Info->Rpo)
      (void)queryLocation(L);
  }

  /// Low-level query by cell key (Fig. 8 semantics; see queryCell).
  ElemPtr queryState(const CellKey &K) {
    CellId Id = find(K);
    assert(Id != kNoCell && "query for a key outside the DAIG");
    return queryCell(Id);
  }

  /// Runs queryLocation(\p L) with demand-provenance recording enabled and
  /// returns the recorded demand tree: every cell the query traversed,
  /// tagged reused / evaluated / memo-hit / ⊤-substituted-by-budget. The
  /// query itself is a REAL query (values computed are stored, counters
  /// count), so a second explainQuery of the same location shows the
  /// from-scratch-consistent steady state: all reuses. Deterministic: for
  /// equal DAIG states the tree is bit-identical across runs.
  DemandTree explainQuery(Loc L) {
    assert(!Prov && "explainQuery does not nest");
    ProvRecorder Rec;
    Prov = &Rec;
    try {
      (void)queryLocation(L);
    } catch (...) {
      Prov = nullptr;
      throw;
    }
    Prov = nullptr;
    return std::move(Rec.T);
  }

  //===--------------------------------------------------------------------===//
  // Edits (Fig. 9)
  //===--------------------------------------------------------------------===//

  /// In-place statement replacement on edge \p Id: replaces the CFG's label
  /// (an equal statement is no edit), then refreshStmtCell. Structural shape
  /// is unchanged. Returns false if no such edge.
  bool applyStatementEdit(EdgeId Id, Stmt NewStmt) {
    if (!G->replaceStmt(Id, std::move(NewStmt)))
      return false;
    refreshStmtCell(Id);
    return true;
  }

  /// E-Commit for a label the CFG already holds: live edge \p Id's statement
  /// cell takes the edge's new stamp and its readers are dirtied. The edit
  /// counts as seen, so it alone makes no reconcile scan labels. The engine
  /// replaces a label once and refreshes every instance.
  void refreshStmtCell(EdgeId Id) {
    const CfgEdge &E = *G->findEdge(Id);
    CellId SC = find(stmtCellKey(Id));
    if (SC == kNoCell || Cells[SC].reads(E))
      return; // no cell reads the edge (its source is unreachable), or
              // the cell already read this label
    Cells[SC].Stamp = E.LabelStamp;
    ++LabelEdits;
    dirtyDependentsOf(SC);
  }

  /// Statement insertion — the common 85% case of the paper's edit
  /// workload. Preconditions: the CFG already contains the insertion
  /// cfg/edits.h insertStmtAt(L, S) made, whose result is \p R, and this
  /// DAIG still reflects the pre-edit CFG. The splice is the rebuild() of
  /// a known edit: only the new edge's endpoints and the destinations of
  /// the edges that now leave its target can have changed, so the diff
  /// looks at those locations alone instead of scanning the graph. (For a
  /// splice before a loop head, L's out-edges are among the candidates;
  /// they have not changed, which the diff confirms.) \p L is implied by
  /// \p R. Returns true.
  bool applyInsertedStatement(Loc L, const InsertResult &R) {
    (void)L;
    const CfgEdge *NewEdge = G->findEdge(R.FirstNewEdge);
    assert(NewEdge && "insertion must have created an edge");
    std::vector<Loc> Candidates = {NewEdge->Src, NewEdge->Dst};
    // The post-edit snapshot, which reconcile fetches next anyway.
    std::shared_ptr<const CfgInfo> New = G->infoShared();
    for (EdgeId Id : New->succEdges(NewEdge->Dst))
      Candidates.push_back(G->findEdge(Id)->Dst);
    reconcile(/*Everywhere=*/false, &Candidates);
    return true;
  }

  /// Reconciles the DAIG with the current CFG after structural edits — any
  /// number of them since the DAIG last matched its CFG — by rebuilding only
  /// the region they touched. A location is *changed* when one of its
  /// construction inputs differs between the pinned snapshot and the current
  /// CFG (locationChanged); the region is every changed location plus every
  /// outermost loop, old or new, around one. Loops around a changed
  /// location roll back to iteration 0 first (E-Loop); then the region
  /// alone is rebuilt. Cells outside it are not touched, loops without a
  /// changed location keep their unrollings, and a rebuilt cell whose key
  /// and computation are unchanged keeps its value and its degraded mark.
  /// A filled cell whose computation changed, or which disappears, is
  /// emptied through propagateDirty, so OnCellEmptied, forward dirtying and
  /// E-Loop rollback behave exactly as for any other edit. The cost is the
  /// diff (a linear scan over locations) plus work proportional to the
  /// region and to the cells the edit dirties. See docs/architecture.md,
  /// "DAIG edits".
  void rebuild() { reconcile(/*Everywhere=*/false); }

  /// Replaces the entry abstract state φ0 (used by the interprocedural
  /// engine when callee entry contributions change) and dirties forward.
  void updateEntry(Elem NewEntry) {
    EntryValue = share(std::move(NewEntry));
    CellId N = entryCell();
    assert(N != kNoCell && "entry cell must exist");
    Cells[N].V = EntryValue;
    ++Fills;
    clearDegraded(Cells[N]); // a fresh entry value clears entry provenance
    dirtyDependentsOf(N);
  }

  /// Marks the entry cell degraded (interprocedural engine: the entry was
  /// coarsened by a budget-tightened widening, so everything computed from
  /// it carries degraded provenance via the taint frames).
  void markEntryDegraded() { markDegraded(entryCell()); }

  /// Current entry abstract state.
  const Elem &entryValue() const { return *EntryValue; }

  /// Dirties every cell computed from edge \p Id's statement (used by the
  /// engine when a callee summary feeding this edge changes).
  void invalidateEdgeOutputs(EdgeId Id) {
    dirtyDependentsOf(find(stmtCellKey(Id)));
  }

  //===--------------------------------------------------------------------===//
  // Introspection (tests, statistics, debugging)
  //===--------------------------------------------------------------------===//

  size_t cellCount() const { return Cells.size() - Free.size(); }
  /// The cells that have a defining computation.
  size_t compCount() const {
    return std::ranges::count_if(
        Cells, [](const Cell &C) { return C.Def.has_value(); });
  }
  size_t unrolledLoopCount() const {
    return std::ranges::count_if(Cells, [](const Cell &C) { return C.K > 1; });
  }

  bool hasCell(const CellKey &K) const { return find(K) != kNoCell; }
  bool cellHasValue(const CellKey &K) const {
    CellId Id = find(K);
    return Id != kNoCell && Cells[Id].hasValue();
  }

  /// True when queryLocation(\p L) would be answered entirely from filled
  /// cells — no evaluation, no fills. This is the incremental checker's
  /// reuse test (analysis/checker.h): an edit dirties exactly the cells of
  /// the affected slice (Fig. 9), so when no cell was filled since the
  /// checker's last pass (stateFills()), a location whose answer is still
  /// materialized was provably untouched and its cached verdicts stand.
  /// Conservative in one direction only: a false result may merely mean the
  /// location was never demanded. An unreachable location has no cells and
  /// reads false; its ⊥ answer costs nothing to re-demand.
  bool locationValueReady(Loc L) const {
    if (!Info->reachable(L))
      return false;
    // A degraded fix cell is filled, and queryLocation answers with it.
    CellId Id = answerCell(L, [&](CellId Fix) {
      return !Cells[Fix].hasValue() || Cells[Fix].Degraded;
    });
    return Id != kNoCell && Cells[Id].hasValue();
  }

  /// Abstract-state cells filled so far: evaluations, memo hits and ⊤
  /// substitutions (all made by queries) plus updateEntry. Monotone and
  /// kept across rebuilds, so a client that reads the same count at two
  /// points knows no cell was refilled in between.
  uint64_t stateFills() const { return Fills; }

  //===--------------------------------------------------------------------===//
  // Degraded provenance (support/budget.h)
  //===--------------------------------------------------------------------===//

  /// True when cell \p K holds a budget-degraded value (⊤-substituted, or
  /// computed from a degraded input).
  bool cellDegraded(const CellKey &K) const {
    CellId Id = DegradedCount ? find(K) : kNoCell;
    return Id != kNoCell && Cells[Id].Degraded;
  }

  /// True when the answer queryLocation(\p L) returns carries degraded
  /// provenance. Meaningful once \p L has been demanded: the flags are
  /// recorded during evaluation.
  bool locationDegraded(Loc L) const {
    if (!DegradedCount || !Info->reachable(L))
      return false;
    // queryLocation answers with the first degraded enclosing fix value.
    CellId Id =
        answerCell(L, [&](CellId Fix) { return Cells[Fix].Degraded; });
    return Id != kNoCell && Cells[Id].Degraded;
  }

  size_t degradedCellCount() const { return DegradedCount; }

  /// Empties every degraded cell (and its transitive dependents), clearing
  /// all provenance marks — re-demanding afterwards, outside the exhausted
  /// budget, restores full precision. Returns the number of cells that
  /// carried marks.
  size_t invalidateDegraded() {
    if (!DegradedCount)
      return 0;
    size_t Count = DegradedCount;
    CellId Entry = entryCell();
    std::vector<CellId> Marked, Work;
    for (CellId N = 0; N < Cells.size(); ++N)
      if (Cells[N].Degraded)
        Marked.push_back(N);
    std::ranges::sort(Marked, keyLess());
    for (CellId N : Marked) {
      if (N == Entry) {
        // The entry cell always holds φ0 and has no computation; dirty its
        // consumers instead (the engine re-refreshes coarsened entries).
        const std::vector<CellId> &Deps = Cells[N].Deps;
        Work.insert(Work.end(), Deps.begin(), Deps.end());
        continue;
      }
      Work.push_back(N);
    }
    propagateDirty(Work); // also clears each emptied cell's mark
    for (CellId N : Marked) // incl. the (unemptied) entry's
      if (live(N))
        clearDegraded(Cells[N]);
    return Count;
  }

  /// Structural self-audit beyond Definition 4.1: checkWellFormed plus
  /// agreement of computations and dependent lists, of the store and the
  /// key index, loop-instance metadata sanity, keys that fit the pinned
  /// snapshot, and degraded-mark honesty. Cheap (no domain operations) —
  /// safe to run on a mid-cancelled DAIG. Returns "" when clean.
  std::string auditInvariants() const {
    std::string W = checkWellFormed();
    if (!W.empty())
      return W;
    if (Index.size() != cellCount())
      return "the key index and the cell store disagree on the cell count";
    size_t Marks = 0;
    for (CellId N = 0; N < Cells.size(); ++N) {
      const Cell &C = Cells[N];
      if (!C.Key.valid())
        continue;
      auto Name = [&] { return C.Key.toString(); };
      if (find(C.Key) != N)
        return "cell " + Name() + " is not indexed under its key";
      // Each computation's sources list it as a dependent; each
      // dependent's computation lists its source; dependent lists are in
      // key order without repeats. (checkWellFormed found every source.)
      if (C.Def)
        for (CellId S : C.Def->Srcs)
          if (!std::ranges::binary_search(Cells[S].Deps, N, keyLess()))
            return "missing dependent edge " + Cells[S].Key.toString() +
                   " → " + Name();
      for (size_t I = 0; I < C.Deps.size(); ++I) {
        CellId Dest = C.Deps[I];
        if (I > 0 && !keyLess()(C.Deps[I - 1], Dest))
          return "dependents of " + Name() + " out of key order or repeated";
        if (!live(Dest) || !Cells[Dest].Def)
          return "dangling dependent of " + Name();
        if (std::ranges::find(Cells[Dest].Def->Srcs, N) ==
            Cells[Dest].Def->Srcs.end())
          return "dependent " + Cells[Dest].Key.toString() +
                 " does not list source " + Name();
      }
      // Loop instances: each fix cell's computation is the fix edge over
      // its own iterates K−1 and K, which link back to it.
      if (C.K) {
        CellId Prev = find(C.Key.iterate(C.K - 1)),
               Next = find(C.Key.iterate(C.K));
        if (!C.Def || C.Def->F != FnKind::Fix)
          return "loop instance without a fix edge: " + Name();
        if (C.Def->Srcs != std::vector<CellId>{Prev, Next})
          return "fix sources disagree with the instance's count: " + Name();
        if (Cells[Prev].Fix != N || Cells[Next].Fix != N)
          return "iterates of " + Name() + " do not link to their fix cell";
      }
      // Keys fit the snapshot: a state-like cell names a reachable
      // location with one count per enclosing loop (one fewer for a head's
      // fix cell), so no cell a structural edit should have removed
      // survives it.
      if (C.Key.shape() != CellKey::Shape::Stmt) {
        Loc L = C.Key.loc();
        if (!Info->reachable(L))
          return "cell of an unreachable location: " + Name();
        size_t Depth = Info->loopDepth(L), Counts = C.Key.counts().size();
        if (Counts != Depth && !(Info->isLoopHead(L) && Counts + 1 == Depth))
          return "cell key disagrees with its loop nest: " + Name();
      }
      // Degraded honesty: a mark sits on a filled state cell.
      if (C.Degraded) {
        ++Marks;
        if (!C.hasValue())
          return "degraded mark on an empty/statement cell: " + Name();
      }
    }
    if (Marks != DegradedCount)
      return "degraded marks disagree with their count";
    return "";
  }

  /// Key of the statement cell for edge \p Id (depends on join indexing).
  CellKey stmtCellKey(EdgeId Id) const {
    const CfgEdge *E = G->findEdge(Id);
    assert(E && "no such edge");
    return stmtKey(E->Src, E->Dst, Info->fwdIndexOf(*G, Id),
                   Info->fwdEdgesTo(E->Dst).size());
  }

  /// Checks Definition 4.1 well-formedness plus internal index consistency.
  /// Returns an empty string when everything holds.
  std::string checkWellFormed() const;

  /// Checks Definition 4.3 (DAIG–AI consistency): every filled cell agrees
  /// with re-evaluating its computation from filled inputs. Expensive;
  /// intended for tests. Returns an empty string when consistent.
  std::string checkAiConsistency();

private:
  //===--------------------------------------------------------------------===//
  // Core state
  //===--------------------------------------------------------------------===//

  Cfg *G;
  std::shared_ptr<const CfgInfo> Info; ///< Pinned snapshot (see Cfg::infoShared).
  ElemPtr EntryValue; ///< φ0, shared with the entry cell.
  Statistics *Stats;
  MemoTable<D> *Memo;
  TransferFn Hook;
  EmptiedFn OnCellEmptied;

  /// Every cell, by id. A removed cell's slot is free (its key invalid)
  /// until a later cell reuses it; Free lists those slots.
  std::vector<Cell> Cells;
  std::vector<CellId> Free;
  /// Each live cell's id under its key.
  CellKeyIndex Index;
  /// Cells with Cell::Degraded set.
  size_t DegradedCount = 0;

  /// stateFills(). The count spans rebuilds: a rebuilt entry cell is
  /// refilled with the unchanged φ0 and not counted.
  uint64_t Fills = 0;

  /// The last walk's epoch (Cell::Seen): each dirtying and each rollback
  /// walk takes the next one, so no walk clears another's marks.
  uint64_t Epoch = 0;

  //===--------------------------------------------------------------------===//
  // Keys and the store
  //===--------------------------------------------------------------------===//

  bool live(CellId Id) const { return Cells[Id].Key.valid(); }

  /// How the index reads a cell's key back.
  auto keyOf() const {
    return [this](CellId Id) -> const CellKey & { return Cells[Id].Key; };
  }

  /// The id of the cell keyed \p K, or kNoCell.
  CellId find(const CellKey &K) const { return Index.find(K, keyOf()); }

  /// The id of the cell keyed \p K, creating an empty record when absent.
  CellId cellFor(const CellKey &K) {
    return Index.findOrAdd(K, keyOf(), [&] {
      CellId Id = static_cast<CellId>(Cells.size());
      if (Free.empty()) {
        Cells.emplace_back();
      } else {
        Id = Free.back();
        Free.pop_back();
      }
      Cells[Id].Key = K;
      return Id;
    });
  }

  /// Orders ids by their cells' keys: the order of every dependent list.
  auto keyLess() const {
    return [this](CellId A, CellId B) {
      return A != B && Cells[A].Key < Cells[B].Key;
    };
  }

  // An iteration context is one count per enclosing loop, outermost first
  // in CfgInfo::loopNest order; a count the context lacks reads as 0.

  /// State-cell key for \p L under context \p Ctx: one count per loop in
  /// its nest (for a loop head, the last is its own iterate index).
  CellKey stateKey(Loc L, std::span<const uint32_t> Ctx) const {
    return CellKey::state(L, Ctx, Info->loopDepth(L));
  }

  /// Fix-cell key for head \p H: the counts of strictly enclosing loops
  /// only, so that the instance's iterate k is the fix key's iterate(k).
  CellKey fixKey(Loc H, std::span<const uint32_t> Ctx) const {
    return CellKey::state(H, Ctx, Info->loopDepth(H) - 1);
  }

  /// Statement-cell key of the edge Src→Dst: plain for a back edge (\p Idx
  /// 0) or a destination's only forward edge, else i·(ℓ·ℓ′) for its 1-based
  /// fwd-edges-to index i = \p Idx among \p InDegree forward in-edges.
  static CellKey stmtKey(Loc Src, Loc Dst, unsigned Idx, size_t InDegree) {
    return CellKey::stmt(Src, Dst, InDegree < 2 ? 0 : Idx);
  }

  CellId entryCell() const { return find(stateKey(G->entry(), {})); }

  /// The one walk over \p L's loop nest, behind queryLocation,
  /// locationValueReady and locationDegraded. Outermost first, it finds
  /// each enclosing loop's fix cell under the counts gathered so far and
  /// asks \p Stop whether to stop there; if not, it enters that instance's
  /// converged iteration, count K − 1. Returns the fix cell it stopped at,
  /// else the cell holding L's answer: a head's fix cell or L's state cell
  /// (kNoCell if the DAIG lacks it). \p Stop may add cells.
  template <typename StopFn>
  CellId answerCell(Loc L, StopFn &&Stop) const {
    std::span<const Loc> Nest = Info->loopNest(L);
    bool Head = Info->isLoopHead(L); // then its own loop ends the nest
    CellKey At = CellKey::state(L);  // L under the counts entered so far
    for (Loc H : Nest.first(Nest.size() - Head)) {
      CellId Fix = find(CellKey::state(H, At.counts()));
      if (Fix == kNoCell || Stop(Fix))
        return Fix;
      At = At.iterate(Cells[Fix].K - 1);
    }
    return find(At);
  }

  //===--------------------------------------------------------------------===//
  // Structure mutation helpers
  //===--------------------------------------------------------------------===//

  /// Builds state cell \p K, or keeps it (and its value) when it exists.
  CellId addStateCell(const CellKey &K) {
    CellId Id = cellFor(K);
    if (Log)
      Log->Built.push_back(Id);
    return Id;
  }

  /// Builds statement cell \p K referring to edge \p E; an existing cell
  /// that read another edge or an older label takes E's and is logged as
  /// changed.
  CellId addStmtCell(const CellKey &K, const CfgEdge &E) {
    CellId Id = cellFor(K);
    Cell &C = Cells[Id];
    if (!C.reads(E)) {
      if (C.isStmt() && Log)
        Log->Changed.push_back(Id);
      C.Edge = E.Id;
      C.Stamp = E.LabelStamp;
    }
    if (Log)
      Log->Built.push_back(Id);
    return Id;
  }

  /// Sets the computation of the built cell \p Dest; a no-op when it is
  /// already exactly that. Construction links a location's sources built
  /// or not (cellFor creates a missing source's record, which addStateCell
  /// then finds).
  void addComp(CellId Dest, FnKind F, std::vector<CellId> Srcs) {
    if (const std::optional<Comp> &Def = Cells[Dest].Def) {
      if (Def->F == F && Def->Srcs == Srcs)
        return;
      unlinkSources(Dest, Def->Srcs);
    }
    if (Log)
      Log->Changed.push_back(Dest);
    for (CellId S : Srcs) {
      std::vector<CellId> &Deps = Cells[S].Deps;
      auto P = std::lower_bound(Deps.begin(), Deps.end(), Dest, keyLess());
      if (P == Deps.end() || *P != Dest)
        Deps.insert(P, Dest);
    }
    Cells[Dest].Def = Comp{F, std::move(Srcs)};
  }

  /// Drops \p Dest from the dependent lists of those of \p Srcs that still
  /// exist.
  void unlinkSources(CellId Dest, const std::vector<CellId> &Srcs) {
    for (CellId S : Srcs) {
      if (!live(S))
        continue;
      std::vector<CellId> &Deps = Cells[S].Deps;
      auto P = std::lower_bound(Deps.begin(), Deps.end(), Dest, keyLess());
      if (P != Deps.end() && *P == Dest)
        Deps.erase(P);
    }
  }

  /// Removes cell \p N with its computation and frees its slot. Its
  /// dependents must go too, or be re-linked, as rollback and reconcile do.
  void removeCell(CellId N) {
    Cell &C = Cells[N];
    if (!C.Key.valid())
      return;
    if (C.Def)
      unlinkSources(N, C.Def->Srcs);
    Index.erase(C.Key, keyOf());
    clearDegraded(C);
    C = Cell();
    Free.push_back(N);
  }

  //===--------------------------------------------------------------------===//
  // Construction (Definition A.2, generalized to nested loops)
  //===--------------------------------------------------------------------===//

  void construct() {
    Cells.clear();
    Free.clear();
    Index.clear();
    DegradedCount = 0;
    Info = G->infoShared();
    LabelEdits = labelEditCount();
    if (!Info->valid())
      return;
    for (Loc L : Info->Rpo)
      buildTopLevel(L);
  }

  /// Builds what location \p L owns outside every loop: the entry's φ0
  /// cell, a loop-free location's cells, or an outermost loop with all it
  /// contains. Locations inside loops are built by their outermost loop.
  void buildTopLevel(Loc L) {
    std::vector<uint32_t> Ctx;
    if (L == G->entry()) {
      // The entry cell holds φ0 and must have no forward in-edges.
      assert(Info->fwdEdgesTo(L).empty() &&
             "the entry location cannot be a forward-edge target");
      Cell &C = Cells[addStateCell(stateKey(L, Ctx))];
      if (!C.hasValue())
        C.V = EntryValue;
      return;
    }
    std::span<const Loc> Nest = Info->loopNest(L);
    if (Nest.empty()) {
      buildEdgesInto(L, Ctx);
    } else if (Nest.front() == L) {
      // Outermost loop head: entry edges target iterate 0.
      buildEdgesInto(L, Ctx);
      buildLoop(L, Ctx);
    }
  }

  /// Builds the state cell for \p L under \p Ctx plus the transfer (and, at
  /// join points, pre-join and join) computations over its forward in-edges.
  void buildEdgesInto(Loc L, std::span<const uint32_t> Ctx) {
    CellKey DestKey = stateKey(L, Ctx);
    CellId Dest = addStateCell(DestKey);
    std::span<const EdgeId> Ids = Info->fwdEdgesTo(L);
    if (Ids.empty())
      return; // head reachable only through its back edge: entry via loop
    if (Ids.size() == 1) {
      const CfgEdge *E = G->findEdge(Ids[0]);
      CellId SC = addStmtCell(stmtKey(E->Src, L, 1, 1), *E);
      addComp(Dest, FnKind::Transfer,
              {SC, cellFor(srcStateKey(E->Src, L, Ctx))});
      return;
    }
    std::vector<CellId> PreJoins;
    for (unsigned I = 0; I < Ids.size(); ++I) {
      const CfgEdge *E = G->findEdge(Ids[I]);
      CellId SC = addStmtCell(stmtKey(E->Src, L, I + 1, Ids.size()), *E);
      CellId PJ = addStateCell(DestKey.preJoin(I + 1));
      addComp(PJ, FnKind::Transfer, {SC, cellFor(srcStateKey(E->Src, L, Ctx))});
      PreJoins.push_back(PJ);
    }
    addComp(Dest, FnKind::Join, std::move(PreJoins));
  }

  /// Source cell for the edge Src→DstLoc: a loop head's *fixed point* when
  /// the edge leaves its loop, else the head's current iterate / the plain
  /// state cell (footnote 5 of the paper).
  CellKey srcStateKey(Loc Src, Loc DstLoc,
                      std::span<const uint32_t> Ctx) const {
    if (Info->isLoopHead(Src) && !Info->inLoop(Src, DstLoc))
      return fixKey(Src, Ctx);
    return stateKey(Src, Ctx);
  }

  /// Builds the loop headed at \p L under the enclosing counts \p Ctx (one
  /// per enclosing loop): iterations 0 … K−1 and the fix edge over iterates
  /// (K−1, K), where K is the live instance's count (1 for a new instance).
  /// Rebuilding a live instance therefore reproduces its unrollings cell
  /// for cell.
  void buildLoop(Loc L, std::vector<uint32_t> &Ctx) {
    CellId Fix = addStateCell(fixKey(L, Ctx));
    uint32_t K = std::max(Cells[Fix].K, 1u);
    std::pair<CellId, CellId> Its;
    for (uint32_t I = 0; I < K; ++I)
      Its = buildIteration(L, Fix, Ctx, I);
    setFix(Fix, K, Its);
  }

  /// Points the fix edge of the instance with fix cell \p Fix at its
  /// iterates \p Its = (K−1, K) and records K.
  void setFix(CellId Fix, uint32_t K, const std::pair<CellId, CellId> &Its) {
    addComp(Fix, FnKind::Fix, {Its.first, Its.second});
    Cells[Fix].K = K;
  }

  /// Builds abstract iteration \p I of the instance with fix cell \p Fix,
  /// headed at \p L under the enclosing counts \p Ctx: the body cells under
  /// count I (nested loops through buildLoop), the back-edge transfer into
  /// the pre-widen cell and the widen into iterate I+1. Returns iterates
  /// (I, I+1); the caller points the fix edge. Idempotent per (Fix, I).
  std::pair<CellId, CellId> buildIteration(Loc L, CellId Fix,
                                           std::vector<uint32_t> &Ctx,
                                           uint32_t I) {
    assert(Ctx.size() + 1 == Info->loopDepth(L) && "one count per loop");
    CellKey FixKey = Cells[Fix].Key; // a copy: building moves cells
    CellId ItI = addStateCell(FixKey.iterate(I));
    CellId ItNext = addStateCell(FixKey.iterate(I + 1));
    CellId PreWiden = addStateCell(FixKey.preWiden(I));
    Cells[ItI].Fix = Cells[ItNext].Fix = Fix;
    addComp(ItNext, FnKind::Widen, {ItI, PreWiden});

    // Body cells and computations under count I (in any order: each
    // location's cells name their sources, built or not).
    Ctx.push_back(I);
    for (Loc B : Info->loopBody(L)) {
      if (B == L)
        continue;
      std::span<const Loc> Nest = Info->loopNest(B);
      if (Nest.back() == B && Nest.size() >= 2 &&
          Nest[Nest.size() - 2] == L) {
        // Directly nested loop: entry edges, then its iterations.
        buildEdgesInto(B, Ctx);
        buildLoop(B, Ctx);
        continue;
      }
      if (Nest.back() == L)
        buildEdgesInto(B, Ctx);
      // Deeper locations are built by the nested buildLoop.
    }

    // Back edge: transfer from the latch state into the pre-widen cell.
    const CfgEdge *Back = G->findEdge(Info->backEdgeOf(L));
    CellId SC = addStmtCell(stmtKey(Back->Src, L, 0, 1), *Back);
    addComp(PreWiden, FnKind::Transfer,
            {SC, cellFor(stateKey(Back->Src, Ctx))});
    Ctx.pop_back();
    return {ItI, ItNext};
  }

  //===--------------------------------------------------------------------===//
  // Demand-provenance recording (explainQuery)
  //===--------------------------------------------------------------------===//

  /// Recorder state: non-null only inside explainQuery, so the recording
  /// hooks on the query paths cost one pointer test when inactive.
  struct ProvRecorder {
    DemandTree T;
    std::vector<size_t> Stack; ///< Indices of open demand-miss frames.
  };
  ProvRecorder *Prov = nullptr;

  /// Records a node for cell \p N under the current frame (or as a root)
  /// and returns its index. Caller has checked Prov.
  size_t provEnter(CellId N, DemandOutcome O) {
    const Cell &C = Cells[N];
    size_t Idx = Prov->T.Nodes.size();
    typename DemandTree::Node Nd;
    Nd.N = C.Key;
    Nd.O = O;
    Nd.FK = C.Def ? uint8_t(C.Def->F) : DemandTree::kNoFn;
    Prov->T.Nodes.push_back(std::move(Nd));
    if (Prov->Stack.empty())
      Prov->T.Roots.push_back(Idx);
    else
      Prov->T.Nodes[Prov->Stack.back()].Children.push_back(Idx);
    return Idx;
  }

  /// Retags the open frame (the cell currently being evaluated) — used by
  /// the memo-hit returns and ⊤-degradation.
  void provMarkTop(DemandOutcome O) {
    if (Prov && !Prov->Stack.empty())
      Prov->T.Nodes[Prov->Stack.back()].O = O;
  }

  /// RAII demand-miss frame: records the node and keeps it open (children
  /// attach to it) for the evaluation's dynamic extent — including across
  /// exception unwinds, so a cancelled query still leaves a well-formed
  /// tree.
  class ProvFrame {
  public:
    ProvFrame(Daig &G, CellId N) : P(G.Prov) {
      if (!P)
        return;
      P->Stack.push_back(G.provEnter(N, DemandOutcome::Evaluated));
    }
    ~ProvFrame() {
      if (P)
        P->Stack.pop_back();
    }
    ProvFrame(const ProvFrame &) = delete;
    ProvFrame &operator=(const ProvFrame &) = delete;

  private:
    ProvRecorder *P;
  };

  //===--------------------------------------------------------------------===//
  // Query evaluation
  //===--------------------------------------------------------------------===//

  /// Wraps a freshly computed value for sharing (a move, not a copy).
  static ElemPtr share(Elem V) {
    return std::make_shared<const Elem>(std::move(V));
  }

  void store(CellId N, ElemPtr V) {
    assert(V && "storing an empty handle");
    Cells[N].V = std::move(V);
    ++Fills;
  }

  void markDegraded(CellId N) {
    if (Cells[N].Degraded)
      return;
    Cells[N].Degraded = true;
    ++DegradedCount;
    recordDegradedCell();
    if (Stats)
      ++Stats->CellsDegraded;
  }

  void clearDegraded(Cell &C) {
    if (C.Degraded) {
      C.Degraded = false;
      --DegradedCount;
    }
  }

  /// Query by cell id (Fig. 8 semantics), plus the resource governance of
  /// support/budget.h: the demand-miss path is the analysis's unit of work,
  /// so it checkpoints the budget (which may throw AnalysisCancelled —
  /// before any mutation, so unwinding is clean), resolves to ⊤ under hard
  /// exhaustion, and tracks degraded provenance through a per-evaluation
  /// taint frame. Returns the cell's shared value. Evaluation may unroll a
  /// loop, adding cells, so the record is re-read by id after it.
  ElemPtr queryCell(CellId N) {
    const Cell &C = Cells[N];
    assert(!C.isStmt() && "queryCell on a statement cell");
    if (C.hasValue()) {
      if (Stats)
        ++Stats->CellReuses; // Q-Reuse
      if (C.Degraded)
        budgetState().TaintPending = true; // consumer inherits the flag
      if (Prov)
        provEnter(N, C.Degraded ? DemandOutcome::DegradedReuse
                                : DemandOutcome::Reused);
      return C.V;
    }
    ProvFrame PF(*this, N);
    TraceSpan Sp("daig.cell_eval", N);
    budgetCheckpoint("DAIG cell evaluation");
    DAI_FAULT_POINT(CellEval);
    if (budgetExhausted())
      return degradeToTop(N);
    assert(C.Def && "empty cell without a computation (wf condition 5)");
    BudgetTaintScope Taint;
    ElemPtr Result;
    if (C.Def->F == FnKind::Fix) {
      Result = queryFix(N); // stores internally
    } else {
      Result = evaluateComp(N);
      store(N, Result);
    }
    if (Taint.consumed())
      markDegraded(N);
    return Result;
  }

  /// Hard budget exhaustion: resolve cell \p N to ⊤ — D::initialEntry({})
  /// over-approximates every reachable state of every variable, so the
  /// substitution is sound — mark it degraded, and taint the consuming
  /// evaluation. No memo store: the value was never computed.
  ElemPtr degradeToTop(CellId N) {
    ElemPtr Top = share(D::initialEntry({}));
    store(N, Top);
    markDegraded(N);
    budgetState().TaintPending = true;
    provMarkTop(DemandOutcome::TopBudget);
    traceInstant("daig.degrade_top", N);
    return Top;
  }

  /// The edge statement cell \p N names, whose label a transfer reads.
  const CfgEdge &labelOf(CellId N) const {
    const CfgEdge *E = G->findEdge(Cells[N].Edge);
    assert(E && Cells[N].reads(*E) && "query before reconciling a CFG edit");
    return *E;
  }

  /// Q-Loop-Converge / Q-Loop-Unroll, bounded: every iteration checkpoints
  /// the budget, a hard-exhausted budget degrades the fixpoint to ⊤, and
  /// an un-budgeted loop that outruns the iteration ceiling (a widening
  /// that does not stabilize) throws AnalysisDivergence instead of hanging.
  ElemPtr queryFix(CellId N) {
    const AnalysisLimits &Limits = analysisLimits();
    uint64_t Iter = 0;
    for (;;) {
      TraceSpan Sp("daig.fix_iter", N, Iter);
      budgetCheckpoint("DAIG fix iteration");
      DAI_FAULT_POINT(Fix);
      if (budgetExhausted())
        return degradeToTop(N);
      // Unrolling rewrites the fix edge: read its iterates first.
      CellId Prev = Cells[N].Def->Srcs[0], Next = Cells[N].Def->Srcs[1];
      ElemPtr V1 = queryCell(Prev);
      ElemPtr V2 = queryCell(Next);
      if (Stats)
        ++Stats->FixChecks;
      if (D::equal(*V1, *V2)) {
        store(N, V1); // the fix cell shares its converged iterate
        return V1;
      }
      uint64_t Ceiling = budgetDegraded()
                             ? std::min(Limits.MaxFixUnrollings,
                                        Limits.DegradedFixUnrollings)
                             : Limits.MaxFixUnrollings;
      if (++Iter >= Ceiling) {
        if (budgetActive())
          return degradeToTop(N); // budgeted: degrade, don't diagnose
        throw AnalysisDivergence("fix cell " + Cells[N].Key.toString(), Iter);
      }
      if (Stats)
        ++Stats->Unrollings;
      unrollLoop(N);
    }
  }

  /// Demanded unrolling: builds the next abstract iteration and slides the
  /// fix edge forward (the unroll helper of Section 5.2).
  void unrollLoop(CellId Fix) {
    uint32_t K = Cells[Fix].K;
    // The fix cell's key: its head under the enclosing counts.
    std::span<const uint32_t> Counts = Cells[Fix].Key.counts();
    std::vector<uint32_t> Ctx(Counts.begin(), Counts.end());
    std::pair<CellId, CellId> Its =
        buildIteration(Cells[Fix].Key.loc(), Fix, Ctx, K);
    setFix(Fix, K + 1, Its);
  }

  /// Q-Match / Q-Miss evaluation of cell \p N's (non-fix) computation.
  /// Inputs are read through their cells' shared handles; a memo hit
  /// returns the stored handle, and a miss wraps the one value the domain
  /// operation builds and hands that handle to both the memo table and the
  /// caller (which stores it in the destination cell). No path copies an
  /// abstract state. Demanding an input may add cells, so sources are read
  /// by index and a transfer reads its statement cell after its input; the
  /// call hook never re-enters this DAIG (the call graph rejects recursion).
  ///
  /// Memo keys embed D::hash(In), and a hit returns the stored value as-is,
  /// so correctness requires hash() to be a pure function of the value and
  /// equal() to be reflexive on copies (pinned per-domain by the registry
  /// conformance suite). For the type-erased AnyDomain, hash() is
  /// additionally type-tagged with the domain's registry key: values of
  /// different concrete domains can never collide into one memo key, and
  /// because the tag remap is injective per domain, a mixed-domain run
  /// preserves each domain's Q-Match hit/miss pattern exactly.
  ElemPtr evaluateComp(CellId N) {
    auto src = [&](size_t I) { return Cells[N].Def->Srcs[I]; };
    switch (Cells[N].Def->F) {
    case FnKind::Transfer: {
      ElemPtr In = queryCell(src(1));
      const CfgEdge &E = labelOf(src(0));
      bool IsCall = E.Label.Kind == StmtKind::Call;
      // Memo keys cost hashing: build one only when a memo table will
      // read it (never for calls, whose hook is the summary).
      MemoKey Key;
      if (Memo && !IsCall) {
        Key = {FnKind::Transfer, {E.LabelHash, D::hash(*In)}};
        if (ElemPtr Hit = Memo->lookup(Key)) {
          provMarkTop(DemandOutcome::MemoHit);
          return Hit;
        }
      }
      if (Stats)
        ++Stats->Transfers;
      ElemPtr Out =
          share((IsCall && Hook) ? Hook(E, *In) : D::transfer(E.Label, *In));
      if (Memo && !IsCall)
        Memo->store(std::move(Key), Out);
      return Out;
    }
    case FnKind::Join: {
      std::vector<ElemPtr> Ins;
      size_t Arity = Cells[N].Def->Srcs.size();
      Ins.reserve(Arity);
      for (size_t I = 0; I < Arity; ++I)
        Ins.push_back(queryCell(src(I)));
      MemoKey Key;
      if (Memo) {
        Key.F = FnKind::Join;
        Key.Ins.reserve(Ins.size());
        for (const ElemPtr &In : Ins)
          Key.Ins.push_back(D::hash(*In));
        if (ElemPtr Hit = Memo->lookup(Key)) {
          provMarkTop(DemandOutcome::MemoHit);
          return Hit;
        }
      }
      assert(!Ins.empty() && "join with no inputs");
      // k inputs, k − 1 joins; the first reads input 0 in place.
      std::optional<Elem> Acc;
      for (size_t I = 1; I < Ins.size(); ++I) {
        if (Stats)
          ++Stats->Joins;
        Acc = D::join(Acc ? *Acc : *Ins[0], *Ins[I]);
      }
      ElemPtr Out = Acc ? share(std::move(*Acc)) : Ins[0];
      if (Memo)
        Memo->store(std::move(Key), Out);
      return Out;
    }
    case FnKind::Widen: {
      ElemPtr Prev = queryCell(src(0));
      ElemPtr Next = queryCell(src(1));
      MemoKey Key;
      if (Memo) {
        Key = {FnKind::Widen, {D::hash(*Prev), D::hash(*Next)}};
        if (ElemPtr Hit = Memo->lookup(Key)) {
          provMarkTop(DemandOutcome::MemoHit);
          return Hit;
        }
      }
      if (Stats)
        ++Stats->Widens;
      ElemPtr Out = share(D::widen(*Prev, *Next));
      if (Memo)
        Memo->store(std::move(Key), Out);
      return Out;
    }
    case FnKind::Fix:
      assert(false && "fix computations are handled by queryFix");
      return share(D::bottom());
    }
    return share(D::bottom());
  }

  //===--------------------------------------------------------------------===//
  // Dirtying (Fig. 9) and loop rollback
  //===--------------------------------------------------------------------===//

  void dirtyDependentsOf(CellId N) {
    if (N == kNoCell)
      return;
    std::vector<CellId> Work = Cells[N].Deps;
    propagateDirty(Work);
  }

  /// E-Propagate with the E-Loop special case: empties the state cells in
  /// \p Work and every cell reachable forward from them, rolling a loop back
  /// before emptying its first iterate. A cell reached along several paths
  /// is visited once: the walk stamps the cells it visits with a fresh
  /// epoch. The walk removes cells but adds none, so no slot is reused
  /// while ids of removed cells wait in \p Work.
  void propagateDirty(std::vector<CellId> &Work) {
    uint64_t Walk = ++Epoch;
    while (!Work.empty()) {
      CellId N = Work.back();
      Work.pop_back();
      Cell &C = Cells[N];
      if (!C.Key.valid())
        continue; // deleted by a rollback while enqueued
      if (C.Seen == Walk || C.isStmt())
        continue; // statements are never dirtied by propagation
      C.Seen = Walk;
      maybeRollbackAt(N); // deletes other cells only
      if (C.hasValue()) {
        C.V.reset();
        clearDegraded(C); // an emptied cell carries no provenance
        if (Stats)
          ++Stats->CellsDirtied;
        if (OnCellEmptied)
          OnCellEmptied(C.Key);
      }
      Work.insert(Work.end(), C.Deps.begin(), C.Deps.end());
    }
  }

  /// If \p N is the first iterate of an unrolled loop instance, deletes the
  /// unrolled iterations (≥ 1) and resets the fix edge to (0, 1).
  void maybeRollbackAt(CellId N) {
    CellId Fix = Cells[N].Fix;
    if (Fix == kNoCell || Cells[Fix].K <= 1 ||
        Cells[N].Key != Cells[Fix].Key.iterate(1))
      return;
    rollbackLoop(Fix, N);
  }

  /// Deletes the unrolled region of the instance with fix cell \p Fix and
  /// resets its fix computation to iterates (0, 1). The region is every
  /// cell reachable forward from iterate 1 (\p It1) short of the fix cell:
  /// the later iterates and their pre-widen cells, and the body cells of
  /// iterations ≥ 1 with the nested instances among them. Cells after the
  /// loop read its fix cell, not an iterate, so nothing else is reached.
  /// Iterate 1 survives; the caller empties it. The walk has its own epoch
  /// because the enclosing propagation may have stamped region cells.
  void rollbackLoop(CellId Fix, CellId It1) {
    // Iterate 1 ← ∇(iterate 0, pre-widen).
    CellId It0 = Cells[It1].Def->Srcs[0];
    uint64_t Walk = ++Epoch;
    std::vector<CellId> Work = Cells[It1].Deps, Region;
    while (!Work.empty()) {
      CellId N = Work.back();
      Work.pop_back();
      if (N == Fix)
        continue;
      Cell &C = Cells[N];
      if (C.Seen == Walk)
        continue;
      C.Seen = Walk;
      Region.push_back(N);
      Work.insert(Work.end(), C.Deps.begin(), C.Deps.end());
    }
    for (CellId N : Region)
      removeCell(N);
    setFix(Fix, 1, {It0, It1});
  }

  //===--------------------------------------------------------------------===//
  // Reconciling with structural CFG edits (rebuild)
  //===--------------------------------------------------------------------===//

  /// What the builder records while rebuild() runs it (Log is null
  /// otherwise): every cell it builds, and the cells whose computation or
  /// label it changed.
  struct ReconcileLog {
    std::vector<CellId> Built; ///< In build order; may repeat a cell.
    std::vector<CellId> Changed;
  };
  ReconcileLog *Log = nullptr;

  /// Statement replacements the CFG has seen (replaceStmt bumps version()
  /// but not structuralVersion()). When this still equals LabelEdits, no
  /// label changed behind the DAIG's back and the diff skips label checks.
  uint64_t labelEditCount() const {
    return G->version() - G->structuralVersion();
  }
  /// labelEditCount() at the last match, plus refreshStmtCell's edits since.
  uint64_t LabelEdits = 0;

  /// rebuild(), or with \p Everywhere every location rebuilt: the full
  /// rebuild, reachable only from tests, which must agree with the region
  /// rebuild cell for cell. \p Only, when given, lists the only locations
  /// the edits since the last reconcile can have changed (the diff checks
  /// just those unless a statement label changed behind the DAIG's back).
  void reconcile(bool Everywhere, const std::vector<Loc> *Only = nullptr) {
    std::shared_ptr<const CfgInfo> New = G->infoShared();
    if (!Info->valid() || !New->valid()) {
      // Ill-formed graphs get no cells (construct): empty what is filled,
      // then start over.
      std::vector<CellId> Work;
      for (CellId N = 0; N < Cells.size(); ++N)
        if (Cells[N].hasValue())
          Work.push_back(N);
      propagateDirty(Work);
      construct();
      return;
    }
    bool Labels = LabelEdits != labelEditCount();
    if (New == Info && !Labels && !Everywhere)
      return; // the graph has not changed since the DAIG last matched it
    std::shared_ptr<const CfgInfo> Pinned = Info; // outlives the swap below
    const CfgInfo &Old = *Pinned;
    uint32_t NumLocs = std::max(Old.numLocs(), New->numLocs());

    // 1. Region: the changed locations, widened to every outermost loop
    //    (old or new) containing one.
    std::vector<char> InRegion(NumLocs, 0), OldOuter(NumLocs, 0),
        NewOuter(NumLocs, 0), RollBack(NumLocs, 0);
    std::vector<Loc> Region, Work;
    auto Add = [&](Loc X) {
      if (!InRegion[X]) {
        InRegion[X] = 1;
        Region.push_back(X);
        Work.push_back(X);
      }
    };
    std::vector<Loc> Changed;
    bool AnyRollBack = false;
    auto Check = [&](Loc X) {
      if (InRegion[X] || !locationChanged(*New, X, Labels))
        return;
      Changed.push_back(X);
      Add(X);
      for (Loc H : Old.loopNest(X))
        RollBack[H] = AnyRollBack = true; // its old body holds X
    };
    if (Only && !Labels) {
      for (Loc X : *Only)
        Check(X);
    } else {
      for (Loc X = 0; X < NumLocs; ++X)
        Check(X);
    }
    while (!Work.empty()) {
      Loc X = Work.back();
      Work.pop_back();
      for (const CfgInfo *I : {&Old, New.get()}) {
        if (!I->inAnyLoop(X))
          continue;
        Loc H = I->loopNest(X).front();
        std::vector<char> &Done = I == &Old ? OldOuter : NewOuter;
        if (Done[H])
          continue;
        Done[H] = 1;
        for (Loc B : I->loopBody(H))
          Add(B);
      }
    }
    if (Everywhere)
      for (Loc X = 0; X < NumLocs; ++X)
        if (Old.reachable(X) || New->reachable(X))
          Add(X);

    // 2. Roll every instance of a loop around a changed location back to
    //    iteration 0 (E-Loop, under the old snapshot), then retire those
    //    instances: the rebuild re-creates the ones that still exist. Other
    //    loops in the region keep their unrollings; buildLoop replays them.
    std::vector<CellId> Seeds, Retired;
    for (CellId Fix = 0; AnyRollBack && Fix < Cells.size(); ++Fix) {
      const Cell &C = Cells[Fix];
      if (!C.K || !RollBack[C.Key.loc()]) // the fix cell names its head
        continue;
      Retired.push_back(Fix);
      if (C.K > 1)
        Seeds.push_back(find(C.Key.iterate(1)));
    }
    if (!Seeds.empty()) {
      std::ranges::sort(Seeds, keyLess()); // the store's order is incidental
      propagateDirty(Seeds);
    }
    for (CellId Fix : Retired)
      Cells[Fix].K = 0;

    // 3. The changed locations' cells under the old snapshot: candidates
    //    for removal (an unchanged location keeps every key it had).
    std::vector<CellKey> OldCells;
    for (Loc X : Everywhere ? Region : Changed)
      zeroContextCellsOf(X, OldCells);

    // 4. Rebuild the region under the new snapshot.
    Info = std::move(New);
    LabelEdits = labelEditCount();
    ReconcileLog Rec;
    Log = &Rec;
    for (Loc X : Info->Rpo)
      if (InRegion[X])
        buildTopLevel(X);
    Log = nullptr;
    std::ranges::sort(Rec.Built);
    Rec.Built.erase(std::unique(Rec.Built.begin(), Rec.Built.end()),
                    Rec.Built.end());
    if (Stats)
      Stats->CellsRebuilt += Rec.Built.size();

    // 5. Empty what changed or disappeared, dirtying forward, then drop the
    //    cells the new graph no longer has.
    std::vector<CellId> Dirty, Gone;
    for (CellId N : Rec.Changed) {
      const Cell &C = Cells[N];
      if (C.isStmt()) // a new label: dirty its readers
        Dirty.insert(Dirty.end(), C.Deps.begin(), C.Deps.end());
      else if (C.hasValue()) // an empty cell has no filled dependents
        Dirty.push_back(N);
    }
    for (const CellKey &K : OldCells) {
      CellId N = find(K);
      if (N != kNoCell && !std::ranges::binary_search(Rec.Built, N)) {
        Gone.push_back(N);
        Dirty.push_back(N);
      }
    }
    propagateDirty(Dirty);
    for (CellId N : Gone)
      removeCell(N);
  }

  /// True when a construction input of location \p X differs between the
  /// pinned snapshot (with the labels this DAIG's statement cells read) and
  /// \p New: whether X is reachable, its loop nest (which also decides
  /// whether it is a head), a head's back edge, and X's forward in-edges
  /// (ids, hence join indices, and each edgeChanged). Which locations a
  /// loop holds needs no check of its own: a location joins or leaves a
  /// loop only by changing its nest, and a loop's body changes only when a
  /// location in its old body gains or loses a predecessor, which changes
  /// that location's in-edges or nest.
  bool locationChanged(const CfgInfo &New, Loc X, bool Labels) const {
    const CfgInfo &Old = *Info;
    bool InOld = Old.reachable(X);
    if (InOld != New.reachable(X))
      return true;
    if (!InOld)
      return false;
    if (!std::ranges::equal(Old.loopNest(X), New.loopNest(X)))
      return true;
    EdgeId Back = Old.backEdgeOf(X);
    if (Back != InvalidEdgeId &&
        (Back != New.backEdgeOf(X) ||
         edgeChanged(New, Back, X, 0, 1, Labels)))
      return true;
    std::span<const EdgeId> OIds = Old.fwdEdgesTo(X);
    if (!std::ranges::equal(OIds, New.fwdEdgesTo(X)))
      return true;
    for (unsigned I = 0; I < OIds.size(); ++I)
      if (edgeChanged(New, OIds[I], X, I + 1, OIds.size(), Labels))
        return true;
    return false;
  }

  /// True when edge \p Id into \p X (fwd-edges-to index \p Idx of
  /// \p InDegree) reads other cells under \p New: another source, a source
  /// whose cells are keyed differently (its loop nest), or, when \p Labels,
  /// a label stamp other than the one its statement cell read. Whether the
  /// edge leaves its source's loop (srcStateKey's choice) can change only
  /// with X's nest, which the caller has compared.
  bool edgeChanged(const CfgInfo &New, EdgeId Id, Loc X, unsigned Idx,
                   size_t InDegree, bool Labels) const {
    const CfgInfo &Old = *Info;
    Loc S = Old.edgeSrc(Id);
    if (S != New.edgeSrc(Id) ||
        !std::ranges::equal(Old.loopNest(S), New.loopNest(S)))
      return true;
    if (!Labels)
      return false;
    CellId SC = find(stmtKey(S, X, Idx, InDegree));
    return SC == kNoCell || !Cells[SC].reads(*G->findEdge(Id));
  }

  /// Appends the keys construction gives location \p X at the all-zero
  /// context of the pinned snapshot: its state cell (a head's entry
  /// iterate), the statement and pre-join cells of its forward in-edges,
  /// and for a head iterate 1, the pre-widen cell, the fix cell and the
  /// back-edge statement cell. After the rollback in reconcile these are
  /// all the cells a changed location has; a location that did not change
  /// keeps its keys, so none of its cells can disappear.
  void zeroContextCellsOf(Loc X, std::vector<CellKey> &Out) const {
    if (!Info->reachable(X))
      return;
    CellKey S = stateKey(X, {});
    Out.push_back(S);
    std::span<const EdgeId> Ids = Info->fwdEdgesTo(X);
    for (unsigned I = 0; I < Ids.size(); ++I) {
      Out.push_back(stmtKey(Info->edgeSrc(Ids[I]), X, I + 1, Ids.size()));
      if (Ids.size() >= 2)
        Out.push_back(S.preJoin(I + 1));
    }
    if (Info->isLoopHead(X)) {
      CellKey Fix = fixKey(X, {}); // a head's state cell is its iterate 0
      Out.push_back(Fix.iterate(1));
      Out.push_back(Fix.preWiden(0));
      Out.push_back(Fix);
      Out.push_back(stmtKey(Info->edgeSrc(Info->backEdgeOf(X)), X, 0, 1));
    }
  }
};

//===----------------------------------------------------------------------===//
// Well-formedness and consistency checking (Definitions 4.1 / 4.3)
//===----------------------------------------------------------------------===//

template <typename D>
  requires AbstractDomain<D>
std::string Daig<D>::checkWellFormed() const {
  // (1) unique names and (2) unique destinations hold by construction: one
  // record per key, one computation per record. Validate the rest.
  for (CellId Dest = 0; Dest < Cells.size(); ++Dest) {
    const Cell &R = Cells[Dest];
    if (!R.Key.valid())
      continue;
    auto Name = [&] { return R.Key.toString(); };
    if (!R.Def) {
      // (5) empty references have dependencies.
      if (!R.isStmt() && !R.hasValue())
        return "empty cell without a computation: " + Name();
      continue;
    }
    const Comp &C = *R.Def;
    if (R.isStmt())
      return "computation writes a statement cell: " + Name();
    for (size_t I = 0; I < C.Srcs.size(); ++I) {
      CellId S = C.Srcs[I];
      if (S >= Cells.size() || !live(S))
        return "computation source missing (dest " + Name() + ")";
      // (4) typing: transfer source 0 is a statement; all others are states.
      bool ExpectStmt = (C.F == FnKind::Transfer && I == 0);
      if (ExpectStmt && !Cells[S].isStmt())
        return "transfer source 0 is not a statement: " + Name();
      if (!ExpectStmt && Cells[S].isStmt())
        return "state source is not a state cell: " + Cells[S].Key.toString();
    }
    if (C.F == FnKind::Fix && C.Srcs.size() != 2)
      return "fix edge without exactly two sources: " + Name();
    if (C.F == FnKind::Widen && C.Srcs.size() != 2)
      return "widen edge without exactly two sources: " + Name();
  }
  // (3) acyclicity via Kahn's algorithm over computation edges.
  std::vector<unsigned> InDeg(Cells.size(), 0);
  std::vector<CellId> Ready;
  for (CellId N = 0; N < Cells.size(); ++N) {
    if (!live(N))
      continue;
    if (Cells[N].Def)
      InDeg[N] = static_cast<unsigned>(Cells[N].Def->Srcs.size());
    else
      Ready.push_back(N);
  }
  size_t Processed = Ready.size();
  while (!Ready.empty()) {
    CellId N = Ready.back();
    Ready.pop_back();
    for (CellId Dep : Cells[N].Deps)
      if (Cells[Dep].Def && --InDeg[Dep] == 0) {
        Ready.push_back(Dep);
        ++Processed;
      }
  }
  if (Processed != cellCount())
    return "dependency cycle detected (acyclicity violated)";
  return "";
}

template <typename D>
  requires AbstractDomain<D>
std::string Daig<D>::checkAiConsistency() {
  auto valueOf = [&](CellId S) -> const Elem & { return *Cells[S].V; };
  for (CellId N = 0; N < Cells.size(); ++N) {
    const Cell &C = Cells[N];
    if (!C.hasValue())
      continue;
    if (C.Degraded)
      continue; // ⊤-substituted/tainted by a budget: deliberately not the
                // value its computation produces (sound by construction)
    if (!C.Def)
      continue; // φ0 cell
    const Comp &Comp = *C.Def;
    if (!std::ranges::all_of(Comp.Srcs, [&](CellId S) {
          return Cells[S].isStmt() || Cells[S].hasValue();
        }))
      return "filled cell " + C.Key.toString() + " depends on an empty cell";
    const Elem &Stored = *C.V;
    if (Comp.F == FnKind::Fix) {
      const Elem &V1 = valueOf(Comp.Srcs[0]);
      const Elem &V2 = valueOf(Comp.Srcs[1]);
      if (!D::equal(V1, V2) || !D::equal(Stored, V1))
        return "fix cell " + C.Key.toString() +
               " inconsistent with its iterates";
      continue;
    }
    Elem Recomputed = [&] {
      switch (Comp.F) {
      case FnKind::Transfer: {
        const CfgEdge &E = labelOf(Comp.Srcs[0]);
        const Elem &In = valueOf(Comp.Srcs[1]);
        return (E.Label.Kind == StmtKind::Call && Hook)
                   ? Hook(E, In)
                   : D::transfer(E.Label, In);
      }
      case FnKind::Join: {
        Elem Acc = valueOf(Comp.Srcs[0]);
        for (size_t I = 1; I < Comp.Srcs.size(); ++I)
          Acc = D::join(Acc, valueOf(Comp.Srcs[I]));
        return Acc;
      }
      case FnKind::Widen:
        return D::widen(valueOf(Comp.Srcs[0]), valueOf(Comp.Srcs[1]));
      case FnKind::Fix:
        break;
      }
      return D::bottom();
    }();
    if (!D::equal(Stored, Recomputed))
      return "cell " + C.Key.toString() + " disagrees with its computation";
  }
  return "";
}

} // namespace dai

#endif // DAI_DAIG_DAIG_H
