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
/// The hypergraph is one map from name to cell record (Daig::Cell): the
/// cell's statement or value, the computation that defines it, and the
/// destinations of the computations that read it, in Name order. Queries
/// walk the computations backward; dirtying walks the dependent lists
/// forward, stamping the cells it visits with a per-DAIG epoch.
///
/// Loop handling follows the paper's demanded-unrolling scheme, generalized
/// to nested loops. A state cell's name is its location wrapped by one
/// iteration count per enclosing loop, outermost first (daig/name.h); the
/// builder keeps those counts in one flat vector. A loop instance is its
/// fix cell, the head under the enclosing counts, whose iterate k is
/// Name::iter(fix cell, k); the DAIG records only its count K, and the fix
/// edge reads iterates (K−1, K). Unrolling builds the next abstract
/// iteration of the loop body (resetting directly nested loops to their
/// initial two iterates) and slides the fix edge forward; dirtying iterate 1
/// rolls the fix edge back to iterates (0, 1) and deletes the unrolled
/// region, the cells reachable forward from iterate 1 short of the fix cell
/// (a semantically equivalent, memory-friendlier variant of E-Loop). One
/// walk over a location's loop nest finds the cell holding its answer for
/// queryLocation and the location readers. See docs/architecture.md, "Cell
/// names" and "DAIG edits".
///
/// Program edits:
///  - applyStatementEdit: in-place statement replacement — surgical dirtying
///    with no structural change;
///  - rebuild(): after arbitrary structural CFG edits — reconciles the DAIG
///    with the CFG in place. Only the locations whose construction inputs
///    changed, widened to the outermost loops around them, are rebuilt;
///    every other cell keeps its name, value and degraded mark, and loops
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
#include "daig/memo_table.h"
#include "daig/name.h"
#include "domain/abstract_domain.h"
#include "support/budget.h"
#include "support/fault_injection.h"
#include "support/observe.h"
#include "support/statistics.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <variant>

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
    Name N;
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
  /// resolve Call statements by demanding callee summaries.
  using TransferFn = std::function<Elem(const Stmt &, const Elem &)>;
  /// Invalidation callback: fired for every cell emptied by an edit, letting
  /// the engine propagate dirtying across function DAIGs.
  using EmptiedFn = std::function<void(Name)>;

  /// Test access to internals (tests/daig_reconcile_test.cpp).
  friend struct DaigTestPeer;

  /// Reference cell types (Fig. 6): τ ∈ {Stmt, Σ♯}.
  enum class CellType : uint8_t { StmtTy, StateTy };

  /// A computation edge n ← f(n1, ..., nk): the function and its sources
  /// in argument order (a transfer reads its statement cell first).
  struct Comp {
    FnKind F;
    std::vector<Name> Srcs;

    bool operator==(const Comp &O) const { return F == O.F && Srcs == O.Srcs; }
  };

  /// One reference cell and everything the DAIG keeps about it: its
  /// contents, the computation that defines it (at most one, Definition
  /// 4.1) and the computations that read it. An edit changes one record;
  /// auditInvariants checks that each cell's computation and its sources'
  /// dependent lists agree.
  struct Cell {
    CellType T = CellType::StateTy;
    /// A statement cell's statement or a state cell's (non-null) value;
    /// empty while a state cell is unfilled.
    std::optional<std::variant<Stmt, ElemPtr>> V;
    /// The defining computation; none for statement cells and the entry
    /// cell.
    std::optional<Comp> Def;
    /// Destinations of the computations reading this cell, in Name order
    /// and without repeats: the order dirtying visits them in.
    std::vector<Name> Deps;
    /// The epoch of the last dirtying or rollback walk that visited it.
    uint64_t Seen = 0;

    bool hasValue() const { return V.has_value(); }
    const Stmt &stmt() const { return std::get<Stmt>(*V); }
    const ElemPtr &value() const { return std::get<ElemPtr>(*V); }
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
  // Names of interest
  //===--------------------------------------------------------------------===//

  /// The cell holding queryLocation(exit)'s answer. No loop encloses the
  /// exit, so the name needs no enclosing fixed point.
  Name exitCellName() const {
    return answerCellName(G->exit(), [](Name) { return false; });
  }

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
    Name N = answerCellName(L, [&](Name Fix) {
      ElemPtr FV = queryState(Fix);
      if (!cellDegraded(Fix))
        return false;
      // The enclosing fixpoint was ⊤-degraded by a budget: its iterate
      // cells are intermediate (pre-convergence) states, NOT sound final
      // answers for body locations. The degraded fix value (⊤) is the
      // only sound answer for anything inside the loop.
      budgetState().TaintPending = true;
      DegradedFix = std::move(FV);
      return true;
    });
    return DegradedFix ? *DegradedFix : *queryState(N);
  }

  /// Demands every reachable location (the eager, incremental-only mode).
  void queryAllLocations() {
    for (Loc L : Info->Rpo)
      (void)queryLocation(L);
  }

  /// Low-level query by cell name (Fig. 8 semantics), plus the resource
  /// governance of support/budget.h: the demand-miss path is the analysis's
  /// unit of work, so it checkpoints the budget (which may throw
  /// AnalysisCancelled — before any mutation, so unwinding is clean),
  /// resolves to ⊤ under hard exhaustion, and tracks degraded provenance
  /// through a per-evaluation taint frame. Returns the cell's shared value.
  ///
  /// The cell's record is read in place throughout: a query adds cells
  /// (unrolling) but removes none, and a node-based map keeps references
  /// across rehashing.
  ElemPtr queryState(Name N) {
    auto It = Cells.find(N);
    assert(It != Cells.end() && "query for a name outside the DAIG");
    Cell &C = It->second;
    assert(C.T == CellType::StateTy && "queryState on a Stmt cell");
    if (C.hasValue()) {
      if (Stats)
        ++Stats->CellReuses; // Q-Reuse
      bool Deg = !Degraded.empty() && Degraded.count(N);
      if (Deg)
        budgetState().TaintPending = true; // consumer inherits the flag
      if (Prov)
        provEnter(N, C, Deg ? DemandOutcome::DegradedReuse
                            : DemandOutcome::Reused);
      return C.value();
    }
    ProvFrame PF(*this, N, C);
    TraceSpan Sp("daig.cell_eval", N.id());
    budgetCheckpoint("DAIG cell evaluation");
    DAI_FAULT_POINT(CellEval);
    if (budgetExhausted())
      return degradeToTop(N, C);
    assert(C.Def && "empty cell without a computation (wf condition 5)");
    BudgetTaintScope Taint;
    ElemPtr Result;
    if (C.Def->F == FnKind::Fix) {
      Result = queryFix(N, C); // stores internally
    } else {
      Result = evaluateComp(*C.Def);
      store(C, Result);
    }
    if (Taint.consumed())
      markDegraded(N);
    return Result;
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

  /// In-place statement replacement on edge \p Id: updates the CFG and the
  /// statement cell, then dirties forward. Structural shape is unchanged.
  bool applyStatementEdit(EdgeId Id, Stmt NewStmt) {
    const CfgEdge *E = G->findEdge(Id);
    if (!E)
      return false;
    Name SC = stmtCellName(Id);
    auto It = Cells.find(SC);
    assert(It != Cells.end() && "statement cell missing for live edge");
    if (It->second.stmt() == NewStmt)
      return true; // no-op edit
    G->replaceStmt(Id, NewStmt);
    It->second.V = std::move(NewStmt);
    dirtyDependentsOf(SC);
    return true;
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
  /// changed location keep their unrollings, and a rebuilt cell whose name
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
    Name N = stateCellName(G->entry(), {});
    auto It = Cells.find(N);
    assert(It != Cells.end() && "entry cell must exist");
    It->second.V = EntryValue;
    ++Fills;
    Degraded.erase(N); // a fresh entry value clears entry provenance
    dirtyDependentsOf(N);
  }

  /// Marks the entry cell degraded (interprocedural engine: the entry was
  /// coarsened by a budget-tightened widening, so everything computed from
  /// it carries degraded provenance via the taint frames).
  void markEntryDegraded() { markDegraded(stateCellName(G->entry(), {})); }

  /// Current entry abstract state.
  const Elem &entryValue() const { return *EntryValue; }

  /// Dirties every cell computed from edge \p Id's statement (used by the
  /// engine when a callee summary feeding this edge changes).
  void invalidateEdgeOutputs(EdgeId Id) { dirtyDependentsOf(stmtCellName(Id)); }

  //===--------------------------------------------------------------------===//
  // Introspection (tests, statistics, debugging)
  //===--------------------------------------------------------------------===//

  size_t cellCount() const { return Cells.size(); }
  /// The cells that have a defining computation.
  size_t compCount() const {
    return std::ranges::count_if(
        Cells, [](const auto &NC) { return NC.second.Def.has_value(); });
  }
  size_t unrolledLoopCount() const {
    size_t N = 0;
    for (const auto &[Fix, K] : Loops)
      if (K > 1)
        ++N;
    return N;
  }

  bool hasCell(Name N) const { return Cells.count(N) != 0; }
  bool cellHasValue(Name N) const {
    auto It = Cells.find(N);
    return It != Cells.end() && It->second.hasValue();
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
    return cellHasValue(answerCellName(L, [&](Name Fix) {
      return !cellHasValue(Fix) || cellDegraded(Fix);
    }));
  }

  /// Abstract-state cells filled so far: evaluations, memo hits and ⊤
  /// substitutions (all made by queries) plus updateEntry. Monotone and
  /// kept across rebuilds, so a client that reads the same count at two
  /// points knows no cell was refilled in between.
  uint64_t stateFills() const { return Fills; }

  //===--------------------------------------------------------------------===//
  // Degraded provenance (support/budget.h)
  //===--------------------------------------------------------------------===//

  /// True when cell \p N holds a budget-degraded value (⊤-substituted, or
  /// computed from a degraded input).
  bool cellDegraded(Name N) const {
    return !Degraded.empty() && Degraded.count(N) != 0;
  }

  /// True when the answer queryLocation(\p L) returns carries degraded
  /// provenance. Meaningful once \p L has been demanded: the flags are
  /// recorded during evaluation.
  bool locationDegraded(Loc L) const {
    if (Degraded.empty() || !Info->reachable(L))
      return false;
    // queryLocation answers with the first degraded enclosing fix value.
    return cellDegraded(
        answerCellName(L, [&](Name Fix) { return cellDegraded(Fix); }));
  }

  size_t degradedCellCount() const { return Degraded.size(); }

  /// Empties every degraded cell (and its transitive dependents), clearing
  /// all provenance marks — re-demanding afterwards, outside the exhausted
  /// budget, restores full precision. Returns the number of cells that
  /// carried marks.
  size_t invalidateDegraded() {
    if (Degraded.empty())
      return 0;
    size_t Count = Degraded.size();
    Name Entry = stateCellName(G->entry(), {});
    std::vector<Name> Work;
    for (const Name &N : Degraded) {
      if (N == Entry) {
        // The entry cell always holds φ0 and has no computation; dirty its
        // consumers instead (the engine re-refreshes coarsened entries).
        const std::vector<Name> &Deps = Cells.at(N).Deps;
        Work.insert(Work.end(), Deps.begin(), Deps.end());
        continue;
      }
      Work.push_back(N);
    }
    propagateDirty(Work); // also erases each emptied cell's mark
    Degraded.clear();     // incl. the (unemptied) entry mark
    return Count;
  }

  /// Structural self-audit beyond Definition 4.1: checkWellFormed plus
  /// agreement of computations and dependent lists, loop-instance metadata
  /// sanity, names that fit the pinned snapshot, and degraded-set honesty.
  /// Cheap (no domain operations) — safe to run on a mid-cancelled DAIG.
  /// Returns "" when clean.
  std::string auditInvariants() const {
    std::string W = checkWellFormed();
    if (!W.empty())
      return W;
    // Each computation's sources list it as a dependent; each dependent's
    // computation lists its source; dependent lists are in Name order
    // without repeats. (checkWellFormed has found every source.)
    for (const auto &[N, C] : Cells) {
      if (C.Def)
        for (const Name &S : C.Def->Srcs) {
          const std::vector<Name> &SDeps = Cells.at(S).Deps;
          if (!std::binary_search(SDeps.begin(), SDeps.end(), N))
            return "missing dependent edge " + S.toString() + " → " +
                   N.toString();
        }
      for (size_t I = 0; I < C.Deps.size(); ++I) {
        const Name &Dest = C.Deps[I];
        if (I > 0 && !(C.Deps[I - 1] < Dest))
          return "dependents of " + N.toString() +
                 " out of Name order or repeated";
        auto DIt = Cells.find(Dest);
        if (DIt == Cells.end() || !DIt->second.Def)
          return "dangling dependent " + Dest.toString() + " of " +
                 N.toString();
        const std::vector<Name> &Srcs = DIt->second.Def->Srcs;
        if (std::find(Srcs.begin(), Srcs.end(), N) == Srcs.end())
          return "dependent " + Dest.toString() +
                 " does not list source " + N.toString();
      }
    }
    // Loop instances: each fix cell's computation is the fix edge over its
    // own iterates K−1 and K.
    for (const auto &[FixDest, K] : Loops) {
      auto CIt = Cells.find(FixDest);
      if (CIt == Cells.end() || !CIt->second.Def ||
          CIt->second.Def->F != FnKind::Fix)
        return "loop instance without a fix edge: " + FixDest.toString();
      if (CIt->second.Def->Srcs != std::vector<Name>{Name::iter(FixDest, K - 1),
                                                     Name::iter(FixDest, K)})
        return "fix sources disagree with the instance's count: " +
               FixDest.toString();
    }
    // Names fit the snapshot: a state-like cell names a reachable location
    // with one count per enclosing loop (one fewer for a head's fix cell),
    // so no cell a structural edit should have removed survives it.
    for (const auto &[N, C] : Cells) {
      Loc L;
      std::vector<uint32_t> Counts;
      if (!decodeCellState(N, L, Counts))
        continue;
      if (!Info->reachable(L))
        return "cell of an unreachable location: " + N.toString();
      size_t Depth = Info->loopDepth(L);
      if (Counts.size() != Depth &&
          !(Info->isLoopHead(L) && Counts.size() + 1 == Depth))
        return "cell name disagrees with its loop nest: " + N.toString();
    }
    // Degraded honesty: every mark names a live, filled state cell (marks
    // are erased whenever a cell is emptied or removed).
    for (const Name &N : Degraded) {
      auto It = Cells.find(N);
      if (It == Cells.end())
        return "degraded mark on a missing cell: " + N.toString();
      if (It->second.T != CellType::StateTy || !It->second.hasValue())
        return "degraded mark on an empty/statement cell: " + N.toString();
    }
    return "";
  }

  /// Name of the statement cell for edge \p Id (depends on join indexing).
  Name stmtCellName(EdgeId Id) const {
    const CfgEdge *E = G->findEdge(Id);
    assert(E && "no such edge");
    return stmtName(E->Src, E->Dst, Info->fwdIndexOf(*G, Id),
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

  /// Every cell, by name. Node-based: a reference to a record stays valid
  /// until that record is erased, across any insertions.
  std::unordered_map<Name, Cell, NameHash> Cells;
  /// Cells holding budget-degraded values (support/budget.h): ⊤-substituted
  /// on hard exhaustion, or computed from a degraded input (taint). Marks
  /// are erased whenever the cell is emptied or removed — a mark always
  /// describes the value currently stored.
  std::unordered_set<Name, NameHash> Degraded;

  /// Every loop instance: its fix cell, whose name is the head under the
  /// enclosing counts, and K, the instance's fix edge reading iterates
  /// (K−1, K); K = 1 initially.
  std::unordered_map<Name, uint32_t, NameHash> Loops;

  /// stateFills(). The count spans rebuilds: a rebuilt entry cell is
  /// refilled with the unchanged φ0 and not counted.
  uint64_t Fills = 0;

  /// The last walk's epoch (Cell::Seen): each dirtying and each rollback
  /// walk takes the next one, so no walk clears another's marks.
  uint64_t Epoch = 0;

  //===--------------------------------------------------------------------===//
  // Naming
  //===--------------------------------------------------------------------===//

  // An iteration context is one count per enclosing loop, outermost first
  // in CfgInfo::loopNest order; a count the context lacks reads as 0.

  /// \p L wrapped by the first \p Depth counts of \p Ctx, outermost
  /// first: the n^(i) of Fig. 6.
  static Name countedName(Loc L, size_t Depth, std::span<const uint32_t> Ctx) {
    Name N = Name::loc(L);
    for (size_t I = 0; I < Depth; ++I)
      N = Name::iter(N, I < Ctx.size() ? Ctx[I] : 0u);
    return N;
  }

  /// State-cell name for \p L under context \p Ctx: one count per loop in
  /// its nest (for a loop head, the last is its own iterate index).
  Name stateCellName(Loc L, std::span<const uint32_t> Ctx) const {
    return countedName(L, Info->loopDepth(L), Ctx);
  }

  /// Fix-cell (fixed point) name for head \p H: the counts of strictly
  /// enclosing loops only, so that the instance's iterate k is
  /// Name::iter(fix cell, k).
  Name fixCellName(Loc H, std::span<const uint32_t> Ctx) const {
    return countedName(H, Info->loopDepth(H) - 1, Ctx);
  }

  /// Pre-join cell i·n for join input \p Idx at \p L.
  Name preJoinCellName(Loc L, std::span<const uint32_t> Ctx,
                       unsigned Idx) const {
    return Name::pair(Name::num(Idx), stateCellName(L, Ctx));
  }

  /// The one walk over \p L's loop nest, behind queryLocation,
  /// locationValueReady, locationDegraded and exitCellName. Outermost first,
  /// it names each enclosing loop's fix cell under the counts gathered so
  /// far and asks \p Stop whether to stop there; if not, it enters that
  /// instance's converged iteration, count K − 1. Returns the fix cell it
  /// stopped at, else the cell holding L's answer: a head's fix cell or L's
  /// state cell.
  template <typename StopFn>
  Name answerCellName(Loc L, StopFn &&Stop) const {
    std::span<const Loc> Nest = Info->loopNest(L);
    bool Head = Info->isLoopHead(L); // then its own loop ends the nest
    std::vector<uint32_t> Ctx;
    for (Loc H : Nest.first(Nest.size() - Head)) {
      Name Fix = fixCellName(H, Ctx);
      if (Stop(Fix))
        return Fix;
      Ctx.push_back(Loops.at(Fix) - 1);
    }
    return Head ? fixCellName(L, Ctx) : stateCellName(L, Ctx);
  }

  /// Decodes a state-like name into (location, counts). Returns false for
  /// product/statement names.
  static bool decodeState(Name N, Loc &L, std::vector<uint32_t> &Counts) {
    Counts.clear();
    Name Cur = N;
    while (Cur.valid() && Cur.kind() == Name::Kind::Iter) {
      Counts.push_back(Cur.iterCount());
      Cur = Cur.iterBase();
    }
    if (!Cur.valid() || Cur.kind() != Name::Kind::Loc)
      return false;
    std::reverse(Counts.begin(), Counts.end()); // outermost first
    L = Cur.locId();
    return true;
  }

  /// Extracts the "state part" of any cell name (pre-join and pre-widen
  /// names wrap state names). Returns false for statement cells.
  static bool decodeCellState(Name N, Loc &L,
                              std::vector<uint32_t> &Counts) {
    if (decodeState(N, L, Counts))
      return true;
    if (N.kind() == Name::Kind::Pair) {
      Name Left = N.left();
      if (Left.kind() == Name::Kind::Num)
        return decodeState(N.right(), L, Counts); // pre-join i·n
      if (Left.kind() == Name::Kind::Iter)
        return decodeState(Left, L, Counts); // pre-widen (it_k, it_{k+1})
    }
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Structure mutation helpers
  //===--------------------------------------------------------------------===//

  /// Builds state cell \p N, or keeps it (and its value) when it exists.
  void addStateCell(Name N) {
    Cells.try_emplace(N);
    if (Log)
      Log->Built.push_back(N);
  }

  /// Builds statement cell \p N holding \p S; an existing cell with another
  /// statement takes \p S and is logged as changed.
  void addStmtCell(Name N, const Stmt &S) {
    Cell &C = Cells[N];
    if (!C.hasValue()) {
      C.T = CellType::StmtTy;
      C.V = S;
    } else if (!(C.stmt() == S)) {
      C.V = S;
      if (Log)
        Log->Changed.push_back(N);
    }
    if (Log)
      Log->Built.push_back(N);
  }

  /// Sets the computation of the built cell \p Dest; a no-op when it is
  /// already exactly that. Construction links a location's sources built
  /// or not, so linking creates a missing source's record, which
  /// addStateCell then finds.
  void addComp(Name Dest, FnKind F, std::vector<Name> Srcs) {
    auto It = Cells.find(Dest);
    assert(It != Cells.end() && "computation into a missing cell");
    std::optional<Comp> &Def = It->second.Def;
    if (Def) {
      if (Def->F == F && Def->Srcs == Srcs)
        return;
      unlinkSources(Dest, Def->Srcs);
    }
    if (Log)
      Log->Changed.push_back(Dest);
    for (Name S : Srcs) {
      std::vector<Name> &Deps = Cells[S].Deps;
      auto P = std::lower_bound(Deps.begin(), Deps.end(), Dest);
      if (P == Deps.end() || !(*P == Dest))
        Deps.insert(P, Dest);
    }
    Def = Comp{F, std::move(Srcs)};
  }

  /// Drops \p Dest from the dependent lists of those of \p Srcs that still
  /// exist.
  void unlinkSources(Name Dest, const std::vector<Name> &Srcs) {
    for (Name S : Srcs) {
      auto SIt = Cells.find(S);
      if (SIt == Cells.end())
        continue;
      std::vector<Name> &Deps = SIt->second.Deps;
      auto P = std::lower_bound(Deps.begin(), Deps.end(), Dest);
      if (P != Deps.end() && *P == Dest)
        Deps.erase(P);
    }
  }

  /// Removes cell \p N with its computation. Its dependents must go too, or
  /// be re-linked, as rollback and reconcile do.
  void removeCell(Name N) {
    auto It = Cells.find(N);
    if (It == Cells.end())
      return;
    if (It->second.Def)
      unlinkSources(N, It->second.Def->Srcs);
    Cells.erase(It);
    Loops.erase(N);
    if (!Degraded.empty())
      Degraded.erase(N);
  }

  //===--------------------------------------------------------------------===//
  // Construction (Definition A.2, generalized to nested loops)
  //===--------------------------------------------------------------------===//

  void construct() {
    Cells.clear();
    Loops.clear();
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
      Name N = stateCellName(L, Ctx);
      Cell &C = Cells[N];
      if (!C.hasValue())
        C.V = EntryValue;
      if (Log)
        Log->Built.push_back(N);
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

  /// Statement-cell name of the edge Src→Dst: plain for a back edge (\p Idx
  /// 0) or a destination's only forward edge, else i·(ℓ·ℓ′) for its 1-based
  /// fwd-edges-to index i = \p Idx among \p InDegree forward in-edges.
  static Name stmtName(Loc Src, Loc Dst, unsigned Idx, size_t InDegree) {
    Name Plain = Name::pair(Name::loc(Src), Name::loc(Dst));
    return Idx == 0 || InDegree < 2 ? Plain : Name::pair(Name::num(Idx), Plain);
  }

  /// Builds the state cell for \p L under \p Ctx plus the transfer (and, at
  /// join points, pre-join and join) computations over its forward in-edges.
  void buildEdgesInto(Loc L, std::span<const uint32_t> Ctx) {
    Name Dest = stateCellName(L, Ctx);
    addStateCell(Dest);
    std::span<const EdgeId> Ids = Info->fwdEdgesTo(L);
    if (Ids.empty())
      return; // head reachable only through its back edge: entry via loop
    if (Ids.size() == 1) {
      const CfgEdge *E = G->findEdge(Ids[0]);
      Name SC = stmtName(E->Src, L, 1, 1);
      addStmtCell(SC, E->Label);
      addComp(Dest, FnKind::Transfer, {SC, srcStateName(E->Src, L, Ctx)});
      return;
    }
    std::vector<Name> PreJoins;
    for (unsigned I = 0; I < Ids.size(); ++I) {
      const CfgEdge *E = G->findEdge(Ids[I]);
      Name SC = stmtName(E->Src, L, I + 1, Ids.size());
      addStmtCell(SC, E->Label);
      Name PJ = preJoinCellName(L, Ctx, I + 1);
      addStateCell(PJ);
      addComp(PJ, FnKind::Transfer, {SC, srcStateName(E->Src, L, Ctx)});
      PreJoins.push_back(PJ);
    }
    addComp(Dest, FnKind::Join, std::move(PreJoins));
  }

  /// Source cell for the edge Src→DstLoc: a loop head's *fixed point* when
  /// the edge leaves its loop, else the head's current iterate / the plain
  /// state cell (footnote 5 of the paper).
  Name srcStateName(Loc Src, Loc DstLoc,
                    std::span<const uint32_t> Ctx) const {
    if (Info->isLoopHead(Src) && !Info->inLoop(Src, DstLoc))
      return fixCellName(Src, Ctx);
    return stateCellName(Src, Ctx);
  }

  /// Builds the loop headed at \p L under the enclosing counts \p Ctx (one
  /// per enclosing loop): iterations 0 … K−1 and the fix edge over iterates
  /// (K−1, K), where K is the live instance's count (1 for a new instance).
  /// Rebuilding a live instance therefore reproduces its unrollings cell
  /// for cell.
  void buildLoop(Loc L, std::vector<uint32_t> &Ctx) {
    Name FixDest = fixCellName(L, Ctx);
    auto LIt = Loops.find(FixDest);
    uint32_t K = LIt == Loops.end() ? 1u : LIt->second;
    std::pair<Name, Name> Its;
    for (uint32_t I = 0; I < K; ++I)
      Its = buildIteration(L, FixDest, Ctx, I);
    setFix(FixDest, K, Its);
  }

  /// Points the fix edge of the instance with fix cell \p FixDest at its
  /// iterates \p Its = (K−1, K) and records K.
  void setFix(Name FixDest, uint32_t K, const std::pair<Name, Name> &Its) {
    addStateCell(FixDest);
    addComp(FixDest, FnKind::Fix, {Its.first, Its.second});
    Loops[FixDest] = K;
  }

  /// Builds abstract iteration \p I of the instance with fix cell \p Fix,
  /// headed at \p L under the enclosing counts \p Ctx: the body cells under
  /// count I (nested loops through buildLoop), the back-edge transfer into
  /// the pre-widen cell and the widen into iterate I+1. Returns iterates
  /// (I, I+1); the caller points the fix edge. Idempotent per (Fix, I).
  std::pair<Name, Name> buildIteration(Loc L, Name Fix,
                                       std::vector<uint32_t> &Ctx,
                                       uint32_t I) {
    assert(Ctx.size() + 1 == Info->loopDepth(L) && "one count per loop");
    Name ItI = Name::iter(Fix, I);
    addStateCell(ItI);
    Name ItNext = Name::iter(Fix, I + 1);
    addStateCell(ItNext);
    Name PreWiden = Name::pair(ItI, ItNext);
    addStateCell(PreWiden);
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
    Name SC = stmtName(Back->Src, L, 0, 1);
    addStmtCell(SC, Back->Label);
    addComp(PreWiden, FnKind::Transfer, {SC, stateCellName(Back->Src, Ctx)});
    Ctx.pop_back();
    return {ItI, ItNext};
  }

  //===--------------------------------------------------------------------===//
  // Query evaluation
  //===--------------------------------------------------------------------===//

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

  /// Records a node for \p N under the current frame (or as a root) and
  /// returns its index. Caller has checked Prov.
  size_t provEnter(Name N, const Cell &C, DemandOutcome O) {
    size_t Idx = Prov->T.Nodes.size();
    typename DemandTree::Node Nd;
    Nd.N = N;
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
    ProvFrame(Daig &G, Name N, const Cell &C) : P(G.Prov) {
      if (!P)
        return;
      P->Stack.push_back(G.provEnter(N, C, DemandOutcome::Evaluated));
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

  /// Wraps a freshly computed value for sharing (a move, not a copy).
  static ElemPtr share(Elem V) {
    return std::make_shared<const Elem>(std::move(V));
  }

  void store(Cell &C, ElemPtr V) {
    assert(V && "storing an empty handle");
    C.V = std::move(V);
    ++Fills;
  }

  void markDegraded(Name N) {
    if (Degraded.insert(N).second) {
      recordDegradedCell();
      if (Stats)
        ++Stats->CellsDegraded;
    }
  }

  /// Hard budget exhaustion: resolve cell \p N to ⊤ — D::initialEntry({})
  /// over-approximates every reachable state of every variable, so the
  /// substitution is sound — mark it degraded, and taint the consuming
  /// evaluation. No memo store: the value was never computed.
  ElemPtr degradeToTop(Name N, Cell &C) {
    ElemPtr Top = share(D::initialEntry({}));
    store(C, Top);
    markDegraded(N);
    budgetState().TaintPending = true;
    provMarkTop(DemandOutcome::TopBudget);
    traceInstant("daig.degrade_top", N.id());
    return Top;
  }

  const Stmt &stmtOf(Name N) const {
    auto It = Cells.find(N);
    assert(It != Cells.end() && It->second.T == CellType::StmtTy &&
           "transfer source 0 must be a statement cell");
    return It->second.stmt();
  }

  /// Q-Loop-Converge / Q-Loop-Unroll, bounded: every iteration checkpoints
  /// the budget, a hard-exhausted budget degrades the fixpoint to ⊤, and
  /// an un-budgeted loop that outruns the iteration ceiling (a widening
  /// that does not stabilize) throws AnalysisDivergence instead of hanging.
  ElemPtr queryFix(Name N, Cell &C) {
    const AnalysisLimits &Limits = analysisLimits();
    uint64_t Iter = 0;
    for (;;) {
      TraceSpan Sp("daig.fix_iter", N.id(), Iter);
      budgetCheckpoint("DAIG fix iteration");
      DAI_FAULT_POINT(Fix);
      if (budgetExhausted())
        return degradeToTop(N, C);
      // Unrolling rewrites the fix edge: read its iterates first.
      Name Prev = C.Def->Srcs[0], Next = C.Def->Srcs[1];
      ElemPtr V1 = queryState(Prev);
      ElemPtr V2 = queryState(Next);
      if (Stats)
        ++Stats->FixChecks;
      if (D::equal(*V1, *V2)) {
        store(C, V1); // the fix cell shares its converged iterate
        return V1;
      }
      uint64_t Ceiling = budgetDegraded()
                             ? std::min(Limits.MaxFixUnrollings,
                                        Limits.DegradedFixUnrollings)
                             : Limits.MaxFixUnrollings;
      if (++Iter >= Ceiling) {
        if (budgetActive())
          return degradeToTop(N, C); // budgeted: degrade, don't diagnose
        throw AnalysisDivergence("fix cell " + N.toString(), Iter);
      }
      if (Stats)
        ++Stats->Unrollings;
      unrollLoop(N);
    }
  }

  /// Demanded unrolling: builds the next abstract iteration and slides the
  /// fix edge forward (the unroll helper of Section 5.2).
  void unrollLoop(Name FixDest) {
    uint32_t K = Loops.at(FixDest);
    Loc L = InvalidLoc;
    std::vector<uint32_t> Ctx; // the fix cell's name: head, enclosing counts
    decodeState(FixDest, L, Ctx);
    std::pair<Name, Name> Its = buildIteration(L, FixDest, Ctx, K);
    setFix(FixDest, K + 1, Its);
  }

  /// Q-Match / Q-Miss evaluation of a non-fix computation. Inputs are read
  /// through their cells' shared handles; a memo hit returns the stored
  /// handle, and a miss wraps the one value the domain operation builds and
  /// hands that handle to both the memo table and the caller (which stores
  /// it in the destination cell). No path copies an abstract state, and
  /// \p C and the statement it reads are read in place: no edit runs during
  /// a query, and the call hook never re-enters this DAIG (the call graph
  /// rejects recursion).
  ///
  /// Memo keys embed D::hash(In), and a hit returns the stored value as-is,
  /// so correctness requires hash() to be a pure function of the value and
  /// equal() to be reflexive on copies (pinned per-domain by the registry
  /// conformance suite). For the type-erased AnyDomain, hash() is
  /// additionally type-tagged with the domain's registry key: values of
  /// different concrete domains can never collide into one memo key, and
  /// because the tag remap is injective per domain, a mixed-domain run
  /// preserves each domain's Q-Match hit/miss pattern exactly.
  ElemPtr evaluateComp(const Comp &C) {
    switch (C.F) {
    case FnKind::Transfer: {
      const Stmt &S = stmtOf(C.Srcs[0]);
      ElemPtr In = queryState(C.Srcs[1]);
      bool IsCall = S.Kind == StmtKind::Call;
      // Memo keys cost hashing: build one only when a memo table will
      // read it (never for calls, whose hook is the summary).
      MemoKey Key;
      if (Memo && !IsCall) {
        Key = {FnKind::Transfer, {S.hash(), D::hash(*In)}};
        if (ElemPtr Hit = Memo->lookup(Key)) {
          provMarkTop(DemandOutcome::MemoHit);
          return Hit;
        }
      }
      if (Stats)
        ++Stats->Transfers;
      ElemPtr Out =
          share((IsCall && Hook) ? Hook(S, *In) : D::transfer(S, *In));
      if (Memo && !IsCall)
        Memo->store(std::move(Key), Out);
      return Out;
    }
    case FnKind::Join: {
      std::vector<ElemPtr> Ins;
      Ins.reserve(C.Srcs.size());
      for (Name S : C.Srcs)
        Ins.push_back(queryState(S));
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
      ElemPtr Prev = queryState(C.Srcs[0]);
      ElemPtr Next = queryState(C.Srcs[1]);
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

  void dirtyDependentsOf(Name N) {
    auto It = Cells.find(N);
    if (It == Cells.end())
      return;
    std::vector<Name> Work = It->second.Deps;
    propagateDirty(Work);
  }

  /// E-Propagate with the E-Loop special case: empties the state cells in
  /// \p Work and every cell reachable forward from them, rolling a loop back
  /// before emptying its first iterate. A cell reached along several paths
  /// is visited once: the walk stamps the cells it visits with a fresh
  /// epoch.
  void propagateDirty(std::vector<Name> &Work) {
    uint64_t Walk = ++Epoch;
    while (!Work.empty()) {
      Name N = Work.back();
      Work.pop_back();
      auto It = Cells.find(N);
      if (It == Cells.end())
        continue; // deleted by a rollback while enqueued
      Cell &C = It->second;
      if (C.Seen == Walk || C.T == CellType::StmtTy)
        continue; // statements are never dirtied by propagation
      C.Seen = Walk;
      maybeRollbackAt(N); // deletes other cells only
      if (C.hasValue()) {
        C.V.reset();
        if (!Degraded.empty())
          Degraded.erase(N); // an emptied cell carries no provenance
        if (Stats)
          ++Stats->CellsDirtied;
        if (OnCellEmptied)
          OnCellEmptied(N);
      }
      Work.insert(Work.end(), C.Deps.begin(), C.Deps.end());
    }
  }

  /// If \p N is the first iterate of an unrolled loop instance, deletes the
  /// unrolled iterations (≥ 1) and resets the fix edge to (0, 1).
  void maybeRollbackAt(Name N) {
    // Iterate k of a head is its fix-cell name wrapped by the count k.
    if (N.kind() != Name::Kind::Iter || N.iterCount() != 1)
      return;
    auto LIt = Loops.find(N.iterBase());
    if (LIt == Loops.end() || LIt->second <= 1)
      return;
    rollbackLoop(LIt->first, LIt->second, N);
  }

  /// Deletes the unrolled region of the instance with fix cell \p FixDest
  /// and resets its fix computation to iterates (0, 1). The region is every
  /// cell reachable forward from iterate 1 (\p It1) short of the fix cell:
  /// the later iterates and their pre-widen cells, and the body cells of
  /// iterations ≥ 1 with the nested instances among them. Cells after the
  /// loop read its fix cell, not an iterate, so nothing else is reached.
  /// Iterate 1 survives; the caller empties it. The walk has its own epoch
  /// because the enclosing propagation may have stamped region cells.
  void rollbackLoop(Name FixDest, uint32_t &K, Name It1) {
    const Cell &First = Cells.at(It1);
    Name It0 = First.Def->Srcs[0]; // iterate 1 ← ∇(iterate 0, pre-widen)
    uint64_t Walk = ++Epoch;
    std::vector<Name> Work = First.Deps, Region;
    while (!Work.empty()) {
      Name N = Work.back();
      Work.pop_back();
      if (N == FixDest)
        continue;
      Cell &C = Cells.at(N);
      if (C.Seen == Walk)
        continue;
      C.Seen = Walk;
      Region.push_back(N);
      Work.insert(Work.end(), C.Deps.begin(), C.Deps.end());
    }
    for (Name N : Region)
      removeCell(N);
    addComp(FixDest, FnKind::Fix, {It0, It1});
    K = 1;
  }

  //===--------------------------------------------------------------------===//
  // Reconciling with structural CFG edits (rebuild)
  //===--------------------------------------------------------------------===//

  /// What the builder records while rebuild() runs it (Log is null
  /// otherwise): every cell name it builds, and the cells whose computation
  /// or statement it changed.
  struct ReconcileLog {
    std::vector<Name> Built; ///< In build order; may repeat a name.
    std::vector<Name> Changed;
  };
  ReconcileLog *Log = nullptr;

  /// Statement replacements the CFG has seen (replaceStmt bumps version()
  /// but not structuralVersion()). When this still equals LabelEdits, no
  /// label changed behind the DAIG's back and the diff skips label checks.
  uint64_t labelEditCount() const {
    return G->version() - G->structuralVersion();
  }
  uint64_t LabelEdits = 0; ///< labelEditCount() when the DAIG last matched.

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
      std::vector<Name> Work;
      for (const auto &[N, C] : Cells)
        if (C.T == CellType::StateTy && C.hasValue())
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
    auto Check = [&](Loc X) {
      if (InRegion[X] || !locationChanged(*New, X, Labels))
        return;
      Changed.push_back(X);
      Add(X);
      for (Loc H : Old.loopNest(X))
        RollBack[H] = 1; // this loop's old body holds a changed location
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
    std::vector<Name> Seeds, Retired;
    Loc H = InvalidLoc;
    std::vector<uint32_t> Counts;
    for (const auto &[FixDest, K] : Loops) {
      decodeState(FixDest, H, Counts); // the fix cell names its head
      if (!RollBack[H])
        continue;
      Retired.push_back(FixDest);
      if (K > 1)
        Seeds.push_back(Name::iter(FixDest, 1)); // iterate 1
    }
    if (!Seeds.empty()) {
      std::sort(Seeds.begin(), Seeds.end()); // Loops' order is incidental
      propagateDirty(Seeds);
    }
    for (Name FixDest : Retired)
      Loops.erase(FixDest);

    // 3. The changed locations' cells under the old snapshot: candidates
    //    for removal (an unchanged location keeps every name it had).
    std::vector<Name> OldCells;
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
    auto ById = [](Name A, Name B) { return A.id() < B.id(); };
    std::sort(Rec.Built.begin(), Rec.Built.end(), ById);
    Rec.Built.erase(std::unique(Rec.Built.begin(), Rec.Built.end()),
                    Rec.Built.end());
    if (Stats)
      Stats->CellsRebuilt += Rec.Built.size();

    // 5. Empty what changed or disappeared, dirtying forward, then drop the
    //    cells the new graph no longer has.
    std::vector<Name> Dirty, Gone;
    for (Name N : Rec.Changed) {
      auto It = Cells.find(N);
      if (It == Cells.end() || !It->second.hasValue())
        continue; // an empty cell has no filled dependents to dirty
      if (It->second.T == CellType::StateTy) {
        Dirty.push_back(N);
        continue;
      }
      // A new statement: dirty its readers.
      Dirty.insert(Dirty.end(), It->second.Deps.begin(), It->second.Deps.end());
    }
    for (Name N : OldCells)
      if (!std::binary_search(Rec.Built.begin(), Rec.Built.end(), N, ById) &&
          Cells.count(N)) {
        Gone.push_back(N);
        Dirty.push_back(N);
      }
    propagateDirty(Dirty);
    for (Name N : Gone)
      removeCell(N);
  }

  /// True when a construction input of location \p X differs between the
  /// pinned snapshot (with this DAIG's statement cells as its labels) and
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
  /// whose cells are named differently (its loop nest), or, when \p Labels,
  /// a statement other than the one in this DAIG's statement cell. Whether
  /// the edge leaves its source's loop (srcStateName's choice) can change
  /// only with X's nest, which the caller has compared.
  bool edgeChanged(const CfgInfo &New, EdgeId Id, Loc X, unsigned Idx,
                   size_t InDegree, bool Labels) const {
    const CfgInfo &Old = *Info;
    Loc S = Old.edgeSrc(Id);
    if (S != New.edgeSrc(Id) ||
        !std::ranges::equal(Old.loopNest(S), New.loopNest(S)))
      return true;
    if (!Labels)
      return false;
    auto It = Cells.find(stmtName(S, X, Idx, InDegree));
    return It == Cells.end() ||
           !(It->second.stmt() == G->findEdge(Id)->Label);
  }

  /// Appends the cells construction gives location \p X at the all-zero
  /// context of the pinned snapshot: its state cell (a head's entry
  /// iterate), the statement and pre-join cells of its forward in-edges,
  /// and for a head iterate 1, the pre-widen cell, the fix cell and the
  /// back-edge statement cell. After the rollback in reconcile these are
  /// all the cells a changed location has; a location that did not change
  /// keeps its names, so none of its cells can disappear.
  void zeroContextCellsOf(Loc X, std::vector<Name> &Out) const {
    if (!Info->reachable(X))
      return;
    Name S = stateCellName(X, {});
    Out.push_back(S);
    std::span<const EdgeId> Ids = Info->fwdEdgesTo(X);
    for (unsigned I = 0; I < Ids.size(); ++I) {
      Out.push_back(stmtName(Info->edgeSrc(Ids[I]), X, I + 1, Ids.size()));
      if (Ids.size() >= 2)
        Out.push_back(preJoinCellName(X, {}, I + 1));
    }
    if (Info->isLoopHead(X)) {
      Name Fix = S.iterBase(); // a head's state cell is its iterate 0
      Name It1 = Name::iter(Fix, 1);
      Out.push_back(It1);
      Out.push_back(Name::pair(S, It1));
      Out.push_back(Fix);
      Out.push_back(stmtName(Info->edgeSrc(Info->backEdgeOf(X)), X, 0, 1));
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
  // record per name, one computation per record. Validate the rest.
  for (const auto &[Dest, R] : Cells) {
    if (!R.Def) {
      // (5) empty references have dependencies.
      if (R.T == CellType::StateTy && !R.hasValue())
        return "empty cell without a computation: " + Dest.toString();
      if (R.T == CellType::StmtTy && !R.hasValue())
        return "statement cell without content: " + Dest.toString();
      continue;
    }
    const Comp &C = *R.Def;
    if (R.T != CellType::StateTy)
      return "computation writes a statement cell: " + Dest.toString();
    for (size_t I = 0; I < C.Srcs.size(); ++I) {
      auto SIt = Cells.find(C.Srcs[I]);
      if (SIt == Cells.end())
        return "computation source missing: " + C.Srcs[I].toString() +
               " (dest " + Dest.toString() + ")";
      // (4) typing: transfer source 0 is a statement; all others are states.
      bool ExpectStmt = (C.F == FnKind::Transfer && I == 0);
      if (ExpectStmt && SIt->second.T != CellType::StmtTy)
        return "transfer source 0 is not a statement: " + Dest.toString();
      if (!ExpectStmt && SIt->second.T != CellType::StateTy)
        return "state source is not a state cell: " + C.Srcs[I].toString();
      if (ExpectStmt && !SIt->second.hasValue())
        return "statement cell is empty: " + C.Srcs[I].toString();
    }
    if (C.F == FnKind::Fix && C.Srcs.size() != 2)
      return "fix edge without exactly two sources: " + Dest.toString();
    if (C.F == FnKind::Widen && C.Srcs.size() != 2)
      return "widen edge without exactly two sources: " + Dest.toString();
  }
  // (3) acyclicity via Kahn's algorithm over computation edges.
  std::unordered_map<Name, unsigned, NameHash> InDeg;
  std::vector<Name> Ready;
  for (const auto &[N, R] : Cells) {
    if (R.Def)
      InDeg[N] = static_cast<unsigned>(R.Def->Srcs.size());
    else
      Ready.push_back(N);
  }
  size_t Processed = Ready.size();
  while (!Ready.empty()) {
    Name N = Ready.back();
    Ready.pop_back();
    for (Name Dep : Cells.at(N).Deps) {
      auto IIt = InDeg.find(Dep);
      if (IIt == InDeg.end())
        continue;
      if (--IIt->second == 0) {
        Ready.push_back(Dep);
        ++Processed;
      }
    }
  }
  if (Processed != Cells.size())
    return "dependency cycle detected (acyclicity violated)";
  return "";
}

template <typename D>
  requires AbstractDomain<D>
std::string Daig<D>::checkAiConsistency() {
  auto valueOf = [&](Name S) -> const Elem & {
    return *Cells.at(S).value();
  };
  for (const auto &[N, C] : Cells) {
    if (C.T != CellType::StateTy || !C.hasValue())
      continue;
    if (!Degraded.empty() && Degraded.count(N))
      continue; // ⊤-substituted/tainted by a budget: deliberately not the
                // value its computation produces (sound by construction)
    if (!C.Def)
      continue; // φ0 cell
    const Comp &Comp = *C.Def;
    bool AllFilled = true;
    for (Name S : Comp.Srcs) {
      auto SIt = Cells.find(S);
      if (SIt == Cells.end() || !SIt->second.hasValue()) {
        AllFilled = false;
        break;
      }
    }
    if (!AllFilled)
      return "filled cell " + N.toString() + " depends on an empty cell";
    const Elem &Stored = *C.value();
    if (Comp.F == FnKind::Fix) {
      const Elem &V1 = valueOf(Comp.Srcs[0]);
      const Elem &V2 = valueOf(Comp.Srcs[1]);
      if (!D::equal(V1, V2) || !D::equal(Stored, V1))
        return "fix cell " + N.toString() + " inconsistent with its iterates";
      continue;
    }
    Elem Recomputed = [&] {
      switch (Comp.F) {
      case FnKind::Transfer: {
        const Stmt &S = Cells.at(Comp.Srcs[0]).stmt();
        const Elem &In = valueOf(Comp.Srcs[1]);
        return (S.Kind == StmtKind::Call && Hook) ? Hook(S, In)
                                                  : D::transfer(S, In);
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
      return "cell " + N.toString() + " disagrees with its computation";
  }
  return "";
}

} // namespace dai

#endif // DAI_DAIG_DAIG_H
