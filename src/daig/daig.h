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
/// Loop handling follows the paper's demanded-unrolling scheme, generalized
/// to nested loops via per-loop iteration counts in names (daig/name.h):
/// each loop instance carries a fix edge over its two greatest abstract
/// iterates; unrolling builds the next abstract iteration of the loop body
/// (resetting directly nested loops to their initial two iterates) and
/// slides the fix edge forward; dirtying an iterate rolls the fix edge back
/// to iterates (0, 1) and deletes the unrolled region (a semantically
/// equivalent, memory-friendlier variant of E-Loop; see docs/architecture.md,
/// "DAIG edits").
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
#include <map>
#include <optional>
#include <set>
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

  struct Cell {
    CellType T;
    std::optional<std::variant<Stmt, Elem>> V;

    bool hasValue() const { return V.has_value(); }
  };

  /// A computation edge n ← f(n1, ..., nk).
  struct Comp {
    FnKind F;
    std::vector<Name> Srcs;

    bool operator==(const Comp &O) const { return F == O.F && Srcs == O.Srcs; }
  };

  /// Note: the memo table counts its own hits/misses/evictions into the
  /// Statistics attached to IT (MemoTable::attachStatistics) — attachment
  /// is the table owner's decision, since the sink must outlive the table
  /// (dirtyEverything builds a short-lived temporary sharing the table).
  Daig(Cfg *G, Elem EntryValue, Statistics *Stats = nullptr,
       MemoTable<D> *Memo = nullptr)
      : G(G), EntryValue(std::move(EntryValue)), Stats(Stats), Memo(Memo) {
    construct();
  }

  void setTransferHook(TransferFn Fn) { Hook = std::move(Fn); }
  void setOnCellEmptied(EmptiedFn Fn) { OnCellEmptied = std::move(Fn); }

  const CfgInfo &info() const { return *Info; }
  bool valid() const { return Info->valid(); }

  //===--------------------------------------------------------------------===//
  // Names of interest
  //===--------------------------------------------------------------------===//

  /// The cell holding the final (post-fixed-point) abstract state at \p L.
  /// For loop heads this is the fix cell; for loop-body locations it is the
  /// body cell of the *converged* iteration, so it requires the enclosing
  /// fixed points to have been computed (queryLocation does this).
  Name exitCellName() const { return resultNameFor(G->exit()); }

  //===--------------------------------------------------------------------===//
  // Queries (Fig. 8)
  //===--------------------------------------------------------------------===//

  /// Demands the abstract state at location \p L, computing enclosing loop
  /// fixed points as needed. Returns ⊥ for unreachable locations.
  Elem queryLocation(Loc L) {
    if (L >= Info->Reachable.size() || !Info->Reachable[L])
      return D::bottom();
    CountCtx Ctx;
    for (Loc H : Info->LoopNestOf[L]) {
      if (H == L)
        break;
      Name FixDest = fixCellName(H, Ctx);
      Elem FV = queryState(FixDest);
      if (!Degraded.empty() && Degraded.count(FixDest)) {
        // The enclosing fixpoint was ⊤-degraded by a budget: its iterate
        // cells are intermediate (pre-convergence) states, NOT sound final
        // answers for body locations. The degraded fix value (⊤) is the
        // only sound answer for anything inside the loop.
        budgetState().TaintPending = true;
        return FV;
      }
      Ctx[H] = Loops.at(FixDest).K - 1;
    }
    if (Info->isLoopHead(L))
      return queryState(fixCellName(L, Ctx));
    return queryState(stateCellName(L, Ctx));
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
  /// through a per-evaluation taint frame.
  Elem queryState(Name N) {
    auto It = Cells.find(N);
    assert(It != Cells.end() && "query for a name outside the DAIG");
    assert(It->second.T == CellType::StateTy && "queryState on a Stmt cell");
    if (It->second.hasValue()) {
      if (Stats)
        ++Stats->CellReuses; // Q-Reuse
      bool Deg = !Degraded.empty() && Degraded.count(N);
      if (Deg)
        budgetState().TaintPending = true; // consumer inherits the flag
      if (Prov)
        provEnter(N, Deg ? DemandOutcome::DegradedReuse
                         : DemandOutcome::Reused);
      return std::get<Elem>(*It->second.V);
    }
    ProvFrame PF(*this, N);
    TraceSpan Sp("daig.cell_eval", N.id());
    budgetCheckpoint("DAIG cell evaluation");
    DAI_FAULT_POINT(CellEval);
    if (budgetExhausted())
      return degradeToTop(N);
    auto CompIt = CompOf.find(N);
    assert(CompIt != CompOf.end() &&
           "empty cell without a computation (wf condition 5)");
    BudgetTaintScope Taint;
    Elem Result;
    if (CompIt->second.F == FnKind::Fix) {
      Result = queryFix(N); // stores internally
    } else {
      Comp C = CompIt->second; // copy: recursive queries may rehash maps
      Result = evaluateComp(C);
      storeValue(N, Result);
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
    if (std::get<Stmt>(*It->second.V) == NewStmt)
      return true; // no-op edit
    G->replaceStmt(Id, NewStmt);
    It->second.V = std::variant<Stmt, Elem>(std::move(NewStmt));
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
    for (EdgeId Id : G->succEdges(NewEdge->Dst))
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

  /// Empties every abstract-state cell and resets all loops (the
  /// demand-driven-only configuration: "dirty the full DAIG").
  void dirtyEverything() {
    Daig Fresh(G, EntryValue, Stats, Memo);
    Fresh.Hook = Hook;
    Fresh.OnCellEmptied = OnCellEmptied;
    swapWith(Fresh);
  }

  /// Replaces the entry abstract state φ0 (used by the interprocedural
  /// engine when callee entry contributions change) and dirties forward.
  void updateEntry(Elem NewEntry) {
    EntryValue = std::move(NewEntry);
    CountCtx Ctx;
    Name N = stateCellName(G->entry(), Ctx);
    auto It = Cells.find(N);
    assert(It != Cells.end() && "entry cell must exist");
    It->second.V = std::variant<Stmt, Elem>(EntryValue);
    Degraded.erase(N); // a fresh entry value clears entry provenance
    dirtyDependentsOf(N);
  }

  /// Marks the entry cell degraded (interprocedural engine: the entry was
  /// coarsened by a budget-tightened widening, so everything computed from
  /// it carries degraded provenance via the taint frames).
  void markEntryDegraded() {
    CountCtx Ctx;
    markDegraded(stateCellName(G->entry(), Ctx));
  }

  /// Current entry abstract state.
  const Elem &entryValue() const { return EntryValue; }

  /// Dirties every cell computed from edge \p Id's statement (used by the
  /// engine when a callee summary feeding this edge changes).
  void invalidateEdgeOutputs(EdgeId Id) { dirtyDependentsOf(stmtCellName(Id)); }

  /// Externally-driven invalidation (interprocedural engine): empties the
  /// cell named \p N (if present and non-empty) and dirties forward.
  void invalidateCell(Name N) {
    auto It = Cells.find(N);
    if (It == Cells.end() || It->second.T != CellType::StateTy)
      return;
    std::set<Name> Visited;
    std::vector<Name> Work = {N};
    propagateDirty(Work, Visited);
  }

  //===--------------------------------------------------------------------===//
  // Introspection (tests, statistics, debugging)
  //===--------------------------------------------------------------------===//

  size_t cellCount() const { return Cells.size(); }
  size_t compCount() const { return CompOf.size(); }
  size_t unrolledLoopCount() const {
    size_t N = 0;
    for (const auto &[Dest, Inst] : Loops)
      if (Inst.K > 1)
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
  /// the affected slice (Fig. 9), so a location whose answer is still
  /// materialized was provably untouched and its cached verdicts stand.
  /// Conservative in one direction only: a false result may merely mean the
  /// location was never demanded.
  bool locationValueReady(Loc L) const {
    if (L >= Info->Reachable.size() || !Info->Reachable[L])
      return true; // unreachable: queryLocation answers ⊥ without evaluation
    CountCtx Ctx;
    for (Loc H : Info->LoopNestOf[L]) {
      if (H == L)
        break;
      Name FixDest = fixCellName(H, Ctx);
      if (!cellHasValue(FixDest))
        return false;
      if (!Degraded.empty() && Degraded.count(FixDest))
        return true; // queryLocation answers with the (filled) fix value
      auto LIt = Loops.find(FixDest);
      Ctx[H] = LIt == Loops.end() ? 0u : LIt->second.K - 1;
    }
    Name N = Info->isLoopHead(L) ? fixCellName(L, Ctx)
                                 : stateCellName(L, Ctx);
    return cellHasValue(N);
  }

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
    if (Degraded.empty())
      return false;
    if (L >= Info->Reachable.size() || !Info->Reachable[L])
      return false;
    CountCtx Ctx;
    for (Loc H : Info->LoopNestOf[L]) {
      if (H == L)
        break;
      Name FixDest = fixCellName(H, Ctx);
      if (Degraded.count(FixDest))
        return true; // queryLocation answers with the degraded fix value
      auto LIt = Loops.find(FixDest);
      Ctx[H] = LIt == Loops.end() ? 0u : LIt->second.K - 1;
    }
    Name N = Info->isLoopHead(L) ? fixCellName(L, Ctx)
                                 : stateCellName(L, Ctx);
    return Degraded.count(N) != 0;
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
    CountCtx Ctx;
    Name Entry = stateCellName(G->entry(), Ctx);
    std::vector<Name> Work;
    for (const Name &N : Degraded) {
      if (N == Entry) {
        // The entry cell always holds φ0 and has no computation; dirty its
        // consumers instead (the engine re-refreshes coarsened entries).
        auto DIt = Dependents.find(N);
        if (DIt != Dependents.end())
          Work.insert(Work.end(), DIt->second.begin(), DIt->second.end());
        continue;
      }
      Work.push_back(N);
    }
    std::set<Name> Visited;
    propagateDirty(Work, Visited); // also erases each emptied cell's mark
    Degraded.clear();              // incl. the (unemptied) entry mark
    return Count;
  }

  /// Structural self-audit beyond Definition 4.1: checkWellFormed plus
  /// Dependents↔CompOf index consistency, loop-instance metadata sanity,
  /// names that fit the pinned snapshot, and degraded-set honesty. Cheap
  /// (no domain operations) — safe to run on a mid-cancelled DAIG.
  /// Returns "" when clean.
  std::string auditInvariants() const {
    std::string W = checkWellFormed();
    if (!W.empty())
      return W;
    // Dependents must be exactly the inverse of CompOf's source lists.
    for (const auto &[Dest, C] : CompOf)
      for (const Name &S : C.Srcs) {
        auto DIt = Dependents.find(S);
        if (DIt == Dependents.end() || !DIt->second.count(Dest))
          return "missing dependent edge " + S.toString() + " → " +
                 Dest.toString();
      }
    for (const auto &[S, Deps] : Dependents) {
      if (Deps.empty())
        return "empty dependent set retained for " + S.toString();
      for (const Name &Dest : Deps) {
        auto CIt = CompOf.find(Dest);
        if (CIt == CompOf.end())
          return "dangling dependent " + Dest.toString() + " of " +
                 S.toString();
        if (std::find(CIt->second.Srcs.begin(), CIt->second.Srcs.end(), S) ==
            CIt->second.Srcs.end())
          return "dependent " + Dest.toString() +
                 " does not list source " + S.toString();
      }
    }
    // Loop metadata: every instance's fix edge exists with two iterate
    // sources of its head at counts (K−1, K).
    for (const auto &[FixDest, Inst] : Loops) {
      auto CIt = CompOf.find(FixDest);
      if (CIt == CompOf.end() || CIt->second.F != FnKind::Fix)
        return "loop instance without a fix edge: " + FixDest.toString();
      if (CIt->second.Srcs.size() != 2)
        return "fix edge arity violated: " + FixDest.toString();
      Loc L;
      std::vector<uint32_t> Counts;
      for (unsigned I = 0; I < 2; ++I) {
        if (!decodeState(CIt->second.Srcs[I], L, Counts) || L != Inst.Head ||
            Counts.empty() || Counts.back() != Inst.K - 1 + I)
          return "fix sources disagree with instance metadata: " +
                 FixDest.toString();
      }
    }
    // Names fit the snapshot: a state-like cell names a reachable location
    // with one count per enclosing loop (one fewer for a head's fix cell),
    // so no cell a structural edit should have removed survives it.
    for (const auto &[N, C] : Cells) {
      Loc L;
      std::vector<uint32_t> Counts;
      if (!decodeCellState(N, L, Counts))
        continue;
      if (L >= Info->Reachable.size() || !Info->Reachable[L])
        return "cell of an unreachable location: " + N.toString();
      size_t Depth = Info->LoopNestOf[L].size();
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
    Name Plain = Name::pair(Name::loc(E->Src), Name::loc(E->Dst));
    unsigned Idx = Info->fwdIndexOf(*G, Id);
    if (Idx == 0 || Info->FwdEdgesTo.at(E->Dst).size() < 2)
      return Plain; // back edge or unique forward edge
    return Name::pair(Name::num(Idx), Plain);
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
  Elem EntryValue;
  Statistics *Stats;
  MemoTable<D> *Memo;
  TransferFn Hook;
  EmptiedFn OnCellEmptied;

  std::unordered_map<Name, Cell, NameHash> Cells;
  std::unordered_map<Name, Comp, NameHash> CompOf; ///< Keyed by destination.
  /// Source name → set of computation destinations depending on it.
  std::unordered_map<Name, std::set<Name>, NameHash> Dependents;
  /// Cells holding budget-degraded values (support/budget.h): ⊤-substituted
  /// on hard exhaustion, or computed from a degraded input (taint). Marks
  /// are erased whenever the cell is emptied or removed — a mark always
  /// describes the value currently stored.
  std::unordered_set<Name, NameHash> Degraded;

  /// Iteration-count context: loop head → current iteration index.
  using CountCtx = std::map<Loc, uint32_t>;

  /// Live metadata per loop instance, keyed by fix-cell name.
  struct LoopInstance {
    Loc Head;
    std::vector<std::pair<Loc, uint32_t>> Ctx; ///< Enclosing counts, outer-first.
    uint32_t K; ///< Fix sources are iterates (K−1, K); K = 1 initially.
  };
  std::unordered_map<Name, LoopInstance, NameHash> Loops;

  void swapWith(Daig &O) {
    std::swap(Info, O.Info);
    std::swap(LabelEdits, O.LabelEdits);
    std::swap(Cells, O.Cells);
    std::swap(CompOf, O.CompOf);
    std::swap(Dependents, O.Dependents);
    std::swap(Loops, O.Loops);
    std::swap(Degraded, O.Degraded);
  }

  //===--------------------------------------------------------------------===//
  // Naming
  //===--------------------------------------------------------------------===//

  /// State-cell name for \p L under iteration context \p Ctx: the location
  /// wrapped by one iteration count per enclosing loop, outermost first
  /// (for a loop head, the final count is its own iterate index).
  Name stateCellName(Loc L, const CountCtx &Ctx) const {
    Name N = Name::loc(L);
    for (Loc H : Info->LoopNestOf[L]) {
      auto It = Ctx.find(H);
      N = Name::iter(N, It == Ctx.end() ? 0u : It->second);
    }
    return N;
  }

  /// Fix-cell (fixed point) name for head \p H: the location wrapped by the
  /// counts of strictly enclosing loops only.
  Name fixCellName(Loc H, const CountCtx &Ctx) const {
    Name N = Name::loc(H);
    const auto &Nest = Info->LoopNestOf[H];
    for (size_t I = 0; I + 1 < Nest.size(); ++I) {
      auto It = Ctx.find(Nest[I]);
      N = Name::iter(N, It == Ctx.end() ? 0u : It->second);
    }
    return N;
  }

  /// Pre-join cell i·n for join input \p Idx at \p L.
  Name preJoinCellName(Loc L, const CountCtx &Ctx, unsigned Idx) const {
    return Name::pair(Name::num(Idx), stateCellName(L, Ctx));
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

  void addStateCell(Name N) {
    Cells.emplace(N, Cell{CellType::StateTy, std::nullopt});
    if (Log)
      Log->Built.push_back(N);
  }

  void addStmtCell(Name N, const Stmt &S) {
    auto [It, Inserted] =
        Cells.emplace(N, Cell{CellType::StmtTy, std::nullopt});
    if (Inserted) {
      It->second.V = std::variant<Stmt, Elem>(S);
    } else if (!(std::get<Stmt>(*It->second.V) == S)) {
      It->second.V = std::variant<Stmt, Elem>(S);
      if (Log)
        Log->Changed.push_back(N);
    }
    if (Log)
      Log->Built.push_back(N);
  }

  /// Sets Dest's computation; a no-op when it is already exactly that.
  void addComp(Name Dest, FnKind F, std::vector<Name> Srcs) {
    auto [It, Inserted] = CompOf.try_emplace(Dest);
    if (!Inserted) {
      if (It->second.F == F && It->second.Srcs == Srcs)
        return;
      unlinkSources(Dest, It->second.Srcs);
    }
    if (Log)
      Log->Changed.push_back(Dest);
    for (Name S : Srcs)
      Dependents[S].insert(Dest);
    It->second = Comp{F, std::move(Srcs)};
  }

  void unlinkSources(Name Dest, const std::vector<Name> &Srcs) {
    for (Name S : Srcs) {
      auto DIt = Dependents.find(S);
      if (DIt != Dependents.end()) {
        DIt->second.erase(Dest);
        if (DIt->second.empty())
          Dependents.erase(DIt);
      }
    }
  }

  void removeComp(Name Dest) {
    auto It = CompOf.find(Dest);
    if (It == CompOf.end())
      return;
    unlinkSources(Dest, It->second.Srcs);
    CompOf.erase(It);
  }

  void removeCell(Name N) {
    removeComp(N);
    Cells.erase(N);
    Loops.erase(N);
    if (!Degraded.empty())
      Degraded.erase(N);
  }

  //===--------------------------------------------------------------------===//
  // Construction (Definition A.2, generalized to nested loops)
  //===--------------------------------------------------------------------===//

  void construct() {
    Cells.clear();
    CompOf.clear();
    Dependents.clear();
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
    CountCtx Ctx;
    if (L == G->entry()) {
      // The entry cell holds φ0 and must have no forward in-edges.
      assert(Info->FwdEdgesTo.count(L) == 0 &&
             "the entry location cannot be a forward-edge target");
      Name N = stateCellName(L, Ctx);
      auto [It, Inserted] =
          Cells.emplace(N, Cell{CellType::StateTy, std::nullopt});
      if (Inserted)
        It->second.V = std::variant<Stmt, Elem>(EntryValue);
      if (Log)
        Log->Built.push_back(N);
      return;
    }
    const auto &Nest = Info->LoopNestOf[L];
    if (Nest.empty()) {
      buildEdgesInto(L, Ctx);
    } else if (Nest.front() == L) {
      // Outermost loop head: entry edges target iterate 0.
      buildEdgesInto(L, Ctx);
      buildLoop(L, Ctx);
    }
  }

  /// Statement-cell name of the edge Src→Dst: plain for a back edge or a
  /// destination's only forward edge, else wrapped by its 1-based
  /// fwd-edges-to index \p Idx among \p InDegree forward in-edges.
  static Name stmtName(Loc Src, Loc Dst, unsigned Idx, size_t InDegree) {
    Name Plain = Name::pair(Name::loc(Src), Name::loc(Dst));
    return InDegree < 2 ? Plain : Name::pair(Name::num(Idx), Plain);
  }

  /// Builds the state cell for \p L under \p Ctx plus the transfer (and, at
  /// join points, pre-join and join) computations over its forward in-edges.
  void buildEdgesInto(Loc L, const CountCtx &Ctx) {
    Name Dest = stateCellName(L, Ctx);
    addStateCell(Dest);
    auto It = Info->FwdEdgesTo.find(L);
    if (It == Info->FwdEdgesTo.end())
      return; // head reachable only through its back edge: entry via loop
    const std::vector<EdgeId> &Ids = It->second;
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
  Name srcStateName(Loc Src, Loc DstLoc, const CountCtx &Ctx) const {
    if (Info->isLoopHead(Src) && !Info->NaturalLoops.at(Src).count(DstLoc))
      return fixCellName(Src, Ctx);
    return stateCellName(Src, Ctx);
  }

  /// Builds the loop headed at \p L under the enclosing counts \p Ctx:
  /// iterations 0 … K−1 and the fix edge over iterates (K−1, K), where K is
  /// the live instance's count (1 for a new instance). Rebuilding a live
  /// instance therefore reproduces its unrollings cell for cell.
  void buildLoop(Loc L, const CountCtx &Ctx) {
    Name FixDest = fixCellName(L, Ctx);
    auto LIt = Loops.find(FixDest);
    uint32_t K = LIt == Loops.end() ? 1u : LIt->second.K;
    std::pair<Name, Name> Its;
    for (uint32_t I = 0; I < K; ++I)
      Its = buildIteration(L, Ctx, I);
    setFix(FixDest, L, Ctx, K, Its);
  }

  /// Points the fix edge of the loop at \p L (enclosing counts \p Ctx) at
  /// iterates \p Its = (K−1, K) and records the instance.
  void setFix(Name FixDest, Loc L, const CountCtx &Ctx, uint32_t K,
              const std::pair<Name, Name> &Its) {
    addStateCell(FixDest);
    addComp(FixDest, FnKind::Fix, {Its.first, Its.second});
    std::vector<std::pair<Loc, uint32_t>> EnclosingCtx;
    for (Loc H : Info->LoopNestOf[L])
      if (H != L)
        EnclosingCtx.emplace_back(H, Ctx.count(H) ? Ctx.at(H) : 0u);
    Loops[FixDest] = LoopInstance{L, std::move(EnclosingCtx), K};
  }

  /// Builds abstract iteration \p I of the loop headed at \p L: the body
  /// cells under count I (nested loops through buildLoop), the back-edge
  /// transfer into the pre-widen cell and the widen into iterate I+1.
  /// Returns iterates (I, I+1); the caller points the fix edge. Idempotent
  /// per (L, Ctx, I).
  std::pair<Name, Name> buildIteration(Loc L, CountCtx Ctx, uint32_t I) {
    Ctx[L] = I;
    Name ItI = stateCellName(L, Ctx);
    addStateCell(ItI);
    Ctx[L] = I + 1;
    Name ItNext = stateCellName(L, Ctx);
    addStateCell(ItNext);
    Ctx[L] = I;
    Name PreWiden = Name::pair(ItI, ItNext);
    addStateCell(PreWiden);
    addComp(ItNext, FnKind::Widen, {ItI, PreWiden});

    // Body cells and computations under count I (in any order: each
    // location's cells name their sources, built or not).
    for (Loc B : Info->NaturalLoops.at(L)) {
      if (B == L)
        continue;
      const auto &Nest = Info->LoopNestOf[B];
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
    const CfgEdge *Back = G->findEdge(Info->LoopBackEdge.at(L));
    Name SC = stmtName(Back->Src, L, 0, 1);
    addStmtCell(SC, Back->Label);
    addComp(PreWiden, FnKind::Transfer, {SC, stateCellName(Back->Src, Ctx)});
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
  size_t provEnter(Name N, DemandOutcome O) {
    size_t Idx = Prov->T.Nodes.size();
    typename DemandTree::Node Nd;
    Nd.N = N;
    Nd.O = O;
    auto CIt = CompOf.find(N);
    Nd.FK = CIt == CompOf.end() ? DemandTree::kNoFn : uint8_t(CIt->second.F);
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
    ProvFrame(Daig &G, Name N) : P(G.Prov) {
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

  void storeValue(Name N, const Elem &V) {
    auto It = Cells.find(N);
    assert(It != Cells.end() && "storing into a missing cell");
    It->second.V = std::variant<Stmt, Elem>(V);
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
  Elem degradeToTop(Name N) {
    Elem Top = D::initialEntry({});
    storeValue(N, Top);
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
    return std::get<Stmt>(*It->second.V);
  }

  /// Q-Loop-Converge / Q-Loop-Unroll, bounded: every iteration checkpoints
  /// the budget, a hard-exhausted budget degrades the fixpoint to ⊤, and
  /// an un-budgeted loop that outruns the iteration ceiling (a widening
  /// that does not stabilize) throws AnalysisDivergence instead of hanging.
  Elem queryFix(Name N) {
    const AnalysisLimits &Limits = analysisLimits();
    uint64_t Iter = 0;
    for (;;) {
      TraceSpan Sp("daig.fix_iter", N.id(), Iter);
      budgetCheckpoint("DAIG fix iteration");
      DAI_FAULT_POINT(Fix);
      if (budgetExhausted())
        return degradeToTop(N);
      Comp C = CompOf.at(N); // copy: unroll rewrites it
      Elem V1 = queryState(C.Srcs[0]);
      Elem V2 = queryState(C.Srcs[1]);
      if (Stats)
        ++Stats->FixChecks;
      if (D::equal(V1, V2)) {
        storeValue(N, V1);
        return V1;
      }
      uint64_t Ceiling = budgetDegraded()
                             ? std::min(Limits.MaxFixUnrollings,
                                        Limits.DegradedFixUnrollings)
                             : Limits.MaxFixUnrollings;
      if (++Iter >= Ceiling) {
        if (budgetActive())
          return degradeToTop(N); // budgeted: degrade, don't diagnose
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
    const LoopInstance &Inst = Loops.at(FixDest);
    Loc L = Inst.Head;
    uint32_t K = Inst.K;
    CountCtx Ctx(Inst.Ctx.begin(), Inst.Ctx.end());
    // buildIteration may add nested instances (rehashing Loops): Inst is
    // not used past this point.
    std::pair<Name, Name> Its = buildIteration(L, Ctx, K);
    setFix(FixDest, L, Ctx, K + 1, Its);
  }

  /// Q-Match / Q-Miss evaluation of a non-fix computation.
  ///
  /// Memo keys embed D::hash(In), and a hit returns the stored Elem as-is,
  /// so correctness requires hash() to be a pure function of the value and
  /// equal() to be reflexive on copies (pinned per-domain by the registry
  /// conformance suite). For the type-erased AnyDomain, hash() is
  /// additionally type-tagged with the domain's registry key: values of
  /// different concrete domains can never collide into one memo key, and
  /// because the tag remap is injective per domain, a mixed-domain run
  /// preserves each domain's Q-Match hit/miss pattern exactly.
  Elem evaluateComp(const Comp &C) {
    switch (C.F) {
    case FnKind::Transfer: {
      const Stmt S = stmtOf(C.Srcs[0]); // copy: map may rehash during query
      Elem In = queryState(C.Srcs[1]);
      bool IsCall = S.Kind == StmtKind::Call;
      // Memo keys cost hashing and interning: build one only when a memo
      // table will read it (never for calls, whose hook is the summary).
      Name Key;
      if (Memo && !IsCall) {
        Key = Name::pair(
            Name::fn(FnKind::Transfer),
            Name::pair(Name::valHash(S.hash()), Name::valHash(D::hash(In))));
        if (auto Hit = Memo->lookup(Key)) {
          provMarkTop(DemandOutcome::MemoHit);
          return *Hit;
        }
      }
      if (Stats)
        ++Stats->Transfers;
      Elem Out = (IsCall && Hook) ? Hook(S, In) : D::transfer(S, In);
      if (Memo && !IsCall)
        Memo->store(Key, Out);
      return Out;
    }
    case FnKind::Join: {
      std::vector<Elem> Ins;
      Ins.reserve(C.Srcs.size());
      for (Name S : C.Srcs)
        Ins.push_back(queryState(S));
      Name Key;
      if (Memo) {
        Key = Name::fn(FnKind::Join);
        for (const Elem &In : Ins)
          Key = Name::pair(Key, Name::valHash(D::hash(In)));
        if (auto Hit = Memo->lookup(Key)) {
          provMarkTop(DemandOutcome::MemoHit);
          return *Hit;
        }
      }
      assert(!Ins.empty() && "join with no inputs");
      Elem Acc = Ins[0];
      for (size_t I = 1; I < Ins.size(); ++I) {
        if (Stats)
          ++Stats->Joins;
        Acc = D::join(Acc, Ins[I]);
      }
      if (Memo)
        Memo->store(Key, Acc);
      return Acc;
    }
    case FnKind::Widen: {
      Elem Prev = queryState(C.Srcs[0]);
      Elem Next = queryState(C.Srcs[1]);
      Name Key;
      if (Memo) {
        Key = Name::pair(Name::fn(FnKind::Widen),
                         Name::pair(Name::valHash(D::hash(Prev)),
                                    Name::valHash(D::hash(Next))));
        if (auto Hit = Memo->lookup(Key)) {
          provMarkTop(DemandOutcome::MemoHit);
          return *Hit;
        }
      }
      if (Stats)
        ++Stats->Widens;
      Elem Out = D::widen(Prev, Next);
      if (Memo)
        Memo->store(Key, Out);
      return Out;
    }
    case FnKind::Fix:
      assert(false && "fix computations are handled by queryFix");
      return D::bottom();
    }
    return D::bottom();
  }

  //===--------------------------------------------------------------------===//
  // Dirtying (Fig. 9) and loop rollback
  //===--------------------------------------------------------------------===//

  void dirtyDependentsOf(Name N) {
    std::set<Name> Visited;
    std::vector<Name> Work;
    auto DIt = Dependents.find(N);
    if (DIt != Dependents.end())
      Work.assign(DIt->second.begin(), DIt->second.end());
    propagateDirty(Work, Visited);
  }

  /// E-Propagate with the E-Loop special case: before emptying a loop
  /// head's first iterate, roll its loop back to the initial fix sources.
  void propagateDirty(std::vector<Name> &Work, std::set<Name> &Visited) {
    while (!Work.empty()) {
      Name N = Work.back();
      Work.pop_back();
      if (!Visited.insert(N).second)
        continue;
      auto It = Cells.find(N);
      if (It == Cells.end())
        continue; // deleted by a rollback while enqueued
      if (It->second.T == CellType::StmtTy)
        continue; // statements are never dirtied by propagation
      maybeRollbackAt(N);
      It = Cells.find(N); // rollback may rehash
      if (It != Cells.end() && It->second.hasValue()) {
        It->second.V.reset();
        if (!Degraded.empty())
          Degraded.erase(N); // an emptied cell carries no provenance
        if (Stats)
          ++Stats->CellsDirtied;
        if (OnCellEmptied)
          OnCellEmptied(N);
      }
      auto DIt = Dependents.find(N);
      if (DIt != Dependents.end())
        for (Name Dep : DIt->second)
          Work.push_back(Dep);
    }
  }

  /// If \p N is the first iterate of an unrolled loop instance, deletes the
  /// unrolled iterations (≥ 1) and resets the fix edge to (0, 1).
  void maybeRollbackAt(Name N) {
    Loc L;
    std::vector<uint32_t> Counts;
    if (!decodeState(N, L, Counts))
      return;
    if (!Info->isLoopHead(L) || L >= Info->LoopNestOf.size())
      return;
    const auto &Nest = Info->LoopNestOf[L];
    if (Counts.size() != Nest.size() || Counts.empty() || Counts.back() != 1)
      return;
    // Reconstruct the fix-cell name from the enclosing counts.
    CountCtx Ctx;
    for (size_t I = 0; I + 1 < Nest.size(); ++I)
      Ctx[Nest[I]] = Counts[I];
    Name FixDest = fixCellName(L, Ctx);
    auto LIt = Loops.find(FixDest);
    if (LIt == Loops.end() || LIt->second.K <= 1)
      return;
    rollbackLoop(FixDest, LIt->second);
  }

  /// Deletes every cell belonging to iterations ≥ 1 of the given instance
  /// (except the first iterate itself, which is kept empty) and resets the
  /// fix computation to the initial iterates.
  void rollbackLoop(Name FixDest, LoopInstance &Inst) {
    Loc L = Inst.Head;
    const auto &HeadNest = Info->LoopNestOf[L];
    size_t Pos = HeadNest.size() - 1; // L's index within its own nest
    CountCtx Ctx;
    for (const auto &[H, C] : Inst.Ctx)
      Ctx[H] = C;

    Name It0 = [&] {
      CountCtx C2 = Ctx;
      C2[L] = 0;
      return stateCellName(L, C2);
    }();
    Name It1 = [&] {
      CountCtx C2 = Ctx;
      C2[L] = 1;
      return stateCellName(L, C2);
    }();
    Name PreWiden01 = Name::pair(It0, It1);

    std::vector<Name> ToDelete;
    for (const auto &[N, CellV] : Cells) {
      (void)CellV;
      if (N == It1 || N == PreWiden01)
        continue;
      Loc CL;
      std::vector<uint32_t> Counts;
      if (!decodeCellState(N, CL, Counts))
        continue; // statement cells survive rollback
      const auto &CNest = Info->LoopNestOf[CL];
      // Find L's position within this cell's nest; fix cells have one fewer
      // count than their head's nest, which the position check tolerates.
      size_t P = 0;
      for (; P < CNest.size(); ++P)
        if (CNest[P] == L)
          break;
      if (P >= CNest.size() || P >= Counts.size())
        continue; // not inside this loop (or a shallower fix cell)
      if (Counts[P] < 1)
        continue;
      // Enclosing counts must match this instance's context.
      bool CtxMatch = true;
      for (size_t Q = 0; Q < P && CtxMatch; ++Q)
        CtxMatch = Q < Counts.size() && Counts[Q] == (Ctx.count(CNest[Q])
                                                          ? Ctx.at(CNest[Q])
                                                          : 0u);
      if (!CtxMatch)
        continue;
      ToDelete.push_back(N);
    }
    (void)Pos;
    for (Name N : ToDelete)
      removeCell(N);

    addComp(FixDest, FnKind::Fix, {It0, It1});
    Inst.K = 1;
    // The first iterate survives but its value is stale: E-Loop empties it
    // (the caller's propagation continues from it).
    auto It = Cells.find(It1);
    if (It != Cells.end() && It->second.hasValue()) {
      It->second.V.reset();
      if (!Degraded.empty())
        Degraded.erase(It1);
      if (Stats)
        ++Stats->CellsDirtied;
      if (OnCellEmptied)
        OnCellEmptied(It1);
    }
  }

  //===--------------------------------------------------------------------===//
  // Reconciling with structural CFG edits (rebuild)
  //===--------------------------------------------------------------------===//

  /// The "result" cell name for \p L assuming all enclosing loops are at
  /// their initial iterates (used only for exitCellName where the exit is
  /// never inside a loop).
  Name resultNameFor(Loc L) const {
    CountCtx Ctx;
    if (Info->isLoopHead(L))
      return fixCellName(L, Ctx);
    return stateCellName(L, Ctx);
  }

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
      std::set<Name> Visited;
      propagateDirty(Work, Visited);
      construct();
      return;
    }
    bool Labels = LabelEdits != labelEditCount();
    if (New == Info && !Labels && !Everywhere)
      return; // the graph has not changed since the DAIG last matched it
    std::shared_ptr<const CfgInfo> Pinned = Info; // outlives the swap below
    const CfgInfo &Old = *Pinned;
    size_t NumLocs = std::max(Old.Reachable.size(), New->Reachable.size());

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
      if (X < Old.LoopNestOf.size())
        for (Loc H : Old.LoopNestOf[X])
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
        if (X >= I->LoopNestOf.size() || I->LoopNestOf[X].empty())
          continue;
        Loc H = I->LoopNestOf[X].front();
        std::vector<char> &Done = I == &Old ? OldOuter : NewOuter;
        if (Done[H])
          continue;
        Done[H] = 1;
        for (Loc B : I->NaturalLoops.at(H))
          Add(B);
      }
    }
    if (Everywhere)
      for (Loc X = 0; X < NumLocs; ++X)
        if ((X < Old.Reachable.size() && Old.Reachable[X]) ||
            (X < New->Reachable.size() && New->Reachable[X]))
          Add(X);

    // 2. Roll every instance of a loop around a changed location back to
    //    iteration 0 (E-Loop, under the old snapshot), then retire those
    //    instances: the rebuild re-creates the ones that still exist. Other
    //    loops in the region keep their unrollings; buildLoop replays them.
    std::vector<Name> Seeds, Retired;
    for (const auto &[FixDest, Inst] : Loops) {
      if (!RollBack[Inst.Head])
        continue;
      Retired.push_back(FixDest);
      if (Inst.K > 1) {
        CountCtx Ctx(Inst.Ctx.begin(), Inst.Ctx.end());
        Ctx[Inst.Head] = 1;
        Seeds.push_back(stateCellName(Inst.Head, Ctx));
      }
    }
    if (!Seeds.empty()) {
      std::sort(Seeds.begin(), Seeds.end()); // Loops' order is incidental
      std::set<Name> Visited;
      propagateDirty(Seeds, Visited);
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
      auto DIt = Dependents.find(N); // a new statement: dirty its readers
      if (DIt != Dependents.end())
        Dirty.insert(Dirty.end(), DIt->second.begin(), DIt->second.end());
    }
    for (Name N : OldCells)
      if (!std::binary_search(Rec.Built.begin(), Rec.Built.end(), N, ById) &&
          Cells.count(N)) {
        Gone.push_back(N);
        Dirty.push_back(N);
      }
    std::set<Name> Visited;
    propagateDirty(Dirty, Visited);
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
    bool InOld = X < Old.Reachable.size() && Old.Reachable[X];
    bool InNew = X < New.Reachable.size() && New.Reachable[X];
    if (InOld != InNew)
      return true;
    if (!InOld)
      return false;
    if (Old.LoopNestOf[X] != New.LoopNestOf[X])
      return true;
    auto BIt = Old.LoopBackEdge.find(X);
    if (BIt != Old.LoopBackEdge.end() &&
        (BIt->second != New.LoopBackEdge.at(X) ||
         edgeChanged(New, BIt->second, X, 0, 1, Labels)))
      return true;
    static const std::vector<EdgeId> NoEdges;
    auto OIt = Old.FwdEdgesTo.find(X);
    auto NIt = New.FwdEdgesTo.find(X);
    const auto &OIds = OIt == Old.FwdEdgesTo.end() ? NoEdges : OIt->second;
    const auto &NIds = NIt == New.FwdEdgesTo.end() ? NoEdges : NIt->second;
    if (OIds != NIds)
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
    Loc S = Old.EdgeSrc[Id];
    if (S != New.EdgeSrc[Id] || Old.LoopNestOf[S] != New.LoopNestOf[S])
      return true;
    if (!Labels)
      return false;
    auto It = Cells.find(stmtName(S, X, Idx, InDegree));
    return It == Cells.end() ||
           !(std::get<Stmt>(*It->second.V) == G->findEdge(Id)->Label);
  }

  /// Appends the cells construction gives location \p X at the all-zero
  /// context of the pinned snapshot: its state cell (a head's entry
  /// iterate), the statement and pre-join cells of its forward in-edges,
  /// and for a head iterate 1, the pre-widen cell, the fix cell and the
  /// back-edge statement cell. After the rollback in reconcile these are
  /// all the cells a changed location has; a location that did not change
  /// keeps its names, so none of its cells can disappear.
  void zeroContextCellsOf(Loc X, std::vector<Name> &Out) const {
    if (X >= Info->Reachable.size() || !Info->Reachable[X])
      return;
    CountCtx Ctx;
    Name S = stateCellName(X, Ctx);
    Out.push_back(S);
    auto FIt = Info->FwdEdgesTo.find(X);
    if (FIt != Info->FwdEdgesTo.end()) {
      const std::vector<EdgeId> &Ids = FIt->second;
      for (unsigned I = 0; I < Ids.size(); ++I) {
        Out.push_back(stmtName(Info->EdgeSrc[Ids[I]], X, I + 1, Ids.size()));
        if (Ids.size() >= 2)
          Out.push_back(preJoinCellName(X, Ctx, I + 1));
      }
    }
    if (Info->isLoopHead(X)) {
      Ctx[X] = 1;
      Name It1 = stateCellName(X, Ctx);
      Out.push_back(It1);
      Out.push_back(Name::pair(S, It1));
      Out.push_back(fixCellName(X, CountCtx{}));
      Out.push_back(
          stmtName(Info->EdgeSrc[Info->LoopBackEdge.at(X)], X, 0, 1));
    }
  }
};

//===----------------------------------------------------------------------===//
// Well-formedness and consistency checking (Definitions 4.1 / 4.3)
//===----------------------------------------------------------------------===//

template <typename D>
  requires AbstractDomain<D>
std::string Daig<D>::checkWellFormed() const {
  // (2) unique destinations and (1) unique names hold by container keys;
  // validate the remaining conditions.
  for (const auto &[Dest, C] : CompOf) {
    auto DIt = Cells.find(Dest);
    if (DIt == Cells.end())
      return "computation destination missing: " + Dest.toString();
    if (DIt->second.T != CellType::StateTy)
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
  // (5) empty references have dependencies.
  for (const auto &[N, C] : Cells) {
    if (C.T == CellType::StateTy && !C.hasValue() && !CompOf.count(N))
      return "empty cell without a computation: " + N.toString();
    if (C.T == CellType::StmtTy && !C.hasValue())
      return "statement cell without content: " + N.toString();
  }
  // (3) acyclicity via Kahn's algorithm over computation edges.
  std::unordered_map<Name, unsigned, NameHash> InDeg;
  for (const auto &[Dest, C] : CompOf)
    InDeg[Dest] = static_cast<unsigned>(C.Srcs.size());
  std::vector<Name> Ready;
  for (const auto &[N, C] : Cells)
    if (!InDeg.count(N))
      Ready.push_back(N);
  size_t Processed = Ready.size();
  while (!Ready.empty()) {
    Name N = Ready.back();
    Ready.pop_back();
    auto DIt = Dependents.find(N);
    if (DIt == Dependents.end())
      continue;
    for (Name Dep : DIt->second) {
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
  for (const auto &[N, C] : Cells) {
    if (C.T != CellType::StateTy || !C.hasValue())
      continue;
    if (!Degraded.empty() && Degraded.count(N))
      continue; // ⊤-substituted/tainted by a budget: deliberately not the
                // value its computation produces (sound by construction)
    auto CIt = CompOf.find(N);
    if (CIt == CompOf.end())
      continue; // φ0 cell
    const Comp &Comp = CIt->second;
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
    const Elem &Stored = std::get<Elem>(*C.V);
    if (Comp.F == FnKind::Fix) {
      const Elem &V1 = std::get<Elem>(*Cells.at(Comp.Srcs[0]).V);
      const Elem &V2 = std::get<Elem>(*Cells.at(Comp.Srcs[1]).V);
      if (!D::equal(V1, V2) || !D::equal(Stored, V1))
        return "fix cell " + N.toString() + " inconsistent with its iterates";
      continue;
    }
    Elem Recomputed = [&] {
      switch (Comp.F) {
      case FnKind::Transfer: {
        const Stmt &S = std::get<Stmt>(*Cells.at(Comp.Srcs[0]).V);
        const Elem &In = std::get<Elem>(*Cells.at(Comp.Srcs[1]).V);
        return (S.Kind == StmtKind::Call && Hook) ? Hook(S, In)
                                                  : D::transfer(S, In);
      }
      case FnKind::Join: {
        Elem Acc = std::get<Elem>(*Cells.at(Comp.Srcs[0]).V);
        for (size_t I = 1; I < Comp.Srcs.size(); ++I)
          Acc = D::join(Acc, std::get<Elem>(*Cells.at(Comp.Srcs[I]).V));
        return Acc;
      }
      case FnKind::Widen:
        return D::widen(std::get<Elem>(*Cells.at(Comp.Srcs[0]).V),
                        std::get<Elem>(*Cells.at(Comp.Srcs[1]).V));
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
