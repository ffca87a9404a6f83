//===-- interproc/engine.h - Demanded interprocedural analysis --*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demanded interprocedural engine of Section 7.1 (and Section 2.3,
/// "Interprocedural Demand"): per-(function, context) DAIGs constructed on
/// demand, parameterized by a k-call-string context policy (k ∈ {0, 1, 2}).
///
/// When query evaluation inside a caller's DAIG reaches a call statement
/// `x = f(ys)`, the engine's transfer hook
///   1. projects the caller state into a callee entry contribution
///      (D::enterCall), recording it keyed by (caller instance, call site);
///   2. sets the callee instance's entry to the join of all current
///      contributions (constructing the callee DAIG on demand);
///   3. demands the callee's exit cell (its summary); and
///   4. combines it into the caller's post-state (D::exitCall).
///
/// Incremental edits propagate across DAIGs: when an instance's exit cell is
/// dirtied, every caller that consumed its summary has the corresponding
/// call-edge outputs dirtied, cascading up the (acyclic) call graph; edited
/// instances also drop their outgoing entry contributions so callee entries
/// never serve stale values (a conservative, function-boundary-granular
/// variant of the paper's cross-DAIG dependencies; reuse *within* each DAIG
/// remains fine-grained, and the shared memo table recovers most of the
/// dropped work).
///
/// Whole-program analysis (analyzeAllFromMain) demands main, which demands
/// every reachable callee live, then repeats Gauss–Seidel passes over the
/// instances not yet fully queried, in key order on the calling thread,
/// until no summary is invalidated. It does so at every setParallelism
/// value. Parallelism comes from running independent engines on different
/// threads: the intern tables take concurrent insertion. See
/// docs/architecture.md, "Parallel execution model".
///
//===----------------------------------------------------------------------===//

#ifndef DAI_INTERPROC_ENGINE_H
#define DAI_INTERPROC_ENGINE_H

#include "daig/daig.h"
#include "interproc/call_graph.h"
#include "interproc/context.h"
#include "support/task_pool.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace dai {

/// Interprocedural demanded abstract interpretation over domain \p D.
template <typename D>
  requires AbstractDomain<D>
class InterprocEngine {
public:
  using Elem = typename D::Elem;

  /// Identifies one analyzed (function, context) instance. The function is
  /// an interned SymbolId (domain/symbol.h) and the context holds interned
  /// call sites, so the per-context instance/consumer tables below compare
  /// keys with integer compares only — no string traffic on engine-map
  /// probes.
  struct InstanceKey {
    SymbolId Fn = kNoSymbol;
    Context Ctx;

    InstanceKey() = default;
    InstanceKey(SymbolId Fn, Context Ctx) : Fn(Fn), Ctx(std::move(Ctx)) {}
    InstanceKey(std::string_view FnName, Context Ctx)
        : Fn(internSymbol(FnName)), Ctx(std::move(Ctx)) {}

    bool operator==(const InstanceKey &O) const {
      return Fn == O.Fn && Ctx == O.Ctx;
    }
    bool operator<(const InstanceKey &O) const {
      if (Fn != O.Fn)
        return Fn < O.Fn;
      return Ctx < O.Ctx;
    }
    std::string toString() const { return symbolName(Fn) + Ctx.toString(); }
  };

  /// \p K is the call-string depth (0 = context-insensitive).
  InterprocEngine(Program Prog, std::string MainName, unsigned K = 0)
      : Prog(std::move(Prog)), MainName(std::move(MainName)),
        MainId(internSymbol(this->MainName)), K(K) {
    Memo.attachStatistics(&Stats);
    CG = buildCallGraph(this->Prog);
    if (CG.valid() && !this->Prog.find(this->MainName))
      CG.Error = "no function named '" + this->MainName + "'";
  }

  bool valid() const { return CG.valid(); }
  const std::string &error() const { return CG.Error; }
  Program &program() { return Prog; }
  Statistics &statistics() { return Stats; }

  /// Records the number of threads a caller grants analyzeAllFromMain (0 =
  /// hardware concurrency). Every pass runs on the calling thread at any
  /// count, so answers and counters equal the one-thread engine's: once
  /// main's demand has resolved every reachable callee live, the passes
  /// after it leave a pool nothing to run side by side (measured in
  /// docs/architecture.md, "Parallel execution model").
  void setParallelism(unsigned N) {
    Threads = N == 0 ? TaskPool::hardwareParallelism() : N;
  }
  unsigned parallelism() const { return Threads; }

  /// Demands the abstract state at \p L in the root (main) instance.
  ///
  /// Queries iterate to quiescence: a pass may grow a callee's entry (a new
  /// call site contributing), which invalidates consumers of its summary;
  /// passes repeat until no summary is invalidated. Entry growth is widened,
  /// so the pass count is finite even in infinite-height domains.
  Elem queryMain(Loc L) { return queryToQuiescence(rootKey(), L); }

  /// Demands the exit summary of instance \p Key (⊥ if never called).
  Elem querySummary(const InstanceKey &Key) {
    return queryToQuiescence(Key, cfgOf(Key.Fn)->exit());
  }

  /// Demands every location of every instance reachable from main. Returns
  /// the number of instances analyzed.
  size_t analyzeAllFromMain() {
    budgetState().TaintPending = false; // top-level query: fresh frame
    Instance &Root = instanceFor(rootKey(), /*Seed=*/true);
    Root.G->queryAllLocations();
    // Demanding main may create callee instances, whose full analysis may
    // create more; iterate to a fixed point over the instance set.
    uint64_t Passes = 0;
    bool Progress = true;
    while (Progress) {
      TraceSpan Sp("interproc.quiescence_pass", Passes);
      budgetCheckpoint("interprocedural analyze-all pass");
      if (++Passes >= analysisLimits().MaxQuiescencePasses)
        throw AnalysisDivergence(
            "interprocedural quiescence (analyzeAllFromMain)", Passes);
      ++Stats.QuiescencePasses;
      Progress = false;
      std::vector<InstanceKey> Keys;
      Keys.reserve(Instances.size());
      for (const auto &[Key, Inst] : Instances)
        Keys.push_back(Key);
      for (const auto &Key : Keys) {
        Instance &I = *Instances.at(Key);
        if (I.FullyQueried)
          continue;
        I.FullyQueried = true;
        I.G->queryAllLocations();
        Progress = true;
      }
      if (drainDirtyExits())
        Progress = true;
    }
    return Instances.size();
  }

  /// In-place statement replacement in every instance of \p Fn. If the old
  /// statement was a call, its call-site contributions are dropped (the site
  /// key changes with the statement); other contributions persist and are
  /// re-validated by subsequent queries (entries only grow between explicit
  /// re-seeds, a sound monotone approximation).
  bool applyStatementEdit(const std::string &Fn, EdgeId Id, Stmt NewStmt) {
    Function *F = Prog.find(Fn);
    if (!F || !F->Body.findEdge(Id))
      return false;
    SymbolId FnId = internSymbol(Fn);
    Stmt OldStmt = F->Body.findEdge(Id)->Label;
    bool StructureRelevant =
        NewStmt.Kind == StmtKind::Call || OldStmt.Kind == StmtKind::Call;
    for (auto &[Key, Inst] : Instances) {
      if (Key.Fn != FnId)
        continue;
      Inst->G->applyStatementEdit(Id, NewStmt);
      Inst->FullyQueried = false;
    }
    if (!anyInstanceOf(FnId))
      F->Body.replaceStmt(Id, NewStmt); // no instance carried the CFG update
    if (StructureRelevant)
      CG = buildCallGraph(Prog); // the call graph may have changed
    if (OldStmt.Kind == StmtKind::Call) {
      // The site key dies with the statement.
      uint64_t Site = OldStmt.hash();
      dropContributions([&](const Contributor &C) {
        return C.first.Fn == FnId && C.second == Site;
      });
    }
    drainDirtyExits();
    return true;
  }

  /// Statement insertion in every instance of \p Fn: the caller has already
  /// spliced the CFG via cfg/edits.h insertStmtAt(At, ·), whose result is
  /// \p Splice. Each instance reconciles only the splice's few candidate
  /// locations (Daig::applyInsertedStatement).
  void applyInsertedStatementEdit(const std::string &Fn, Loc At,
                                  const InsertResult &Splice) {
    const Function *F = Prog.find(Fn);
    assert(F && "edit in unknown function");
    if (F->Body.findEdge(Splice.FirstNewEdge)->Label.Kind == StmtKind::Call)
      CG = buildCallGraph(Prog);
    SymbolId FnId = internSymbol(Fn);
    for (auto &[Key, Inst] : Instances) {
      if (Key.Fn != FnId)
        continue;
      Inst->G->applyInsertedStatement(At, Splice);
      Inst->FullyQueried = false;
    }
    drainDirtyExits();
  }

  /// Reconciles every instance of \p Fn with its CFG after the caller
  /// mutated it structurally (via program().find(Fn)->Body and
  /// cfg/edits.h). Each instance rebuilds only the region the edits touched
  /// (Daig::rebuild); an instance whose exit cell is emptied or re-sourced
  /// invalidates its callers' summaries through the drain below.
  void applyStructuralEdit(const std::string &Fn) {
    CG = buildCallGraph(Prog);
    SymbolId FnId = internSymbol(Fn);
    for (auto &[Key, Inst] : Instances) {
      if (Key.Fn != FnId)
        continue;
      Inst->G->rebuild();
      Inst->FullyQueried = false;
    }
    drainDirtyExits();
  }

  /// Drops every entry contribution and re-seeds callee entries from ⊥,
  /// restoring full precision after long edit sequences (entries otherwise
  /// only grow). Subsequent queries recompute contributions on demand.
  void reseedAllEntries() {
    for (auto &[Key, Inst] : Instances) {
      if (Key == rootKey())
        continue;
      Inst->Contributions.clear();
      refreshEntry(Key, *Inst, /*AllowShrink=*/true);
    }
    drainDirtyExits();
  }

  /// Discards every instance (all DAIG cells and contributions) while
  /// keeping the program and the auxiliary memo table — the
  /// demand-driven-only configuration's "dirty the full DAIG after each
  /// edit" (Section 7.3).
  void resetAllInstances() {
    Instances.clear();
    SummaryConsumers.clear();
    PendingDirtyExits.clear();
  }

  /// Invokes \p Fn(key, daig) for every constructed instance.
  template <typename Callback> void forEachInstance(Callback &&Fn) {
    for (auto &[Key, Inst] : Instances)
      Fn(Key, *Inst->G);
  }

  size_t instanceCount() const { return Instances.size(); }

  InstanceKey rootKey() const { return InstanceKey{MainId, Context{}}; }

  //===--------------------------------------------------------------------===//
  // Degraded provenance and self-audit (support/budget.h)
  //===--------------------------------------------------------------------===//

  /// True when the answer queryMain(\p L) returns carries budget-degraded
  /// provenance. Degradation inside callees surfaces here too: the taint
  /// frames are thread-local, so a caller cell consuming a degraded callee
  /// summary is itself marked in the root DAIG.
  bool mainLocationDegraded(Loc L) const {
    auto It = Instances.find(rootKey());
    return It != Instances.end() && It->second->G->locationDegraded(L);
  }

  /// Total degraded-cell marks across all instances.
  size_t degradedCellCount() const {
    size_t N = 0;
    for (const auto &[Key, Inst] : Instances)
      N += Inst->G->degradedCellCount();
    return N;
  }

  /// Empties every degraded cell in every instance and re-seeds callee
  /// entries from scratch (budget-tightened widening coarsens entries, so
  /// dropping contributions is the only way back to full precision).
  /// Re-demanding afterwards, outside the exhausted budget, reproduces the
  /// unbudgeted analysis. Returns the number of marks cleared.
  size_t invalidateDegraded() {
    size_t N = 0;
    for (auto &[Key, Inst] : Instances)
      N += Inst->G->invalidateDegraded();
    if (N)
      reseedAllEntries();
    drainDirtyExits();
    return N;
  }

  /// Structural self-audit: per-instance Daig::auditInvariants plus the
  /// cross-DAIG index invariants (no dangling contributions or consumer
  /// edges) and entry monotonicity (every callee entry covers the join of
  /// its recorded contributions — resolveCall's record-then-refresh pairing
  /// is exception-guarded to keep this true across mid-analysis faults).
  /// Returns "" when clean.
  std::string auditInvariants() const {
    for (const auto &[Key, Inst] : Instances) {
      std::string S = Inst->G->auditInvariants();
      if (!S.empty())
        return Key.toString() + ": " + S;
    }
    for (const auto &[Key, Inst] : Instances)
      for (const auto &[Site, Contribution] : Inst->Contributions)
        if (!Instances.count(Site.first))
          return "dangling contribution into " + Key.toString() +
                 " from " + Site.first.toString();
    for (const auto &[Callee, Consumers] : SummaryConsumers) {
      if (!Instances.count(Callee))
        return "summary consumers recorded for missing instance " +
               Callee.toString();
      for (const InstanceKey &Caller : Consumers)
        if (!Instances.count(Caller))
          return "missing summary consumer " + Caller.toString() + " of " +
                 Callee.toString();
    }
    for (const InstanceKey &Key : PendingDirtyExits)
      if (!Instances.count(Key))
        return "pending dirty exit for missing instance " + Key.toString();
    for (const auto &[Key, Inst] : Instances) {
      if (Inst->Contributions.empty())
        continue;
      Elem Joined = D::bottom();
      for (const auto &[Site, Contribution] : Inst->Contributions)
        Joined = D::join(Joined, Contribution);
      if (!D::leq(Joined, Inst->G->entryValue()))
        return "entry of " + Key.toString() +
               " does not cover its contributions";
    }
    return "";
  }

  const Cfg *cfgOf(const std::string &Fn) const {
    const Function *F = Prog.find(Fn);
    assert(F && "unknown function");
    return &F->Body;
  }
  const Cfg *cfgOf(SymbolId Fn) const { return cfgOf(symbolName(Fn)); }

private:
  Program Prog;
  std::string MainName;
  SymbolId MainId; ///< Interned MainName: rootKey() without a table probe.
  unsigned K;
  CallGraph CG;
  Statistics Stats;
  MemoTable<D> Memo{};

  /// Where an entry contribution comes from: (caller instance, call-site
  /// hash).
  using Contributor = std::pair<InstanceKey, uint64_t>;

  struct Instance {
    std::unique_ptr<Daig<D>> G;
    /// Entry contributions: contributor → entry state.
    std::map<Contributor, Elem> Contributions;
    bool Seeded = false;       ///< True for the root or once contributed-to.
    bool FullyQueried = false; ///< analyzeAllFromMain bookkeeping.
    unsigned EntryGrowths = 0; ///< Widening-delay counter for entry updates.
    /// G->exitCellKey(), cached when the instance is created: the exit has
    /// no successors, so it is never inside a loop and its key never
    /// changes. Each emptied cell is compared with it.
    CellKey ExitKey;
  };
  std::map<InstanceKey, std::unique_ptr<Instance>> Instances;

  /// Summary-consumption edges for cross-DAIG dirtying: callee instance →
  /// caller instances that demanded its exit.
  std::map<InstanceKey, std::set<InstanceKey>> SummaryConsumers;

  /// Exit cells dirtied during an edit, processed by drainDirtyExits.
  std::vector<InstanceKey> PendingDirtyExits;
  bool InDirtyDrain = false;

  unsigned Threads = 1; ///< As recorded by setParallelism.

  /// The entry seed for a (function, context) instance. Domains that
  /// support per-function selection (the registry's AnyDomain with an
  /// installed FunctionDomainPolicy) expose initialEntryFor, so the policy
  /// applies at instance creation — root/seeded instances included, not
  /// only demanded callees routed through enterCall.
  Elem initialEntryOf(const InstanceKey &Key, const Function &F) {
    if constexpr (requires { D::initialEntryFor(Key.Fn, F.Params); })
      return D::initialEntryFor(Key.Fn, F.Params);
    else
      return D::initialEntry(F.Params);
  }

  Instance &instanceFor(const InstanceKey &Key, bool Seed) {
    auto It = Instances.find(Key);
    if (It == Instances.end()) {
      Function *F = Prog.find(symbolName(Key.Fn));
      assert(F && "instance for unknown function");
      auto Inst = std::make_unique<Instance>();
      Elem Entry =
          Seed ? initialEntryOf(Key, *F) : D::bottom(); // unseeded: no calls
      Inst->G = std::make_unique<Daig<D>>(&F->Body, std::move(Entry), &Stats,
                                          &Memo);
      Inst->Seeded = Seed;
      Inst->ExitKey = Inst->G->exitCellKey();
      InstanceKey KeyCopy = Key;
      Inst->G->setTransferHook([this, KeyCopy](const Stmt &S, const Elem &In) {
        return resolveCall(KeyCopy, S, In);
      });
      // The instance is heap-allocated and owns its DAIG, so the callback
      // never outlives it.
      Inst->G->setOnCellEmptied(
          [this, KeyCopy, I = Inst.get()](const CellKey &N) {
            I->FullyQueried = false;
            if (N == I->ExitKey)
              PendingDirtyExits.push_back(KeyCopy);
          });
      It = Instances.emplace(Key, std::move(Inst)).first;
    } else if (Seed && !It->second->Seeded) {
      It->second->Seeded = true;
      Function *F = Prog.find(symbolName(Key.Fn));
      It->second->G->updateEntry(initialEntryOf(Key, *F));
    }
    return *It->second;
  }

  /// Demands \p L in instance \p Key, one pass at a time until a pass
  /// invalidates no summary (queryMain's comment gives why this ends).
  Elem queryToQuiescence(const InstanceKey &Key, Loc L) {
    budgetState().TaintPending = false; // top-level query: fresh frame
    Instance &I = instanceFor(Key, /*Seed=*/Key == rootKey());
    uint64_t Passes = 0;
    for (;;) {
      TraceSpan Sp("interproc.quiescence_pass", Passes);
      Elem V = I.G->queryLocation(L);
      if (!drainDirtyExits())
        return V;
      budgetCheckpoint("interprocedural quiescence pass");
      if (++Passes >= analysisLimits().MaxQuiescencePasses)
        throw AnalysisDivergence("interprocedural quiescence (query)", Passes);
    }
  }

  /// The transfer hook: demanded callee summaries (Section 2.3).
  Elem resolveCall(const InstanceKey &Caller, const Stmt &S, const Elem &In) {
    if (Stats.CallSummaries != UINT64_MAX)
      ++Stats.CallSummaries;
    if (D::isBottom(In))
      return D::bottom();
    Function *Callee = Prog.find(S.Callee);
    if (!Callee) // undefined callee: havoc via the domain's default
      return D::transfer(S, In);
    uint64_t SiteHash = S.hash();
    InstanceKey CalleeKey{internSymbol(S.Callee),
                          Caller.Ctx.extend(CallSite{Caller.Fn, SiteHash}, K)};
    Instance &CalleeInst = instanceFor(CalleeKey, /*Seed=*/false);

    // Record/update this call site's entry contribution.
    Elem Contribution = D::enterCall(In, S, Callee->Params);
    auto SiteKey = std::make_pair(Caller, SiteHash);
    auto CIt = CalleeInst.Contributions.find(SiteKey);
    bool ContributionChanged =
        CIt == CalleeInst.Contributions.end() ||
        !D::equal(CIt->second, Contribution);
    if (ContributionChanged) {
      // Exception guard: a fault/cancel inside refreshEntry's domain ops
      // must not leave a recorded contribution the entry does not cover
      // (the auditInvariants monotonicity check).
      bool HadOld = CIt != CalleeInst.Contributions.end();
      Elem Old = HadOld ? CIt->second : D::bottom();
      CalleeInst.Contributions[SiteKey] = Contribution;
      try {
        refreshEntry(CalleeKey, CalleeInst, /*AllowShrink=*/false);
      } catch (...) {
        if (HadOld)
          CalleeInst.Contributions[SiteKey] = std::move(Old);
        else
          CalleeInst.Contributions.erase(SiteKey);
        throw;
      }
    }

    SummaryConsumers[CalleeKey].insert(Caller);
    Elem Summary = CalleeInst.G->queryLocation(Callee->Body.exit());
    return D::exitCall(In, Summary, S);
  }

  /// Entry := join of all contributions (⊥ when none). When \p AllowShrink
  /// is false (query-time updates) the entry is only ever *grown*, widened
  /// past the current value — shrinking mid-query would ping-pong with
  /// summary invalidation; growth widening bounds the number of entry
  /// updates even in infinite-height domains. Edit paths pass true to
  /// regain precision once stale contributions have been dropped.
  void refreshEntry(const InstanceKey &Key, Instance &Inst, bool AllowShrink) {
    Elem Joined = D::bottom();
    for (const auto &[Site, Contribution] : Inst.Contributions)
      Joined = D::join(Joined, Contribution);
    const Elem &Cur = Inst.G->entryValue();
    Elem Entry = std::move(Joined);
    bool Tightened = false;
    if (!AllowShrink) {
      if (D::leq(Entry, Cur))
        return; // already covered: keep the (possibly larger) entry
      // Widening delay: plain joins for the first few growths keep
      // precision (e.g. loop-carried call arguments); widening afterwards
      // bounds the number of entry updates in infinite-height domains.
      // Under a soft-degraded budget the delay drops to zero — widen
      // immediately to cap further entry-update work — and entries
      // coarsened by that tightening are flagged with degraded provenance.
      constexpr unsigned WideningDelay = 4;
      unsigned Delay = budgetDegraded() ? 0 : WideningDelay;
      if (!D::isBottom(Cur)) {
        unsigned Growth = Inst.EntryGrowths++;
        if (Growth < Delay) {
          Entry = D::join(Cur, Entry);
        } else {
          Entry = D::widen(Cur, D::join(Cur, Entry));
          // Degraded provenance only when the un-degraded policy would
          // still have joined (Growth below the normal delay).
          Tightened = budgetDegraded() && Growth < WideningDelay;
        }
      }
    } else {
      Inst.EntryGrowths = 0;
    }
    if (!D::equal(Entry, Cur)) {
      bool NowBottom = D::isBottom(Entry);
      Inst.G->updateEntry(std::move(Entry));
      if (Tightened)
        Inst.G->markEntryDegraded();
      Inst.FullyQueried = false;
      // A dead instance (entry ⊥ after an edit) can no longer vouch for its
      // own outgoing contributions: cascade the drop down the call DAG.
      if (AllowShrink && NowBottom)
        dropContributions([&](const Contributor &C) { return C.first == Key; });
    }
  }

  /// Removes every contribution whose (caller instance, call site) \p Drop
  /// selects, re-seeding the affected callee entries; a callee left dead
  /// drops its own outgoing contributions in turn, which bottoms out on the
  /// acyclic call graph.
  template <typename Pred> void dropContributions(Pred &&Drop) {
    auto Dropped = [&](const auto &Entry) { return Drop(Entry.first); };
    for (auto &[CalleeKey, CalleeInst] : Instances)
      if (std::erase_if(CalleeInst->Contributions, Dropped))
        refreshEntry(CalleeKey, *CalleeInst, /*AllowShrink=*/true);
  }

  /// Processes summary invalidations until quiescent. Returns true if any
  /// consumer was invalidated.
  bool drainDirtyExits() {
    if (InDirtyDrain)
      return false;
    InDirtyDrain = true;
    bool AnyWork = false;
    std::set<InstanceKey> Done;
    while (!PendingDirtyExits.empty()) {
      InstanceKey Key = PendingDirtyExits.back();
      PendingDirtyExits.pop_back();
      if (!Done.insert(Key).second)
        continue;
      auto CIt = SummaryConsumers.find(Key);
      if (CIt == SummaryConsumers.end())
        continue;
      for (const InstanceKey &Caller : CIt->second) {
        auto InstIt = Instances.find(Caller);
        if (InstIt == Instances.end())
          continue;
        AnyWork = true;
        // Dirty the outputs of every call edge targeting Key's function.
        // Contributions are NOT dropped here: query passes re-validate
        // them, and monotone entry growth guarantees convergence.
        for (const CallEdge &CE : CG.Edges) {
          if (CE.Caller != Caller.Fn || CE.Callee != Key.Fn)
            continue; // interned ids: two integer compares per edge
          InstIt->second->G->invalidateEdgeOutputs(CE.Edge);
        }
      }
    }
    InDirtyDrain = false;
    return AnyWork;
  }

  bool anyInstanceOf(SymbolId Fn) const {
    for (const auto &[Key, Inst] : Instances)
      if (Key.Fn == Fn)
        return true;
    return false;
  }
};

} // namespace dai

#endif // DAI_INTERPROC_ENGINE_H
