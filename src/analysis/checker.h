//===-- analysis/checker.h - Property checker pass --------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker pass: derives check obligations from CFG statements (user
/// assertions, division-by-zero, array bounds, arithmetic overflow), then
/// evaluates each against the queried abstract pre-state of ANY domain
/// satisfying AbstractDomain, producing the SAFE / WARNING / ERROR /
/// UNREACHABLE verdicts of analysis/checks_db.h.
///
/// Evaluation is domain-generic via ⊥-probes: a property φ over pre-state Φ
/// is entailed (SAFE) when ⟦assume ¬φ⟧♯(Φ) = ⊥, refuted (ERROR) when
/// ⟦assume φ⟧♯(Φ) = ⊥, and otherwise unproven (WARNING) at this precision.
/// A ⊥ pre-state is UNREACHABLE; a pre-state with degraded budget
/// provenance can never yield SAFE (clamped to WARNING).
///
/// IncrementalChecker is the DAIG-native part. It keeps each live edge's
/// label stamp, obligations, pre-state and verdicts across passes, keyed by
/// EdgeId. After an edit it re-collects, re-queries, re-evaluates and
/// rewrites ChecksDb rows only where the edit reached (the class comment
/// gives the two reuse tiers); the re-evaluated obligations — the demanded
/// slice — are counted in Statistics::ChecksRechecked.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_ANALYSIS_CHECKER_H
#define DAI_ANALYSIS_CHECKER_H

#include "analysis/checks_db.h"
#include "daig/daig.h"
#include "domain/abstract_domain.h"
#include "lang/stmt.h"
#include "support/observe.h"
#include "support/statistics.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dai {

/// An unevaluated check obligation: property \p Prop must hold of the
/// abstract state entering edge \p Edge (i.e., at location \p At).
struct Obligation {
  CheckKind Kind = CheckKind::UserAssertion;
  EdgeId Edge = InvalidEdgeId;
  Loc At = InvalidLoc;    ///< Edge source: the pre-state to check against.
  uint32_t SubIndex = 0;  ///< Ordinal within the edge (collection order).
  ExprPtr Prop;           ///< The property, as a boolean expression.
  std::string Text;       ///< Human-readable rendering of Prop.
};

/// Appends the obligations of statement \p S (labelling edge \p Edge with
/// source \p At) to \p Out, in deterministic sub-expression order, filtered
/// by \p Mask (a bitwise-or of checkMask values):
///  - UserAssertion: `assert(e)` contributes e.
///  - DivByZero: every `/` or `%` contributes `divisor != 0`.
///  - ArrayBounds: every `a[i]` read and every `a[i] = e` write contributes
///    `i >= 0 && i < a.length`.
///  - Overflow: every `+`, `-`, `*` contributes containment of the result
///    in the 32-bit signed range (the mini-language's nominal int width).
void collectObligations(const Stmt &S, EdgeId Edge, Loc At,
                        std::vector<Obligation> &Out,
                        uint32_t Mask = kAllChecks);

/// Collects every obligation of \p G in ascending (EdgeId, SubIndex) order.
std::vector<Obligation> collectObligations(const Cfg &G,
                                           uint32_t Mask = kAllChecks);

/// Evaluates one obligation against pre-state \p Pre via ⊥-probes (see file
/// header). Counts into Stats->ChecksEvaluated when \p Stats is non-null.
template <typename D>
  requires AbstractDomain<D>
Verdict evaluateObligation(const Obligation &Ob, const typename D::Elem &Pre,
                           bool DegradedPre, Statistics *Stats = nullptr) {
  if (Stats)
    ++Stats->ChecksEvaluated;
  TraceSpan Sp("check.obligation", Ob.Edge, Ob.SubIndex);
  if (D::isBottom(Pre))
    return Verdict::Unreachable;
  // Entailment probe: no state of γ(Pre) satisfies ¬φ ⇒ φ holds on entry.
  if (D::isBottom(D::transfer(Stmt::mkAssume(negate(Ob.Prop)), Pre)))
    return DegradedPre ? Verdict::Warning : Verdict::Safe;
  // Refutation probe: no state of γ(Pre) satisfies φ ⇒ every execution
  // reaching the check violates it. (Sound under over-approximation: the
  // transfer over-approximates the meet, so ⊥ means the set is empty.)
  if (D::isBottom(D::transfer(Stmt::mkAssume(Ob.Prop), Pre)))
    return Verdict::Error;
  return Verdict::Warning;
}

/// Evaluates \p Obs against pre-states supplied by \p Query (with degraded
/// provenance from \p DegradedAt), recording every result into \p Db.
/// Engine- and DAIG-agnostic: callers bind Query to Daig::queryLocation,
/// InterprocEngine::queryMain, or a batch-interpreter state map.
template <typename D>
  requires AbstractDomain<D>
VerdictCounts
runChecks(const std::vector<Obligation> &Obs,
          const std::function<typename D::Elem(Loc)> &Query,
          const std::function<bool(Loc)> &DegradedAt, ChecksDb &Db,
          Statistics *Stats = nullptr) {
  VerdictCounts Counts;
  for (const Obligation &Ob : Obs) {
    typename D::Elem Pre = Query(Ob.At);
    bool Degraded = DegradedAt && DegradedAt(Ob.At);
    Verdict V = evaluateObligation<D>(Ob, Pre, Degraded, Stats);
    Db.add(CheckResult{Ob.Kind, V, Ob.Edge, Ob.At, Ob.SubIndex, Ob.Text,
                       D::name(), Degraded},
           Stats);
    ++Counts.of(V);
  }
  return Counts;
}

/// Incremental re-checking bound to one Daig. The checker keeps, for every
/// live edge, its obligations with the label stamp they came from (the
/// statement stays on the edge), the source location its pre-state was
/// queried at, and that pre-state with its degraded flag and verdicts.
/// db() holds the edge's rows at that location. A recheck() pass works
/// only where an edit reached:
///
///  - Obligations are re-collected only for an edge whose label stamp
///    changed (an equal statement sets no stamp). An edge whose source
///    moved keeps its obligations with the new location.
///  - db() rows are replaced in place (ChecksDb::replaceEdge) only for an
///    edge whose results changed: re-evaluated, moved to a new source,
///    added or removed.
///
/// An edge with obligations is answered by one of two exact reuse tiers or
/// re-evaluated:
///
///  1. Slice reuse: the edge's statement and source are unchanged, no cell
///     was filled since the last pass (Daig::stateFills), and the DAIG still
///     holds the materialized pre-state at the source (locationValueReady —
///     Fig. 9 dirtying empties exactly the affected slice's cells, so
///     "still filled, never refilled" proves "untouched by every edit since
///     the last pass") with the same degraded status. No query, no
///     evaluation, no DB write. A client query between passes can refill a
///     dirtied cell with a new value, and a moved edge reads another
///     location's cells, so both fall through to tier 2; so does an
///     unreachable source, which has no cells.
///  2. Pre-state match: the pre-state is re-demanded (queryLocation — this
///     is the DAIG's incremental analysis work, counted as Transfers/Joins
///     as usual), and the re-demanded value is D::equal to the cached one
///     with the same degraded status. A verdict is a pure function of
///     (property, pre-state, degraded flag), so the cached verdicts replay
///     without re-running the ⊥-probes — the checking analogue of the
///     DAIG's memo-table Q-Match.
///
/// Only obligations failing both tiers are re-evaluated, counted in
/// Statistics::ChecksRechecked — the deterministic "how much of the
/// program's checking did this edit actually cost" metric. Re-collected
/// obligations are counted in Statistics::ChecksCollected, and every pass
/// adds the database's alarm count to Statistics::AlarmsRaised.
///
/// Readiness is snapshotted for every edge BEFORE any query runs: queries
/// fill cells (never empty them), so the snapshot taken at pass start
/// remains valid while re-evaluation proceeds, and a location filled as a
/// side effect of re-checking some earlier edge does not leak tier-1 reuse.
///
/// Structural edits reconcile the DAIG in place (Daig::rebuild): cells they
/// do not touch stay filled, and whatever they rebuild or empty reads
/// un-ready and falls through to tier 2 or full re-evaluation —
/// conservative, never unsound.
template <typename D>
  requires AbstractDomain<D>
class IncrementalChecker {
public:
  /// Binds to \p G (a DAIG over \p C). \p C must outlive the checker and be
  /// the same CFG the DAIG analyzes. \p Mask selects check families.
  IncrementalChecker(Daig<D> &G, const Cfg &C, Statistics *Stats = nullptr,
                     uint32_t Mask = kAllChecks)
      : G(G), C(C), Stats(Stats), Mask(Mask) {}

  /// Runs one full or incremental pass, bringing db() up to date with the
  /// CFG. Returns db()'s verdict tallies (covering reused and re-evaluated
  /// obligations alike).
  VerdictCounts recheck() {
    // Phase 1: bring every live edge's obligations up to date and snapshot
    // readiness before any query can fill cells.
    const bool NoFillsSinceLastPass = G.stateFills() == FillsAfterLastPass;
    ++Pass;
    for (auto [Id, E] : C.edges()) {
      if (Id >= Edges.size())
        Edges.resize(Id + 1);
      EdgeState &St = Edges[Id];
      St.SeenIn = Pass;
      if (St.Stamp != E.LabelStamp) {
        St.Stamp = E.LabelStamp;
        St.Obs.clear();
        collectObligations(E.Label, Id, E.Src, St.Obs, Mask);
        if (Stats)
          Stats->ChecksCollected += St.Obs.size();
        St.Verdicts.clear(); // answers to other obligations: no reuse
      } else if (!St.Obs.empty() && St.Obs.front().At != E.Src) {
        for (Obligation &Ob : St.Obs)
          Ob.At = E.Src;
      }
      St.Ready = NoFillsSinceLastPass && !St.Verdicts.empty() &&
                 St.At == E.Src && G.locationValueReady(E.Src) &&
                 G.locationDegraded(E.Src) == St.Degraded;
    }

    // Phase 2: in ascending-EdgeId order, drop the rows of removed edges
    // and answer every edge the tiers cannot.
    for (EdgeId Id = 0, N = Edges.size(); Id != N; ++Id) {
      EdgeState &St = Edges[Id];
      if (St.SeenIn != Pass) {
        if (St.SeenIn != 0) { // removed since the last pass
          if (St.At != InvalidLoc)
            Db.replaceEdge(Id, St.At, {});
          St = EdgeState();
        }
        continue;
      }
      if (St.Obs.empty()) {
        if (St.At != InvalidLoc) // the statement lost its obligations
          Db.replaceEdge(Id, St.At, {});
        St.At = InvalidLoc;
        continue;
      }
      if (St.Ready)
        continue; // tier 1
      Loc Src = St.Obs.front().At;
      typename D::Elem Pre = G.queryLocation(Src);
      bool Degraded = G.locationDegraded(Src);
      bool Replay = !St.Verdicts.empty() && St.Degraded == Degraded &&
                    D::equal(St.Pre, Pre); // tier 2
      if (!Replay) {
        std::vector<Verdict> Verdicts;
        Verdicts.reserve(St.Obs.size());
        for (const Obligation &Ob : St.Obs) {
          Verdicts.push_back(evaluateObligation<D>(Ob, Pre, Degraded, Stats));
          if (Stats && !FirstPass)
            ++Stats->ChecksRechecked;
        }
        St.Verdicts = std::move(Verdicts);
      }
      St.Pre = std::move(Pre);
      St.Degraded = Degraded;
      if (Replay && St.At == Src)
        continue; // same answers at the same location: the rows stand
      std::vector<CheckResult> Rows;
      Rows.reserve(St.Obs.size());
      for (size_t I = 0, M = St.Obs.size(); I != M; ++I) {
        const Obligation &Ob = St.Obs[I];
        Rows.push_back(CheckResult{Ob.Kind, St.Verdicts[I], Ob.Edge, Ob.At,
                                   Ob.SubIndex, Ob.Text, D::name(),
                                   Degraded});
      }
      Db.replaceEdge(Id, St.At, std::move(Rows));
      St.At = Src;
    }
    FillsAfterLastPass = G.stateFills();
    FirstPass = false;
    if (Stats)
      Stats->AlarmsRaised += Db.counts().alarms();
    return Db.counts();
  }

  /// The database, current as of the last recheck() pass.
  const ChecksDb &db() const { return Db; }

  /// Total obligations the last pass covered (reused + re-evaluated).
  size_t obligationCount() const { return Db.size(); }

private:
  /// What the checker knows about one edge, indexed by EdgeId (the CFG
  /// allocates ids densely and never reuses them).
  struct EdgeState {
    uint64_t Stamp = 0;      ///< The label stamp Obs were collected at.
    std::vector<Obligation> Obs;
    Loc At = InvalidLoc;     ///< Where Pre was queried and the rows sit.
    bool Degraded = false;
    typename D::Elem Pre{};  ///< The pre-state the verdicts were computed of.
    std::vector<Verdict> Verdicts;
    bool Ready = false;      ///< This pass's tier-1 snapshot.
    uint64_t SeenIn = 0;     ///< Last pass that found the edge live (0: none).
  };

  Daig<D> &G;
  const Cfg &C;
  Statistics *Stats;
  uint32_t Mask;
  ChecksDb Db;
  std::vector<EdgeState> Edges;
  uint64_t Pass = 0;
  uint64_t FillsAfterLastPass = 0;
  bool FirstPass = true;
};

} // namespace dai

#endif // DAI_ANALYSIS_CHECKER_H
