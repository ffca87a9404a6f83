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
/// IncrementalChecker is the DAIG-native part: after an edit, Fig. 9
/// dirtying has emptied exactly the cells of the affected slice, so a cached
/// verdict is reusable iff its edge's statement is unchanged AND the DAIG
/// still holds the materialized pre-state (Daig::locationValueReady) with
/// the same degraded status. Everything else — the demanded slice — is
/// re-evaluated and counted in Statistics::ChecksRechecked.
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
#include <map>
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
    switch (V) {
    case Verdict::Safe: ++Counts.Safe; break;
    case Verdict::Warning: ++Counts.Warning; break;
    case Verdict::Error: ++Counts.Error; break;
    case Verdict::Unreachable: ++Counts.Unreachable; break;
    }
  }
  return Counts;
}

/// Incremental re-checking bound to one Daig. Each recheck() pass rebuilds
/// \p Db from a per-edge cache of (statement hash, pre-state, verdicts),
/// re-evaluating only the obligations whose answers an edit could have
/// changed. Two reuse tiers, both exact:
///
///  1. Slice reuse: the edge's statement hash is unchanged AND the DAIG
///     still holds the materialized pre-state at the edge source
///     (locationValueReady — Fig. 9 dirtying empties exactly the affected
///     slice's cells, so "still filled" proves "untouched by every edit
///     since the last pass") with the same degraded status. No query, no
///     evaluation.
///  2. Pre-state match: the cells were dirtied, so the pre-state is
///     re-demanded (queryLocation — this is the DAIG's incremental
///     analysis work, counted as Transfers/Joins as usual), but the
///     re-demanded value is D::equal to the cached one. A verdict is a
///     pure function of (property, pre-state, degraded flag), so the
///     cached verdicts replay without re-running the ⊥-probes — the
///     checking analogue of the DAIG's memo-table Q-Match.
///
/// Only obligations failing both tiers are re-evaluated, counted in
/// Statistics::ChecksRechecked — the deterministic "how much of the
/// program's checking did this edit actually cost" metric.
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

  /// Runs one full or incremental pass, rebuilding db(). Returns the pass's
  /// verdict tallies (covering reused and re-evaluated obligations alike).
  VerdictCounts recheck() {
    // Phase 1: collect the current obligations and snapshot readiness
    // before any query can fill cells.
    struct EdgeWork {
      const Stmt *S;
      Loc Src;
      bool Ready;
      bool Degraded;
      std::vector<Obligation> Obs;
    };
    std::map<EdgeId, EdgeWork> Work;
    for (auto [Id, E] : C.edges()) {
      std::vector<Obligation> Obs;
      collectObligations(E.Label, Id, E.Src, Obs, Mask);
      if (Obs.empty())
        continue;
      bool Ready = G.locationValueReady(E.Src);
      bool Degraded = Ready && G.locationDegraded(E.Src);
      Work.emplace(Id, EdgeWork{&E.Label, E.Src, Ready, Degraded,
                                std::move(Obs)});
    }

    // Phase 2: evaluate in ascending-EdgeId order, reusing where proven
    // safe to.
    Db.clear();
    VerdictCounts Counts;
    std::map<EdgeId, EdgeCache> NewCache;
    for (auto &[Id, W] : Work) {
      uint64_t H = W.S->hash();
      auto CIt = Cache.find(Id);
      bool HasCache = !FirstPass && CIt != Cache.end() &&
                      CIt->second.StmtHash == H &&
                      CIt->second.Verdicts.size() == W.Obs.size();
      // Tier 1: the materialized pre-state survived every edit.
      bool Reuse = HasCache && W.Ready && CIt->second.Degraded == W.Degraded;
      EdgeCache Entry;
      Entry.StmtHash = H;
      if (Reuse) {
        Entry.Degraded = CIt->second.Degraded;
        Entry.Pre = CIt->second.Pre;
        Entry.Verdicts = CIt->second.Verdicts;
      } else {
        typename D::Elem Pre = G.queryLocation(W.Src);
        bool DegradedNow = G.locationDegraded(W.Src);
        Entry.Degraded = DegradedNow;
        // Tier 2: dirtied, but the re-demanded pre-state is unchanged —
        // the cached verdicts are a pure function of it, replay them.
        if (HasCache && CIt->second.Degraded == DegradedNow &&
            D::equal(CIt->second.Pre, Pre)) {
          Entry.Pre = std::move(Pre);
          Entry.Verdicts = CIt->second.Verdicts;
        } else {
          Entry.Verdicts.reserve(W.Obs.size());
          for (const Obligation &Ob : W.Obs) {
            Entry.Verdicts.push_back(
                evaluateObligation<D>(Ob, Pre, DegradedNow, Stats));
            if (Stats && !FirstPass)
              ++Stats->ChecksRechecked;
          }
          Entry.Pre = std::move(Pre);
        }
      }
      for (size_t I = 0, N = W.Obs.size(); I != N; ++I) {
        const Obligation &Ob = W.Obs[I];
        Verdict V = Entry.Verdicts[I];
        Db.add(CheckResult{Ob.Kind, V, Ob.Edge, Ob.At, Ob.SubIndex, Ob.Text,
                           D::name(), Entry.Degraded},
               Stats);
        switch (V) {
        case Verdict::Safe: ++Counts.Safe; break;
        case Verdict::Warning: ++Counts.Warning; break;
        case Verdict::Error: ++Counts.Error; break;
        case Verdict::Unreachable: ++Counts.Unreachable; break;
        }
      }
      NewCache.emplace(Id, std::move(Entry));
    }
    Cache = std::move(NewCache); // drops entries for deleted edges
    FirstPass = false;
    return Counts;
  }

  /// The database rebuilt by the last recheck() pass.
  const ChecksDb &db() const { return Db; }

  /// Total obligations the last pass covered (reused + re-evaluated).
  size_t obligationCount() const { return Db.size(); }

private:
  struct EdgeCache {
    uint64_t StmtHash = 0;
    bool Degraded = false;
    typename D::Elem Pre{}; ///< The pre-state the verdicts were computed of.
    std::vector<Verdict> Verdicts;
  };

  Daig<D> &G;
  const Cfg &C;
  Statistics *Stats;
  uint32_t Mask;
  ChecksDb Db;
  std::map<EdgeId, EdgeCache> Cache;
  bool FirstPass = true;
};

} // namespace dai

#endif // DAI_ANALYSIS_CHECKER_H
