//===-- analysis/batch_interpreter.h - Classical batch AI ------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classical (batch) abstract interpreter: computes the global fixed-point
/// invariant map ⟦·⟧♯∗ : Loc → Σ♯ by structured chaotic iteration with
/// widening at loop heads. This is both the paper's "Batch" evaluation
/// configuration (Section 7.3) and the reference implementation against
/// which DAIG from-scratch consistency (Theorem 6.1) is property-tested.
///
/// The iteration strategy deliberately mirrors the DAIG's demanded-unrolling
/// semantics so results agree *exactly*, not just up to precision:
///   - the 0th iterate at a loop head is the join of transfers over its
///     forward in-edges (which, by reducibility, all come from outside the
///     natural loop);
///   - iterate k+1 = iterate k ∇ ⟦back-edge stmt⟧(body value at the latch),
///     where the body is re-analyzed per iteration with nested loops solved
///     recursively from scratch (as demanded unrolling resets them);
///   - the loop converges when two consecutive iterates are equal (D::equal),
///     and loop exits read the converged value.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_ANALYSIS_BATCH_INTERPRETER_H
#define DAI_ANALYSIS_BATCH_INTERPRETER_H

#include "cfg/cfg_analysis.h"
#include "cfg/program.h"
#include "domain/abstract_domain.h"
#include "support/statistics.h"

#include <cassert>

#include <functional>
#include <map>

namespace dai {

/// Batch abstract interpretation of one CFG over domain \p D.
template <typename D>
  requires AbstractDomain<D>
class BatchInterpreter {
public:
  using Elem = typename D::Elem;
  /// Optional override for statement interpretation (the interprocedural
  /// engine resolves Call statements through this hook).
  using TransferFn = std::function<Elem(const Stmt &, const Elem &)>;

  BatchInterpreter(const Cfg &G, const CfgInfo &Info,
                   Statistics *Stats = nullptr, TransferFn Hook = nullptr)
      : G(G), Info(Info), Stats(Stats), Hook(std::move(Hook)) {
    assert(Info.valid() && "batch analysis requires a well-formed CFG");
  }

  /// Runs to the global fixed point from \p Entry at the CFG entry location.
  /// Unreachable locations are mapped to ⊥.
  std::map<Loc, Elem> run(const Elem &Entry) {
    Values.clear();
    for (Loc L = 0; L < G.numLocs(); ++L)
      Values[L] = D::bottom();
    Values[G.entry()] = Entry;
    for (Loc L : Info.Rpo) {
      if (L == G.entry())
        continue;
      if (Info.inAnyLoop(L)) {
        if (isOutermostHead(L))
          solveLoop(L, joinIncoming(L, InvalidLoc));
        continue; // loop-body locations are handled inside solveLoop
      }
      Values[L] = joinIncoming(L, InvalidLoc);
    }
    return Values;
  }

private:
  const Cfg &G;
  const CfgInfo &Info;
  Statistics *Stats;
  TransferFn Hook;
  std::map<Loc, Elem> Values;

  Elem applyTransfer(const Stmt &S, const Elem &In) {
    if (Stats)
      ++Stats->Transfers;
    return Hook ? Hook(S, In) : D::transfer(S, In);
  }

  bool isOutermostHead(Loc L) const {
    std::span<const Loc> Nest = Info.loopNest(L);
    return !Nest.empty() && Nest.size() == 1 && Nest[0] == L;
  }

  /// True if \p L is a loop head whose loop is *directly* nested in
  /// \p Enclosing (i.e. solving Enclosing's body must recurse at L).
  bool isHeadDirectlyWithin(Loc L, Loc Enclosing) const {
    std::span<const Loc> Nest = Info.loopNest(L);
    if (Nest.empty() || Nest.back() != L)
      return false;
    return Nest.size() >= 2 && Nest[Nest.size() - 2] == Enclosing;
  }

  /// Join of transfers over the forward in-edges of \p L (in fwd-edges-to
  /// index order, matching the DAIG's k-ary join cell). When \p Within is a
  /// loop head, only edges from inside its natural loop are considered.
  Elem joinIncoming(Loc L, Loc Within) {
    Elem Acc = D::bottom();
    bool FirstIn = true;
    unsigned Considered = 0;
    for (EdgeId Id : Info.fwdEdgesTo(L)) {
      const CfgEdge *E = G.findEdge(Id);
      if (Within != InvalidLoc && !Info.inLoop(Within, E->Src))
        continue;
      ++Considered;
      Elem V = applyTransfer(E->Label, Values[E->Src]);
      if (FirstIn) {
        Acc = std::move(V);
        FirstIn = false;
      } else {
        if (Stats)
          ++Stats->Joins;
        Acc = D::join(Acc, V);
      }
    }
    (void)Considered;
    return Acc;
  }

  /// Computes the widened fixed point at head \p H starting from iterate
  /// \p X0 and publishes converged values for the whole natural loop.
  void solveLoop(Loc H, Elem X0) {
    const CfgEdge *Back = G.findEdge(Info.backEdgeOf(H));
    Elem X = std::move(X0);
    for (;;) {
      Values[H] = X;
      analyzeBody(H);
      Elem PreWiden = applyTransfer(Back->Label, Values[Back->Src]);
      if (Stats)
        ++Stats->Widens;
      Elem XNext = D::widen(X, PreWiden);
      if (Stats)
        ++Stats->FixChecks;
      if (D::equal(X, XNext)) {
        Values[H] = X;
        return;
      }
      X = std::move(XNext);
    }
  }

  /// One abstract iteration of a loop body: forward propagation inside the
  /// natural loop, solving directly nested loops recursively.
  void analyzeBody(Loc H) {
    for (Loc L : Info.Rpo) {
      if (L == H || !Info.inLoop(H, L))
        continue;
      std::span<const Loc> Nest = Info.loopNest(L);
      assert(!Nest.empty() && "loop-body locations have a loop nest");
      if (Nest.back() == H) {
        // Innermost enclosing loop is H: plain body location.
        Values[L] = joinIncoming(L, H);
        continue;
      }
      if (isHeadDirectlyWithin(L, H)) {
        solveLoop(L, joinIncoming(L, H));
        continue;
      }
      // Deeper location: handled inside the directly nested solveLoop.
    }
  }
};

} // namespace dai

#endif // DAI_ANALYSIS_BATCH_INTERPRETER_H
