//===-- cfg/edits.cpp - Structured CFG edit operations --------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cfg/edits.h"

#include "cfg/cfg_analysis.h"

#include <cassert>

using namespace dai;

bool dai::replaceEdgeStmt(Cfg &G, EdgeId Id, Stmt NewStmt) {
  return G.replaceStmt(Id, std::move(NewStmt));
}

namespace {

/// Splices a fresh location after L (the hammock's exit): L's outgoing edges
/// are re-sourced at the fresh location. For loop headers the splice is
/// performed *before* the loop instead (re-targeting incoming forward edges),
/// because moving a header's exit edges onto a body location would create
/// loop exits from non-header locations, which the DAIG naming scheme (and
/// the paper's, footnote 5) does not support. Returns {hammockEnd,
/// hammockStart}: new code goes between hammockStart and hammockEnd.
std::pair<Loc, Loc> spliceAt(Cfg &G, Loc L) {
  assert(L != G.exit() && "cannot insert code after the procedure exit");
  // Loop headers are identified by genuine (dominance-based) back edges —
  // merely sitting on a cycle does not make a location a header. The cached
  // snapshot is pinned BEFORE the mutations below invalidate it: pre-edit
  // facts, L's edge lists included, are exactly what the splice needs, and
  // between edits the probe is a version compare, not a fresh analyzeCfg.
  std::shared_ptr<const CfgInfo> Info = G.infoShared();
  assert(Info->valid() && "edits require a well-formed CFG");
  Loc M = G.addLoc();
  if (Info->isLoopHead(L)) {
    // Splice before the header: forward in-edges now enter M; the new code
    // runs once, before the loop. The back edge keeps targeting L.
    for (EdgeId Id : Info->predEdges(L))
      if (!Info->isBackEdge(Id))
        G.redirectDst(Id, M);
    return {L, M}; // code goes M → ... → L
  }
  for (EdgeId Id : Info->succEdges(L))
    G.redirectSrc(Id, M);
  return {M, L}; // code goes L → ... → M
}

} // namespace

InsertResult dai::insertStmtAt(Cfg &G, Loc L, Stmt S) {
  InsertResult R;
  auto [End, Start] = spliceAt(G, L);
  R.HammockExit = End;
  R.FirstNewEdge = G.addEdge(Start, End, std::move(S));
  return R;
}

InsertResult dai::insertIfAt(Cfg &G, Loc L, ExprPtr Cond, Stmt Then,
                             Stmt Else) {
  InsertResult R;
  auto [End, Start] = spliceAt(G, L);
  R.HammockExit = End;
  Loc ThenEntry = G.addLoc();
  Loc ElseEntry = G.addLoc();
  R.FirstNewEdge = G.addEdge(Start, ThenEntry, Stmt::mkAssume(Cond));
  G.addEdge(Start, ElseEntry, Stmt::mkAssume(negate(Cond)));
  G.addEdge(ThenEntry, End, std::move(Then));
  G.addEdge(ElseEntry, End, std::move(Else));
  return R;
}

InsertResult dai::insertWhileAt(Cfg &G, Loc L, ExprPtr Cond, Stmt Body) {
  InsertResult R;
  auto [End, Start] = spliceAt(G, L);
  R.HammockExit = End;
  Loc Head = G.addLoc();
  Loc BodyEntry = G.addLoc();
  R.FirstNewEdge = G.addEdge(Start, Head, Stmt::mkSkip());
  G.addEdge(Head, BodyEntry, Stmt::mkAssume(Cond));
  G.addEdge(Head, End, Stmt::mkAssume(negate(Cond)));
  G.addEdge(BodyEntry, Head, std::move(Body)); // single back edge
  return R;
}
