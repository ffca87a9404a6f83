//===-- cfg/edits.h - Structured CFG edit operations ------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program-edit operations of the paper's evaluation (Section 7.3): an
/// edit is an in-place statement replacement (Cfg::replaceStmt), or the
/// insertion of a statement, if-then-else, or while loop at a program
/// location. Insertions splice a single-entry hammock after the location:
/// existing outgoing edges are redirected (keeping their EdgeIds, hence
/// their join indices) to the hammock's exit, so all pre-existing DAIG cell
/// names remain meaningful.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_CFG_EDITS_H
#define DAI_CFG_EDITS_H

#include "cfg/cfg.h"

namespace dai {

/// Description of a performed insertion, for logging and tests.
struct InsertResult {
  Loc HammockExit = InvalidLoc;  ///< Where the original successors now hang.
  EdgeId FirstNewEdge = InvalidEdgeId;
};

/// Inserts `S` immediately after \p L: L —[S]→ m, with L's previous outgoing
/// edges re-sourced at m. \p L must not be the CFG exit.
InsertResult insertStmtAt(Cfg &G, Loc L, Stmt S);

/// Inserts `if (Cond) { Then } else { Else }` immediately after \p L.
InsertResult insertIfAt(Cfg &G, Loc L, ExprPtr Cond, Stmt Then, Stmt Else);

/// Inserts `while (Cond) { Body }` immediately after \p L. A fresh header is
/// created (so \p L never acquires a second back edge).
InsertResult insertWhileAt(Cfg &G, Loc L, ExprPtr Cond, Stmt Body);

} // namespace dai

#endif // DAI_CFG_EDITS_H
