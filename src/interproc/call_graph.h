//===-- interproc/call_graph.h - Static call graph --------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static call graph over a Program's `x = f(ys)` statements (the
/// paper's implementation supports static calling semantics: no virtual
/// dispatch or higher-order functions, Section 7.1). Used to reject
/// recursive programs up front — the paper's interprocedural scheme targets
/// non-recursive programs — and to enumerate call edges for cross-DAIG
/// invalidation.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_INTERPROC_CALL_GRAPH_H
#define DAI_INTERPROC_CALL_GRAPH_H

#include "cfg/program.h"
#include "support/symbol.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace dai {

/// One call edge: caller function, CFG edge, callee name. Endpoints are
/// interned SymbolIds so the engine's cross-DAIG invalidation sweep
/// (drainDirtyExits) filters edges with integer compares.
struct CallEdge {
  SymbolId Caller = kNoSymbol;
  EdgeId Edge = InvalidEdgeId;
  SymbolId Callee = kNoSymbol;
};

/// Static call graph of a whole program.
struct CallGraph {
  std::vector<CallEdge> Edges;
  std::map<std::string, std::set<std::string>> Callees; ///< fn → callee names
  std::string Error; ///< Non-empty on recursion or missing callees.

  bool valid() const { return Error.empty(); }
};

/// Builds the call graph of \p P; detects recursion (including mutual) and
/// calls to undefined functions.
inline CallGraph buildCallGraph(const Program &P) {
  CallGraph CG;
  for (const auto &[Name, F] : P.Functions) {
    CG.Callees[Name]; // ensure every function has a node
    for (const auto &[Id, E] : F.Body.edges()) {
      if (E.Label.Kind != StmtKind::Call)
        continue;
      if (!P.find(E.Label.Callee)) {
        CG.Error = "call to undefined function '" + E.Label.Callee +
                   "' in '" + Name + "'";
        return CG;
      }
      CG.Edges.push_back(
          CallEdge{internSymbol(Name), Id, internSymbol(E.Label.Callee)});
      CG.Callees[Name].insert(E.Label.Callee);
    }
  }
  // Recursion check: DFS three-coloring over the callee relation.
  enum Color { White, Grey, Black };
  std::map<std::string, Color> Colors;
  for (const auto &[Name, Ignored] : CG.Callees)
    Colors[Name] = White;
  // Iterative DFS with an explicit stack of (node, next-callee iterator).
  for (const auto &[Root, Ignored] : CG.Callees) {
    (void)Ignored;
    if (Colors[Root] != White)
      continue;
    std::vector<std::pair<std::string, std::set<std::string>::const_iterator>>
        Stack;
    Colors[Root] = Grey;
    Stack.emplace_back(Root, CG.Callees[Root].begin());
    while (!Stack.empty()) {
      auto &[Node, It] = Stack.back();
      if (It == CG.Callees[Node].end()) {
        Colors[Node] = Black;
        Stack.pop_back();
        continue;
      }
      const std::string &Next = *It++;
      if (Colors[Next] == Grey) {
        CG.Error = "recursive call cycle through '" + Next +
                   "' (the demanded interprocedural scheme requires "
                   "non-recursive programs)";
        return CG;
      }
      if (Colors[Next] == White) {
        Colors[Next] = Grey;
        Stack.emplace_back(Next, CG.Callees[Next].begin());
      }
    }
  }
  return CG;
}

} // namespace dai

#endif // DAI_INTERPROC_CALL_GRAPH_H
