//===-- cfg/cfg.cpp - Control-flow graph implementation -------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cfg/cfg.h"

#include <cassert>
#include <sstream>

using namespace dai;

Cfg::Cfg() {
  Entry = addLoc();
  Exit = addLoc();
}

Loc Cfg::addLoc() {
  ++Version;
  ++StructVersion;
  return NextLoc++;
}

EdgeId Cfg::addEdge(Loc Src, Loc Dst, Stmt Label) {
  assert(Src < NextLoc && Dst < NextLoc && "edge endpoints must be allocated");
  ++Version;
  ++StructVersion;
  EdgeId Id = NextEdge++;
  assert(Id == EdgesById.size() && "edge ids are allocated densely");
  EdgesById.push_back(CfgEdge{Id, Src, Dst, std::move(Label)});
  ++LiveEdges;
  return Id;
}

bool Cfg::replaceStmt(EdgeId Id, Stmt NewLabel) {
  CfgEdge *E = liveEdge(Id);
  if (!E)
    return false;
  // Statement-only edit: the shape is untouched, so StructVersion (and the
  // cached CfgInfo keyed by it) survives.
  ++Version;
  E->Label = std::move(NewLabel);
  return true;
}

bool Cfg::redirectSrc(EdgeId Id, Loc NewSrc) {
  CfgEdge *E = liveEdge(Id);
  if (!E)
    return false;
  assert(NewSrc < NextLoc && "edge endpoints must be allocated");
  ++Version;
  ++StructVersion;
  E->Src = NewSrc;
  return true;
}

bool Cfg::removeEdge(EdgeId Id) {
  CfgEdge *E = liveEdge(Id);
  if (!E)
    return false;
  ++Version;
  ++StructVersion;
  // Tombstone the slot: ids are never reused, so the dense index stays
  // valid for every surviving edge.
  *E = CfgEdge{};
  --LiveEdges;
  return true;
}

bool Cfg::redirectDst(EdgeId Id, Loc NewDst) {
  CfgEdge *E = liveEdge(Id);
  if (!E)
    return false;
  assert(NewDst < NextLoc && "edge endpoints must be allocated");
  ++Version;
  ++StructVersion;
  E->Dst = NewDst;
  return true;
}

std::string Cfg::toString() const {
  std::ostringstream OS;
  OS << "entry=l" << Entry << " exit=l" << Exit << "\n";
  for (const auto &[Id, E] : edges())
    OS << "  [e" << Id << "] l" << E.Src << " --{" << E.Label.toString()
       << "}--> l" << E.Dst << "\n";
  return OS.str();
}
