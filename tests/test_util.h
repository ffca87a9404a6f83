//===-- tests/test_util.h - Shared test helpers -----------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared fixtures: canned programs (including the paper's `append` from
/// Fig. 1), frontend helpers, and cross-checking of DAIG query results
/// against the batch interpreter (Theorem 6.1, from-scratch consistency).
///
//===----------------------------------------------------------------------===//

#ifndef DAI_TESTS_TEST_UTIL_H
#define DAI_TESTS_TEST_UTIL_H

#include "analysis/batch_interpreter.h"
#include "cfg/lowering.h"
#include "daig/daig.h"

#include <gtest/gtest.h>

namespace dai::test {

/// The paper's Fig. 1 running example.
inline constexpr const char *AppendSource = R"(
function append(p, q) {
  if (p == null) {
    return q;
  }
  var r = p;
  while (r.next != null) {
    r = r.next;
  }
  r.next = q;
  return p;
}
)";

/// Parses and lowers \p Source, expecting success.
inline Program mustLower(std::string_view Source) {
  LowerResult R = frontend(Source);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.Prog);
}

inline Function mustLowerFn(std::string_view Source, const std::string &Name) {
  Program P = mustLower(Source);
  Function *F = P.find(Name);
  EXPECT_NE(F, nullptr) << "no function named " << Name;
  return std::move(*F);
}

/// The destination of the edge of \p G labelled \p Text.
inline Loc destOf(const Cfg &G, const std::string &Text) {
  for (const auto &[Id, E] : G.edges())
    if (E.Label.toString() == Text)
      return E.Dst;
  ADD_FAILURE() << "no edge labelled " << Text;
  return InvalidLoc;
}

/// The id of the edge of \p G labelled \p Text.
inline EdgeId edgeOf(const Cfg &G, const std::string &Text) {
  for (const auto &[Id, E] : G.edges())
    if (E.Label.toString() == Text)
      return Id;
  ADD_FAILURE() << "no edge labelled " << Text;
  return InvalidEdgeId;
}

/// The back edges of \p G per \p Info, ascending.
inline std::vector<EdgeId> backEdges(const Cfg &G, const CfgInfo &Info) {
  std::vector<EdgeId> Out;
  for (const auto &[Id, E] : G.edges())
    if (Info.isBackEdge(Id))
      Out.push_back(Id);
  return Out;
}

/// The join points (forward in-degree ≥ 2) per \p Info, ascending.
inline std::vector<Loc> joinPoints(const CfgInfo &Info) {
  std::vector<Loc> Out;
  for (Loc L = 0; L < Info.numLocs(); ++L)
    if (Info.isJoin(L))
      Out.push_back(L);
  return Out;
}

/// A straight-line main of \p N statements `xI = xI-1 + 1`.
inline Function straightLine(unsigned N) {
  std::string Src = "function main(n) {\n  var x0 = n;\n";
  for (unsigned I = 1; I < N; ++I)
    Src += "  var x" + std::to_string(I) + " = x" + std::to_string(I - 1) +
           " + 1;\n";
  Src += "  return x" + std::to_string(N - 1) + ";\n}\n";
  return mustLowerFn(Src, "main");
}

/// Asserts that DAIG queries agree with the batch interpreter at every
/// reachable location of \p F (from-scratch consistency, Theorem 6.1).
template <typename D>
void expectFromScratchConsistent(Function &F, Daig<D> &Graph,
                                 const std::string &Context = "") {
  CfgInfo Info = analyzeCfg(F.Body);
  ASSERT_TRUE(Info.valid()) << Info.Error;
  BatchInterpreter<D> Batch(F.Body, Info);
  auto Expected = Batch.run(D::initialEntry(F.Params));
  for (Loc L : Info.Rpo) {
    typename D::Elem Got = Graph.queryLocation(L);
    EXPECT_TRUE(D::equal(Got, Expected.at(L)))
        << Context << " location l" << L << ": demanded=" << D::toString(Got)
        << " batch=" << D::toString(Expected.at(L));
  }
  EXPECT_EQ(Graph.checkWellFormed(), "") << Context;
  EXPECT_EQ(Graph.checkAiConsistency(), "") << Context;
}

} // namespace dai::test

#endif // DAI_TESTS_TEST_UTIL_H
