//===-- bench/sec72_shape_analysis.cpp - Section 7.2 shape study ----------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the **Section 7.2 shape study**: demanded separation-logic
/// shape analysis verifying the correctness (returned list is well-formed)
/// and memory-safety of the `append` procedure of Fig. 1/2 plus Buckets.js-
/// style list utilities (`foreach`, `indexOf`, ...), reporting the demanded
/// unrolling count per loop — the paper: append's ℓ3–ℓ4–ℓ3 loop converges
/// in ONE demanded unrolling with a precise result.
///
//===----------------------------------------------------------------------===//

#include "bench/rows.h"
#include "cfg/lowering.h"
#include "daig/daig.h"
#include "domain/shape.h"

#include <chrono>
#include <cstdio>

using namespace dai;

namespace {

struct ListProgram {
  const char *Name;
  const char *Fn;
  const char *Source;
  bool ExpectSafe;
  bool ExpectWellFormedResult;
};

const ListProgram ListPrograms[] = {
    {"append (Fig. 1)", "append", R"(
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
})",
     true, true},

    {"foreach", "foreach", R"(
function foreach(list) {
  var cur = list;
  while (cur != null) {
    print(cur);
    cur = cur.next;
  }
  return list;
})",
     true, true},

    {"indexOf", "indexOf", R"(
function indexOf(list, key) {
  var cur = list;
  var idx = 0;
  var found = 0 - 1;
  while (cur != null) {
    if (idx == key) { found = idx; }
    cur = cur.next;
    idx = idx + 1;
  }
  return found;
})",
     true, false /* returns an int, not a list */},

    {"prepend", "prepend", R"(
function prepend(list) {
  var node = new List;
  node.next = list;
  return node;
})",
     true, true},

    {"lastNode", "lastNode", R"(
function lastNode(list) {
  if (list == null) { return null; }
  var cur = list;
  while (cur.next != null) {
    cur = cur.next;
  }
  return cur;
})",
     true, true},

    {"dropFirst", "dropFirst", R"(
function dropFirst(list) {
  if (list == null) { return null; }
  var rest = list.next;
  return rest;
})",
     true, true},

    {"unsafe deref (negative control)", "bad", R"(
function bad(p) {
  var x = p.next;
  return x;
})",
     false, false},
};

} // namespace

int main() {
  std::printf("# Section 7.2 reproduction: demanded shape analysis of list "
              "procedures\n");
  std::printf("# entry assumption per procedure: parameters are well-formed "
              "separated lists\n\n");
  std::printf("%-34s %8s %12s %10s %11s %10s\n", "Program", "safe?",
              "wf-result?", "unrolls", "transfers", "time(us)");

  int Failures = 0;
  Statistics Total;
  double TotalUs = 0;
  for (const ListProgram &P : ListPrograms) {
    LowerResult LR = frontend(P.Source);
    if (!LR.ok()) {
      std::fprintf(stderr, "%s: %s\n", P.Name, LR.Error.c_str());
      ++Failures;
      continue;
    }
    Function &F = *LR.Prog.find(P.Fn);
    Statistics Stats;
    auto Start = std::chrono::steady_clock::now();
    Daig<ShapeDomain> G(&F.Body, ShapeDomain::initialEntry(F.Params), &Stats);
    ShapeState Exit = G.queryLocation(F.Body.exit());
    double Us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    bool Safe = ShapeDomain::provesMemorySafety(Exit);
    bool WellFormed = ShapeDomain::provesListInvariant(Exit, RetVar);
    std::printf("%-34s %8s %12s %10llu %11llu %10.0f\n", P.Name,
                Safe ? "yes" : "NO", WellFormed ? "yes" : "no",
                (unsigned long long)Stats.Unrollings,
                (unsigned long long)Stats.Transfers, Us);
    if (Safe != P.ExpectSafe ||
        (P.ExpectWellFormedResult && !WellFormed))
      ++Failures;
    Total.mergeFrom(Stats);
    TotalUs += Us;
  }
  std::printf("\n# Paper: all utilities verify; append converges in one "
              "demanded unrolling.\n");

  // Machine-readable tail: the corpus-wide totals in one row.
  bench::Row Row("sec72_shape", "shape", "programs",
                 sizeof(ListPrograms) / sizeof(ListPrograms[0]),
                 TotalUs / 1000);
  Row.add("failures", static_cast<uint64_t>(Failures));
  Row.addFamily(Total);
  std::printf("\nJSON: %s\n", Row.json().c_str());
  if (Failures) {
    std::printf("# %d UNEXPECTED verification outcomes\n", Failures);
    return 1;
  }
  return 0;
}
