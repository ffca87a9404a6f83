//===-- analysis/checks_db.cpp - Alarm database ---------------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/checks_db.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <sstream>

using namespace dai;

const char *dai::checkKindName(CheckKind K) {
  switch (K) {
  case CheckKind::UserAssertion: return "assertion";
  case CheckKind::DivByZero: return "div-by-zero";
  case CheckKind::ArrayBounds: return "array-bounds";
  case CheckKind::Overflow: return "overflow";
  }
  assert(false && "unknown check kind");
  return "?";
}

const char *dai::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Safe: return "SAFE";
  case Verdict::Warning: return "WARNING";
  case Verdict::Error: return "ERROR";
  case Verdict::Unreachable: return "UNREACHABLE";
  }
  assert(false && "unknown verdict");
  return "?";
}

namespace {

void clampDegraded(CheckResult &R) {
  if (R.DegradedPre && R.V == Verdict::Safe)
    R.V = Verdict::Warning; // a coarsened pre-state proves nothing
}

} // namespace

void ChecksDb::add(CheckResult R, Statistics *Stats) {
  clampDegraded(R);
  ++Total.of(R.V);
  if (Stats && (R.V == Verdict::Warning || R.V == Verdict::Error))
    ++Stats->AlarmsRaised;
  ByLoc[R.At].push_back(std::move(R));
}

void ChecksDb::replaceEdge(EdgeId Edge, Loc OldAt,
                           std::vector<CheckResult> Rows) {
  auto BeforeEdge = [](const CheckResult &R, EdgeId E) { return R.Edge < E; };
  if (auto It = ByLoc.find(OldAt); It != ByLoc.end()) {
    std::vector<CheckResult> &Old = It->second;
    auto First = std::lower_bound(Old.begin(), Old.end(), Edge, BeforeEdge);
    auto Last = First;
    for (; Last != Old.end() && Last->Edge == Edge; ++Last)
      --Total.of(Last->V);
    Old.erase(First, Last);
    if (Old.empty())
      ByLoc.erase(It);
  }
  if (Rows.empty())
    return;
  for (CheckResult &R : Rows) {
    assert(R.Edge == Edge && R.At == Rows.front().At);
    clampDegraded(R);
    ++Total.of(R.V);
  }
  std::vector<CheckResult> &New = ByLoc[Rows.front().At];
  New.insert(std::lower_bound(New.begin(), New.end(), Edge, BeforeEdge),
             std::make_move_iterator(Rows.begin()),
             std::make_move_iterator(Rows.end()));
}

void ChecksDb::clear() {
  ByLoc.clear();
  Total = VerdictCounts();
}

const std::vector<CheckResult> &ChecksDb::at(Loc L) const {
  static const std::vector<CheckResult> Empty;
  auto It = ByLoc.find(L);
  return It == ByLoc.end() ? Empty : It->second;
}

std::vector<Loc> ChecksDb::locations() const {
  std::vector<Loc> Out;
  Out.reserve(ByLoc.size());
  for (const auto &[L, Results] : ByLoc) {
    (void)Results;
    Out.push_back(L);
  }
  return Out;
}

Verdict ChecksDb::worstAt(Loc L) const {
  auto It = ByLoc.find(L);
  Verdict Worst = Verdict::Unreachable;
  auto rank = [](Verdict V) {
    switch (V) {
    case Verdict::Error: return 3;
    case Verdict::Warning: return 2;
    case Verdict::Safe: return 1;
    case Verdict::Unreachable: return 0;
    }
    return 0;
  };
  if (It != ByLoc.end())
    for (const CheckResult &R : It->second)
      if (rank(R.V) > rank(Worst))
        Worst = R.V;
  return Worst;
}

std::string ChecksDb::report() const {
  std::ostringstream OS;
  for (const auto &[L, Results] : ByLoc) {
    OS << "L" << L << ":\n";
    for (const CheckResult &R : Results) {
      OS << "  [" << verdictName(R.V) << "] " << checkKindName(R.Kind) << " "
         << R.Text << " (edge " << R.Edge << ", " << R.DomainName;
      if (R.DegradedPre)
        OS << ", degraded pre-state";
      OS << ")\n";
    }
  }
  OS << "checks: " << Total.total() << " total, " << Total.Safe << " safe, "
     << Total.Warning << " warning, " << Total.Error << " error, "
     << Total.Unreachable << " unreachable\n";
  return OS.str();
}
