//===-- tests/bench_gate_test.cpp - The bench regression gate -------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// bench/gate.h against in-memory bench JSONs and the real rules table:
/// every degraded input must give its named verdict and exit status —
/// never a silent pass. Fixtures are edited copies of one good fig10 file
/// and one good batch_verify file.
///
//===----------------------------------------------------------------------===//

#include "bench/gate.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace dai::gate;

namespace {

const std::string Fig10 = R"({"bench": "fig10_octagon_workload",
  "rows": [
    {"phase": "sweep", "domain": "octagon", "vars": 8, "wall_ms": 10.5, "counters": {"dbm_cells_touched": 1000}},
    {"phase": "sweep", "domain": "octagon", "vars": 16, "wall_ms": 22.5, "counters": {"dbm_cells_touched": 2000}},
    {"phase": "sweep", "domain": "zone", "vars": 16, "wall_ms": 4.5, "counters": {"zone_closure_vertices_visited": 300, "budget_exhaustions": 0}},
    {"phase": "sweep", "domain": "staged", "vars": 16, "wall_ms": 6.0, "counters": {"staged_escalated_transfers": 120, "sum_mismatches": 0, "budget_exhaustions": 0, "degraded_cells": 0, "cancellations_honored": 0}},
    {"phase": "sweep", "domain": "dis_interval", "vars": 8, "wall_ms": 5.0, "counters": {"dis_interval_partitions_collapsed": 11}},
    {"phase": "sweep", "domain": "dis_interval", "vars": 16, "wall_ms": 5.0, "counters": {"dis_interval_partitions_collapsed": 18}},
    {"phase": "sweep", "domain": "dis_interval", "vars": 32, "wall_ms": 5.0, "counters": {"dis_interval_partitions_collapsed": 0}},
    {"phase": "sweep", "domain": "dis_interval", "vars": 48, "wall_ms": 5.0, "counters": {"dis_interval_partitions_collapsed": 0}}
  ]})";

const std::string Verify = R"({"bench": "batch_verify",
  "rows": [
    {"phase": "parallel_corpus", "domain": "interval", "threads": 2, "wall_ms": 30.0, "counters": {"parallel_result_mismatches": 0}},
    {"phase": "recheck", "domain": "interval", "vars": 8, "wall_ms": 12.0, "counters": {"transfers": 14300, "cells_dirtied": 15500, "checks_rechecked": 1500, "verdict_mismatches": 0}},
    {"phase": "recheck", "domain": "interval", "vars": 16, "wall_ms": 40.0, "counters": {"transfers": 14100, "cells_dirtied": 15600, "checks_rechecked": 2000, "verdict_mismatches": 0}},
    {"phase": "corpus", "domain": "arr_interval", "threads": 1, "wall_ms": 4.0, "counters": {"unsafe_expected": 3, "unsafe_missed": 0}}
  ]})";

const std::string Trace = R"("counters": {"dai_trace_events_dropped": 0, )"
                          R"("dai_trace_events_recorded": 0},)";

/// \p S with \p From replaced by \p To; the fixture must contain \p From.
std::string edit(std::string S, const std::string &From,
                 const std::string &To) {
  size_t At = S.find(From);
  EXPECT_NE(At, std::string::npos) << "fixture lacks: " << From;
  if (At != std::string::npos)
    S.replace(At, From.size(), To);
  return S;
}

/// \p S without the rows holding \p Needle.
std::string dropRows(std::string S, const std::string &Needle) {
  EXPECT_NE(S.find(Needle), std::string::npos) << "fixture lacks: " << Needle;
  for (size_t At; (At = S.find(Needle)) != std::string::npos;) {
    size_t B = S.rfind("\n    {", At);
    S.erase(B, S.find('\n', At) - B);
  }
  // The last row carries no comma.
  size_t Close = S.rfind("\n  ]");
  if (S[Close - 1] == ',')
    S.erase(Close - 1, 1);
  return S;
}

/// \p S with counter \p Name's value \p From replaced by \p To.
std::string set(const std::string &S, const std::string &Name,
                const std::string &From, const std::string &To) {
  return edit(S, "\"" + Name + "\": " + From, "\"" + Name + "\": " + To);
}

std::string withTrace(const std::string &S) {
  return edit(S, "\n  \"rows\"", "\n  " + Trace + "\n  \"rows\"");
}

const std::string Collapsed = "dis_interval_partitions_collapsed";

Input file(std::string Text) { return {"f.json", std::move(Text)}; }
Input missing() { return {"absent.json", std::nullopt}; }

struct Outcome {
  int Exit;
  std::string Out;
  bool has(const std::string &Verdict) const {
    return Out.find(Verdict) != std::string::npos;
  }
};

Outcome gate(std::vector<std::pair<Input, Input>> Pairs) {
  std::ostringstream OS;
  Gate G(OS);
  for (const auto &[Base, Fresh] : Pairs)
    G.check(Base, Fresh);
  return {G.status(), OS.str()};
}

Outcome fig10(const std::string &Base, const std::string &Fresh) {
  return gate({{file(Base), file(Fresh)}});
}

Outcome both(const std::string &VerifyBase, const std::string &VerifyFresh) {
  return gate({{file(Fig10), file(Fig10)},
               {file(VerifyBase), file(VerifyFresh)}});
}

/// The run exited with \p Exit and printed \p Verdict.
::testing::AssertionResult verdict(const Outcome &R, int Exit,
                                   const std::string &Verdict) {
  if (R.Exit != Exit)
    return ::testing::AssertionFailure()
           << "exit " << R.Exit << ", expected " << Exit << ":\n"
           << R.Out;
  if (!R.has(Verdict))
    return ::testing::AssertionFailure()
           << "no \"" << Verdict << "\" in:\n"
           << R.Out;
  return ::testing::AssertionSuccess();
}

//===----------------------------------------------------------------------===//
// Cases ported from the shell gate's selftest
//===----------------------------------------------------------------------===//

TEST(BenchGate, IdenticalFilesPass) {
  Outcome R = fig10(Fig10, Fig10);
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_TRUE(R.has("OK [")) << R.Out;
  EXPECT_FALSE(R.has("FAIL")) << R.Out;
}

TEST(BenchGate, MissingBaselineSkips) {
  EXPECT_TRUE(verdict(gate({{missing(), file(Fig10)}}), 0,
                      "SKIP [fig10_octagon_workload]: baseline absent.json"));
}

TEST(BenchGate, MissingFreshFailsWithStatus2) {
  EXPECT_TRUE(verdict(gate({{file(Fig10), missing()}}), 2,
                      "FAIL [gate]: fresh results absent.json"));
}

TEST(BenchGate, BaselinePredatingADomainSkipsItsRule) {
  EXPECT_TRUE(verdict(fig10(dropRows(Fig10, "\"staged\""), Fig10), 0,
                      "SKIP [fig10_octagon_workload sweep/staged"));
  EXPECT_TRUE(verdict(fig10(dropRows(Fig10, "\"dis_interval\""), Fig10), 0,
                      "SKIP [fig10_octagon_workload sweep/dis_interval"));
}

TEST(BenchGate, FreshRunDroppingABaselineRowFails) {
  EXPECT_TRUE(verdict(fig10(Fig10, dropRows(Fig10, "\"zone\"")), 1,
                      "FAIL [fig10_octagon_workload sweep/zone vars=16]"));
}

TEST(BenchGate, StringValuedCounterFails) {
  EXPECT_TRUE(
      verdict(fig10(Fig10, set(Fig10, "dbm_cells_touched", "2000", "\"lots\"")),
              1, "counter \"dbm_cells_touched\" is not a number"));
  EXPECT_TRUE(verdict(
      fig10(Fig10, set(Fig10, Collapsed, "18", "\"many\"")), 1, "FAIL [gate]"));
}

TEST(BenchGate, RegressionBeyondTheLimitFails) {
  EXPECT_TRUE(
      verdict(fig10(Fig10, set(Fig10, "dbm_cells_touched", "2000", "2200")), 1,
              "FAIL [fig10_octagon_workload sweep/octagon vars=16 "
              "dbm_cells_touched]: regressed"));
  EXPECT_TRUE(verdict(fig10(Fig10, set(Fig10, Collapsed, "18", "60")), 1,
                      "FAIL [fig10_octagon_workload sweep/dis_interval"));
  // Up to the 5% limit is not a regression.
  EXPECT_TRUE(
      verdict(fig10(Fig10, set(Fig10, "dbm_cells_touched", "2000", "2100")), 0,
              "OK [fig10_octagon_workload sweep/octagon vars=16"));
}

TEST(BenchGate, NamesInternedBeyondTheBaselineFails) {
  auto withNames = [](const std::string &N) {
    return edit(Fig10, "\"dbm_cells_touched\": 2000}",
                "\"dbm_cells_touched\": 2000, \"names_interned\": " + N + "}");
  };
  EXPECT_TRUE(verdict(fig10(withNames("2000"), withNames("2100")), 0,
                      "OK [fig10_octagon_workload sweep/octagon vars=16 "
                      "names_interned]"));
  EXPECT_TRUE(verdict(fig10(withNames("2000"), withNames("2200")), 1,
                      "FAIL [fig10_octagon_workload sweep/octagon vars=16 "
                      "names_interned]: regressed beyond the limit: "
                      "baseline 2000, fresh 2200 (+10.00%)"));
}

TEST(BenchGate, NonzeroCrossCheckOrBudgetCounterFails) {
  EXPECT_TRUE(verdict(fig10(Fig10, set(Fig10, "sum_mismatches", "0", "3")), 1,
                      "FAIL [fig10_octagon_workload sum_mismatches]: "
                      "sweep/staged vars=16 holds 3"));
  EXPECT_TRUE(verdict(fig10(Fig10, set(Fig10, "budget_exhaustions",
                                       "0, \"degraded", "2, \"degraded")),
                      1, "FAIL [fig10_octagon_workload budget_exhaustions]"));
  EXPECT_TRUE(verdict(fig10(Fig10, set(Fig10, "degraded_cells", "0", "7")), 1,
                      "FAIL [fig10_octagon_workload degraded_cells]"));
  EXPECT_TRUE(
      verdict(fig10(Fig10, set(Fig10, "cancellations_honored", "0", "1")), 1,
              "FAIL [fig10_octagon_workload cancellations_honored]"));
}

TEST(BenchGate, CheckerPairPasses) {
  EXPECT_TRUE(verdict(both(Verify, Verify), 0,
                      "OK [batch_verify verdict_mismatches]"));
}

TEST(BenchGate, CheckerRegressionFails) {
  EXPECT_TRUE(
      verdict(both(Verify, set(Verify, "checks_rechecked", "2000", "2200")), 1,
              "FAIL [batch_verify recheck/interval vars=16"));
}

TEST(BenchGate, DaigWorkRegressionFails) {
  EXPECT_TRUE(
      verdict(both(Verify, set(Verify, "cells_dirtied", "15600", "16500")), 1,
              "FAIL [batch_verify recheck/interval vars=16 cells_dirtied]: "
              "regressed"));
  EXPECT_TRUE(
      verdict(both(Verify, set(Verify, "transfers", "14300", "15100")), 1,
              "FAIL [batch_verify recheck/interval vars=8 transfers]: "
              "regressed"));
}

TEST(BenchGate, CheckerVerdictMismatchFails) {
  std::string Bad = edit(Verify, "2000, \"verdict_mismatches\": 0",
                         "2000, \"verdict_mismatches\": 4");
  EXPECT_TRUE(verdict(both(Verify, Bad), 1,
                      "recheck/interval vars=16 holds 4 (must be 0)"));
}

TEST(BenchGate, CheckerMissingBaselineSkipsButStillChecksZeros) {
  EXPECT_TRUE(
      verdict(gate({{file(Fig10), file(Fig10)}, {missing(), file(Verify)}}),
              0, "SKIP [batch_verify]: baseline absent.json"));
  std::string Missed = set(Verify, "unsafe_missed", "0", "1");
  EXPECT_TRUE(
      verdict(gate({{file(Fig10), file(Fig10)}, {missing(), file(Missed)}}), 1,
              "FAIL [batch_verify unsafe_missed]"));
}

TEST(BenchGate, CheckerMissingFreshFails) {
  EXPECT_TRUE(
      verdict(gate({{file(Fig10), file(Fig10)}, {file(Verify), missing()}}), 1,
              "FAIL [gate]: fresh results absent.json"));
}

TEST(BenchGate, CheckerStringValuedMismatchFails) {
  EXPECT_TRUE(verdict(
      both(Verify, set(Verify, "verdict_mismatches", "0", "\"none\"")), 1,
      "counter \"verdict_mismatches\" is not a number"));
}

TEST(BenchGate, ParallelMismatchFails) {
  EXPECT_TRUE(verdict(
      both(Verify, set(Verify, "parallel_result_mismatches", "0", "2")), 1,
      "FAIL [batch_verify parallel_result_mismatches]"));
}

TEST(BenchGate, TraceCounters) {
  // Neither file carries them: a baseline predating the trace audit.
  EXPECT_TRUE(verdict(fig10(Fig10, Fig10), 0,
                      "SKIP [fig10_octagon_workload "
                      "dai_trace_events_recorded]"));
  // Zero in the fresh run passes, with or without them in the baseline.
  std::string Traced = withTrace(Fig10);
  EXPECT_TRUE(verdict(fig10(Fig10, Traced), 0,
                      "OK [fig10_octagon_workload dai_trace_events_recorded]"));
  EXPECT_TRUE(verdict(
      fig10(Fig10, set(Traced, "dai_trace_events_recorded", "0", "42")), 1,
      "FAIL [fig10_octagon_workload dai_trace_events_recorded]: counters "
      "holds 42"));
  EXPECT_TRUE(verdict(
      fig10(Fig10, set(Traced, "dai_trace_events_dropped", "0", "\"no\"")), 1,
      "counter \"dai_trace_events_dropped\" is not a number"));
  EXPECT_TRUE(verdict(both(Verify, set(withTrace(Verify),
                                       "dai_trace_events_dropped", "0", "3")),
                      1, "FAIL [batch_verify dai_trace_events_dropped]"));
}

//===----------------------------------------------------------------------===//
// Fields the baseline carries and the fresh run omits
//===----------------------------------------------------------------------===//

TEST(BenchGate, OmittedMustBeZeroCounterFails) {
  EXPECT_TRUE(verdict(fig10(Fig10, edit(Fig10, ", \"sum_mismatches\": 0", "")),
                      1,
                      "FAIL [fig10_octagon_workload sum_mismatches]: "
                      "sweep/staged vars=16 carries it in the baseline"));
  EXPECT_TRUE(verdict(
      fig10(Fig10, edit(Fig10,
                        ", \"budget_exhaustions\": 0, \"degraded_cells\": 0, "
                        "\"cancellations_honored\": 0",
                        "")),
      1, "FAIL [fig10_octagon_workload degraded_cells]"));
  EXPECT_TRUE(verdict(
      both(Verify, edit(Verify, "2000, \"verdict_mismatches\": 0", "2000")), 1,
      "FAIL [batch_verify verdict_mismatches]"));
  EXPECT_TRUE(verdict(
      both(Verify, edit(Verify, "\"parallel_result_mismatches\": 0", "")), 1,
      "FAIL [batch_verify parallel_result_mismatches]"));
  std::string Traced = withTrace(Fig10);
  EXPECT_TRUE(verdict(fig10(Traced, Fig10), 1,
                      "FAIL [fig10_octagon_workload counters]"));
  EXPECT_TRUE(verdict(
      fig10(Traced, edit(Traced, "\"dai_trace_events_dropped\": 0, ", "")), 1,
      "FAIL [fig10_octagon_workload dai_trace_events_dropped]"));
}

TEST(BenchGate, OmittedRegressionCounterFails) {
  EXPECT_TRUE(verdict(
      fig10(Fig10, edit(Fig10, "\"dbm_cells_touched\": 2000", "")), 1,
      "FAIL [fig10_octagon_workload sweep/octagon vars=16 dbm_cells_touched]: "
      "the baseline row carries it; the fresh row omits it"));
}

//===----------------------------------------------------------------------===//
// Every baseline row is gated, not only the largest size
//===----------------------------------------------------------------------===//

TEST(BenchGate, RegressionAtASmallerSizeFails) {
  EXPECT_TRUE(verdict(fig10(Fig10, set(Fig10, Collapsed, "18", "40")), 1,
                      "FAIL [fig10_octagon_workload sweep/dis_interval vars=16 "
                      "dis_interval_partitions_collapsed]: regressed"));
  EXPECT_TRUE(
      verdict(fig10(Fig10, set(Fig10, "dbm_cells_touched", "1000", "1100")), 1,
              "FAIL [fig10_octagon_workload sweep/octagon vars=8"));
}

TEST(BenchGate, FreshRunWithOtherSizesFails) {
  // The shell gate's "sweep-size mismatch": the fresh run stops at 32 vars.
  EXPECT_TRUE(verdict(fig10(Fig10, dropRows(Fig10, "\"vars\": 48")), 1,
                      "FAIL [fig10_octagon_workload sweep/dis_interval "
                      "vars=48]: the baseline has it; the fresh run does not"));
}

//===----------------------------------------------------------------------===//
// Files that are not bench JSONs
//===----------------------------------------------------------------------===//

TEST(BenchGate, TruncatedFileFails) {
  std::string Cut = Fig10.substr(0, Fig10.size() / 2);
  EXPECT_TRUE(verdict(fig10(Fig10, Cut), 1,
                      "FAIL [gate]: f.json is not a bench JSON: invalid JSON"));
  EXPECT_TRUE(verdict(fig10(Cut, Fig10), 1, "FAIL [gate]"));
  EXPECT_TRUE(
      verdict(fig10(Fig10, ""), 1, "unexpected end of input at byte 0"));
  EXPECT_TRUE(verdict(fig10(Fig10, Fig10 + "}"), 1, "trailing characters"));
}

TEST(BenchGate, MalformedRowsFail) {
  EXPECT_TRUE(verdict(fig10(Fig10, edit(Fig10, "\"vars\": 8, ", "")), 1,
                      "row 0 lacks"));
  EXPECT_TRUE(verdict(fig10(Fig10, edit(Fig10, "\"vars\": 8, ",
                                        "\"vars\": 16, ")),
                      1, "two rows are sweep/octagon vars=16"));
  EXPECT_TRUE(verdict(fig10(Fig10, edit(Fig10, "fig10_octagon_workload",
                                        "batch_verify")),
                      1, "FAIL [gate]: f.json is bench \"fig10_octagon_"));
  std::string Unknown = edit(Fig10, "fig10_octagon_workload", "fig11");
  EXPECT_TRUE(verdict(gate({{missing(), file(Unknown)}}), 1,
                      "no rule gates bench \"fig11\""));
}

TEST(BenchGate, DeepNestingIsRejectedNotRecursedInto) {
  std::string Deep = std::string(100000, '[') + std::string(100000, ']');
  EXPECT_TRUE(verdict(fig10(Fig10, Deep), 1, "nesting too deep"));
}

} // namespace
