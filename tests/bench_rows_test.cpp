//===-- tests/bench_rows_test.cpp - Bench rows and flags ------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// bench/rows.h: the JSON the row writer emits is what bench/gate.h reads,
/// every row of the counter table reaches a row under its table name, and
/// the shared flag parser rejects every malformed value with exit status 1
/// instead of running with a silently parsed 0 or empty list.
///
//===----------------------------------------------------------------------===//

#include "bench/rows.h"

#include "bench/gate.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

using namespace dai;
using namespace dai::bench;

namespace {

struct Parsed {
  unsigned Edits = 250;
  std::vector<unsigned> Sizes;
  size_t Domain = 0;
};

/// The benches' flag loop over \p Args (argv[0] first).
Parsed parse(std::vector<const char *> Args) {
  Parsed P;
  Flags F(static_cast<int>(Args.size()), const_cast<char **>(Args.data()),
          "[--edits N] [--sizes N,N,...] [--domain a|b]");
  while (F.next()) {
    if (F.is("--edits"))
      P.Edits = F.number();
    else if (F.is("--sizes"))
      P.Sizes = F.list();
    else if (F.is("--domain"))
      P.Domain = F.choice({"a", "b"});
    else
      F.unknown();
  }
  return P;
}

TEST(BenchFlags, AcceptsWellFormedValues) {
  Parsed P = parse({"bench", "--edits", "0", "--sizes", "8,16,48",
                    "--domain", "b"});
  EXPECT_EQ(P.Edits, 0u);
  EXPECT_EQ(P.Sizes, (std::vector<unsigned>{8, 16, 48}));
  EXPECT_EQ(P.Domain, 1u);
}

TEST(BenchFlags, RejectsMalformedListsWithStatus1) {
  for (const char *Bad : {"x", "", "8,,16", "8,16,", ",8", "0", "4,0", "-1",
                          "1x", "99999999999"})
    EXPECT_EXIT(parse({"bench", "--sizes", Bad}),
                ::testing::ExitedWithCode(1), "--sizes: .* positive integers")
        << Bad;
}

TEST(BenchFlags, RejectsMalformedNumbersWithStatus1) {
  for (const char *Bad : {"abc", "", "-3", "12x", " 7", "4294967296"})
    EXPECT_EXIT(parse({"bench", "--edits", Bad}),
                ::testing::ExitedWithCode(1), "--edits: .* non-negative")
        << Bad;
  EXPECT_EXIT(parse({"bench", "--edits"}), ::testing::ExitedWithCode(1),
              "--edits: missing value");
}

TEST(BenchFlags, RejectsUnknownFlagsAndChoicesWithStatus1) {
  EXPECT_EXIT(parse({"bench", "--threads", "2"}),
              ::testing::ExitedWithCode(1), "--threads: unknown flag");
  EXPECT_EXIT(parse({"bench", "--domain", "c"}), ::testing::ExitedWithCode(1),
              "--domain: 'c' is not one of a\\|b");
}

/// Writes \p Rows through writeRows and returns the file's text.
std::string written(const char *Bench, const std::string &Header,
                    const std::vector<Row> &Rows) {
  std::string Path = ::testing::TempDir() + "bench_rows_test.json";
  EXPECT_TRUE(writeRows(Path, Bench, Header, Rows));
  std::ifstream In(Path);
  return {std::istreambuf_iterator<char>(In), std::istreambuf_iterator<char>()};
}

TEST(BenchRows, TheGateReadsWhatTheWriterWrites) {
  ClosureCounters C;
  C.CellsTouched = 26611;
  C.PeakDbmBytes = 1440;
  Row R("sweep", "octagon", "vars", 8, 76.4584);
  R.addFamily(C);
  R.add("sum_mismatches", 0);
  R.addReal("avg_recheck_pct", 7.171349);
  std::string Text =
      written("fig10_octagon_workload", "  \"seed\": 42,\n",
              {R, Row("erasure_any", "zone", "threads", 2)});
  gate::BenchFile File;
  std::string Error;
  ASSERT_TRUE(gate::loadBenchFile(Text, File, Error)) << Error << "\n" << Text;
  EXPECT_EQ(File.Bench, "fig10_octagon_workload");
  ASSERT_EQ(File.Scopes.size(), 3u) << Text;
  EXPECT_EQ(File.Scopes[0].Key, "counters");
  EXPECT_EQ(File.Scopes[0].Counters.at("dai_trace_events_recorded"), 0);
  const gate::Scope *S = File.find("sweep/octagon vars=8");
  ASSERT_NE(S, nullptr) << Text;
  EXPECT_DOUBLE_EQ(S->WallMs, 76.458);
  EXPECT_EQ(S->Counters.at("dbm_cells_touched"), 26611);
  EXPECT_EQ(S->Counters.at("dbm_peak_bytes"), 1440);
  EXPECT_EQ(S->Counters.at("full_closes"), 0);
  EXPECT_EQ(S->Counters.at("sum_mismatches"), 0);
  EXPECT_DOUBLE_EQ(S->Counters.at("avg_recheck_pct"), 7.17135);
  EXPECT_NE(File.find("erasure_any/zone threads=2"), nullptr) << Text;
}

/// The live sink of each table family. A family added to the table without
/// an entry here fails to compile.
struct LiveSinks {
  Statistics Stats;
  ThreadCounters &Thread = ThreadCounters::live();
  Statistics &of(Statistics *) { return Stats; }
  ClosureCounters &of(ClosureCounters *) { return Thread.Closure; }
  ZoneCounters &of(ZoneCounters *) { return Thread.Zone; }
  StagedCounters &of(StagedCounters *) { return Thread.Staged; }
  DisIntervalCounters &of(DisIntervalCounters *) { return Thread.DisInterval; }
  BudgetCounters &of(BudgetCounters *) { return Thread.Budget; }
  NameTableCounters &of(NameTableCounters *) { return Thread.Names; }
};

/// Walks every row of DAI_COUNTER_TABLE: each counter, given a distinct
/// value in its live sink, must reach a bench row under its table name with
/// that value, and the row must hold nothing else. (Gauges merge by max:
/// CounterMerge.* and TaskPool.PeakGaugeMergesViaMax.)
TEST(CounterTable, EveryRowReachesTheExportUnderItsNameAndKind) {
  const ThreadCounters SavedThread = ThreadCounters::snapshot();
  LiveSinks Src;
  uint64_t Next = 1000;
#define DAI_TEST_SET(Fam, Field, Name, Kind)                                   \
  Src.of(static_cast<Fam *>(nullptr)).Field = ++Next;
  DAI_COUNTER_TABLE(DAI_TEST_SET)
#undef DAI_TEST_SET

  Row R("export", "none", "vars", 0);
  R.addFamily(Src.Stats);
  R.addThreadCounters(ThreadCounters::live());
  std::string Text = written("counter_table", "", {R});
  gate::BenchFile File;
  std::string Error;
  ASSERT_TRUE(gate::loadBenchFile(Text, File, Error)) << Error << "\n" << Text;
  const gate::Scope *S = File.find("export/none vars=0");
  ASSERT_NE(S, nullptr) << Text;

  size_t Rows = 0;
#define DAI_TEST_EXPECT(Fam, Field, Name, Kind)                                \
  ++Rows;                                                                      \
  if (!S->Counters.count(Name))                                                \
    ADD_FAILURE() << #Fam "::" #Field " is not exported as " Name;             \
  else                                                                         \
    EXPECT_EQ(S->Counters.at(Name),                                            \
              double(Src.of(static_cast<Fam *>(nullptr)).Field))               \
        << #Fam "::" #Field;
  DAI_COUNTER_TABLE(DAI_TEST_EXPECT)
#undef DAI_TEST_EXPECT
  EXPECT_EQ(S->Counters.size(), Rows) << Text;

  ThreadCounters::live() = SavedThread;
}

} // namespace
