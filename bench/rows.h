//===-- bench/rows.h - The bench row shape, its writer, the flag parser ---===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benches share: the JSON row they report a result in, the file
/// bench_fig10_octagon_workload and bench_batch_verify write (which
/// bench/gate.h reads), and the command-line parser.
///
/// A row is one line:
///
///   {"phase": P, "domain": D, "vars"|"threads"|...: N, "wall_ms": T,
///    "counters": {"name": value, ...}}
///
/// (phase, domain, axis) identifies a row. Counters carry the counter
/// table's export names (support/statistics.h) or the bench's own tallies;
/// nothing prefixes them, since the row already names its domain. A bench
/// JSON is a header (`bench` plus the run parameters), the process-wide
/// `counters` of the run (the trace audit), and a `rows` array holding
/// every result; the report benches print their rows as `JSON:` lines.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_BENCH_ROWS_H
#define DAI_BENCH_ROWS_H

#include "support/observe.h"
#include "support/statistics.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace dai::bench {

/// One result: a timed phase over one domain at one point of an axis.
struct Row {
  Row(std::string Phase, std::string Domain, const char *Axis, unsigned At,
      double WallMs = 0)
      : Phase(std::move(Phase)), Domain(std::move(Domain)), Axis(Axis), At(At),
        WallMs(WallMs) {}

  std::string Phase;
  std::string Domain;
  /// "vars" or "threads" in a bench JSON, the only axes the gate reads; a
  /// report bench's `JSON:` row may name its own ("k", "edits", ...).
  const char *Axis;
  unsigned At;
  double WallMs;
  std::string Counters; ///< `"name": value` pairs, comma-separated.

  void add(const char *Name, uint64_t V) {
    append(Name, std::to_string(V).c_str());
  }
  /// A non-integral value (a percentage); six significant digits.
  void addReal(const char *Name, double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof Buf, "%g", V);
    append(Name, Buf);
  }
  /// Every counter of a counter-table family, under its export name.
  template <class Fam> void addFamily(const Fam &F) {
    F.forEachCounter([&](const CounterInfo &I, uint64_t V) { add(I.Name, V); });
  }
  void addThreadCounters(const ThreadCounters &T) {
    ThreadCounters::forEachFamily([&](auto M) { addFamily(T.*M); });
  }

  /// The row as one JSON object.
  std::string json() const {
    char Axes[96];
    std::snprintf(Axes, sizeof Axes, "\"%s\": %u, \"wall_ms\": %.3f", Axis, At,
                  WallMs);
    return "{\"phase\": \"" + Phase + "\", \"domain\": \"" + Domain + "\", " +
           Axes + ", \"counters\": {" + Counters + "}}";
  }

private:
  void append(const char *Name, const char *Value) {
    if (!Counters.empty())
      Counters += ", ";
    Counters += '"';
    Counters += Name;
    Counters += "\": ";
    Counters += Value;
  }
};

/// Writes a bench JSON to \p Path: `bench`, then \p Header (the run
/// parameters as `"key": value,` lines), the trace audit, and \p Rows.
/// Returns false, with a message, when the file cannot be written.
inline bool writeRows(const std::string &Path, const char *Bench,
                      const std::string &Header, const std::vector<Row> &Rows) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  // The benches run un-traced, so the gate requires both trace counters to
  // be zero: a nonzero one means a hook recorded on the measured paths.
  TraceStats Trace = traceStats();
  std::fprintf(F,
               "{\n  \"bench\": \"%s\",\n%s  \"counters\": "
               "{\"dai_trace_events_dropped\": %llu, "
               "\"dai_trace_events_recorded\": %llu},\n  \"rows\": [\n",
               Bench, Header.c_str(), (unsigned long long)Trace.EventsDropped,
               (unsigned long long)Trace.EventsRecorded);
  for (size_t I = 0; I < Rows.size(); ++I)
    std::fprintf(F, "    %s%s\n", Rows[I].json().c_str(),
                 I + 1 < Rows.size() ? "," : "");
  std::fprintf(F, "  ]\n}\n");
  bool Ok = std::fclose(F) == 0;
  if (!Ok)
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
  return Ok;
}

/// The benches' command-line parser. A malformed flag or value exits with
/// status 1 and a message: an unknown flag, a missing value, a number that
/// is not a plain non-negative integer, and a list with an empty or zero
/// entry.
class Flags {
public:
  Flags(int Argc, char **Argv, const char *Usage)
      : Argc(Argc), Argv(Argv), Usage(Usage) {}

  /// Advances to the next flag; false when none is left.
  bool next() {
    if (++I >= Argc)
      return false;
    Flag = Argv[I];
    return true;
  }
  bool is(const char *Name) const { return !std::strcmp(Flag, Name); }

  const char *value() {
    if (I + 1 >= Argc)
      fail("missing value");
    return Argv[++I];
  }

  template <class T = unsigned> T number() {
    const char *V = value();
    T N = 0;
    if (!parse(V, V + std::strlen(V), N))
      fail(std::string("'") + V + "' is not a non-negative integer");
    return N;
  }

  /// A comma-separated list of positive integers.
  std::vector<unsigned> list() {
    const char *V = value();
    std::vector<unsigned> Out;
    for (const char *P = V;; ++P) {
      const char *End = std::strchr(P, ',');
      if (!End)
        End = P + std::strlen(P);
      unsigned N = 0;
      if (!parse(P, End, N) || N == 0)
        fail(std::string("'") + V + "' is not a list of positive integers");
      Out.push_back(N);
      if (!*End)
        return Out;
      P = End;
    }
  }

  /// The index of the value in \p Names.
  size_t choice(std::initializer_list<const char *> Names) {
    const char *V = value();
    std::string Known;
    size_t Idx = 0;
    for (const char *N : Names) {
      if (!std::strcmp(V, N))
        return Idx;
      if (Idx++)
        Known += '|';
      Known += N;
    }
    fail(std::string("'") + V + "' is not one of " + Known);
  }

  [[noreturn]] void unknown() const { fail("unknown flag"); }

private:
  template <class T> static bool parse(const char *B, const char *E, T &N) {
    auto [Ptr, Ec] = std::from_chars(B, E, N);
    return B != E && Ec == std::errc() && Ptr == E;
  }

  [[noreturn]] void fail(const std::string &Why) const {
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", Flag, Why.c_str(), Argv[0],
                 Usage);
    std::exit(1);
  }

  int Argc;
  char **Argv;
  const char *Usage;
  int I = 0;
  const char *Flag = "";
};

} // namespace dai::bench

#endif // DAI_BENCH_ROWS_H
