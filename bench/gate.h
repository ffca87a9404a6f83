//===-- bench/gate.h - The bench regression gate and its rules table ------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// bench_gate compares fresh bench JSONs (the row shape of bench/rows.h)
/// against committed baselines:
///
///   bench_gate BASELINE.json FRESH.json [BASELINE.json FRESH.json ...]
///
/// Each file's `bench` field picks the rules that apply to it. Every gated
/// metric is one line of the rules table below, of one of two kinds:
///
///  - regression(bench, phase, domain, counter, max %): for every baseline
///    row of that phase and domain, the fresh row with the same (phase,
///    domain, axis) may hold at most max % more of the counter. Counters,
///    not wall time, are gated: the workloads are seeded and the kernels
///    deterministic, so they reproduce exactly where wall time swings past
///    any usable threshold (wall time is printed as context).
///  - mustBeZero(counter): every place a fresh file carries the counter —
///    its process-wide `counters` and each row's — holds 0. These are
///    correctness cross-checks, checked even without a baseline.
///
/// Every check prints one verdict line starting `OK`, `SKIP [...]` or
/// `FAIL [...]`:
///  - a missing baseline is a SKIP (the must-be-zero rules still run);
///  - a missing fresh file, or a file that is not a bench JSON (invalid
///    JSON, a row without its fields, a counter that is not a number, two
///    rows with one identity), is a FAIL;
///  - a baseline row missing from the fresh run is a FAIL, and so is a
///    counter a rule reads that the baseline carries and the fresh run
///    omits;
///  - a regression rule whose rows the baseline lacks, or a must-be-zero
///    counter neither file carries, is a SKIP (the baseline predates it).
///
/// Exit status: 0 when nothing failed, 1 when a check failed, 2 on a usage
/// error or when no fresh file could be read at all.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_BENCH_GATE_H
#define DAI_BENCH_GATE_H

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dai::gate {

//===----------------------------------------------------------------------===//
// The rules table
//===----------------------------------------------------------------------===//

struct Rule {
  const char *Bench; ///< Null for a must-be-zero rule, which reads every file.
  const char *Phase;
  const char *Domain;
  const char *Counter;
  double MaxRegressionPct;
};

constexpr Rule regression(const char *Bench, const char *Phase,
                          const char *Domain, const char *Counter,
                          double MaxRegressionPct) {
  return {Bench, Phase, Domain, Counter, MaxRegressionPct};
}
constexpr Rule mustBeZero(const char *Counter) {
  return {nullptr, nullptr, nullptr, Counter, 0};
}

inline constexpr Rule Rules[] = {
    // Work counters: closure work per relational domain, forced partition
    // merges, the incremental checker's re-evaluated slice, and the DAIG's
    // own work on the same edits (cells an edit empties, transfers the
    // re-demand runs).
    regression("fig10_octagon_workload", "sweep", "octagon",
               "dbm_cells_touched", 5),
    regression("fig10_octagon_workload", "sweep", "zone",
               "zone_closure_vertices_visited", 5),
    regression("fig10_octagon_workload", "sweep", "staged",
               "staged_escalated_transfers", 5),
    regression("fig10_octagon_workload", "sweep", "dis_interval",
               "dis_interval_partitions_collapsed", 5),
    regression("batch_verify", "recheck", "interval", "checks_rechecked", 5),
    regression("batch_verify", "recheck", "interval", "cells_dirtied", 5),
    regression("batch_verify", "recheck", "interval", "transfers", 5),
    // Cell keys are per DAIG, and a sweep row builds its own DAIGs, so the
    // baseline counts one key inserted per cell built, unrolled or rebuilt:
    // anything else becoming a key (a value, a memo key) fails here.
    regression("fig10_octagon_workload", "sweep", "octagon", "names_interned",
               5),
    // The key index's probe walk, slots examined past the first: an index
    // that stops spreading the DAIG's clustered structural hashes
    // multiplies it.
    regression("fig10_octagon_workload", "sweep", "octagon",
               "intern_extra_probes", 5),
    // Cross-checks: staged vs pure-octagon answers, AnyDomain vs the direct
    // template, incremental vs from-scratch and run vs run verdicts, pool vs
    // serial verdicts, buggy corpus programs left without an alarm.
    mustBeZero("sum_mismatches"),
    mustBeZero("erasure_counter_mismatches"),
    mustBeZero("verdict_mismatches"),
    mustBeZero("parallel_result_mismatches"),
    mustBeZero("unsafe_missed"),
    // The benches run un-budgeted and un-traced.
    mustBeZero("budget_exhaustions"),
    mustBeZero("degraded_cells"),
    mustBeZero("cancellations_honored"),
    mustBeZero("dai_trace_events_recorded"),
    mustBeZero("dai_trace_events_dropped"),
};

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

struct Json {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  double Num = 0;
  std::string Str;
  std::vector<Json> Items;                           ///< Array elements.
  std::vector<std::pair<std::string, Json>> Members; ///< Object members.

  const Json *get(std::string_view Key) const {
    for (const auto &[Name, V] : Members)
      if (Name == Key)
        return &V;
    return nullptr;
  }
};

/// A recursive-descent JSON parser; string escapes are kept verbatim.
class JsonParser {
public:
  explicit JsonParser(std::string_view Text) : S(Text) {}

  /// Parses the whole text into \p Out; on malformed input returns false
  /// and error() says what and where.
  bool parse(Json &Out) {
    if (!value(Out, 0))
      return false;
    ws();
    return P == S.size() || fail("trailing characters");
  }
  const std::string &error() const { return Err; }

private:
  static constexpr unsigned MaxDepth = 64;

  bool fail(const char *Why) {
    Err = std::string(Why) + " at byte " + std::to_string(P);
    return false;
  }
  bool at(char C) const { return P < S.size() && S[P] == C; }
  bool eat(std::string_view L) {
    if (S.substr(P, L.size()) != L)
      return false;
    P += L.size();
    return true;
  }
  void ws() {
    while (at(' ') || at('\n') || at('\t') || at('\r'))
      ++P;
  }
  bool digits() {
    size_t B = P;
    while (P < S.size() && S[P] >= '0' && S[P] <= '9')
      ++P;
    return P > B;
  }

  bool value(Json &V, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    ws();
    if (P >= S.size())
      return fail("unexpected end of input");
    if (at('{'))
      return object(V, Depth);
    if (at('['))
      return array(V, Depth);
    if (at('"')) {
      V.K = Json::String;
      return string(V.Str);
    }
    if (eat("true") || eat("false")) {
      V.K = Json::Bool; // the gate reads no booleans, only their validity
      return true;
    }
    if (eat("null"))
      return true;
    return number(V);
  }

  bool object(Json &V, unsigned Depth) {
    V.K = Json::Object;
    ++P;
    ws();
    if (eat("}"))
      return true;
    for (;;) {
      ws();
      std::string Name;
      if (!at('"'))
        return fail("expected a member name");
      if (!string(Name))
        return false;
      ws();
      if (!eat(":"))
        return fail("expected ':'");
      V.Members.emplace_back(std::move(Name), Json());
      if (!value(V.Members.back().second, Depth + 1))
        return false;
      ws();
      if (eat("}"))
        return true;
      if (!eat(","))
        return fail("expected ',' or '}'");
    }
  }

  bool array(Json &V, unsigned Depth) {
    V.K = Json::Array;
    ++P;
    ws();
    if (eat("]"))
      return true;
    for (;;) {
      V.Items.emplace_back();
      if (!value(V.Items.back(), Depth + 1))
        return false;
      ws();
      if (eat("]"))
        return true;
      if (!eat(","))
        return fail("expected ',' or ']'");
    }
  }

  bool string(std::string &Out) {
    ++P; // the opening quote
    while (P < S.size()) {
      char C = S[P++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("control character in a string");
      Out += C;
      if (C != '\\')
        continue;
      if (P >= S.size())
        break;
      char E = S[P++];
      Out += E;
      if (E == 'u') {
        for (int I = 0; I < 4; ++I, ++P)
          if (P >= S.size() ||
              !std::isxdigit(static_cast<unsigned char>(S[P])))
            return fail("bad \\u escape");
        Out.append(S.substr(P - 4, 4));
      } else if (std::string_view("\"\\/bfnrt").find(E) ==
                 std::string_view::npos) {
        return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool number(Json &V) {
    size_t B = P;
    eat("-");
    if (!digits())
      return fail("expected a value");
    if (eat(".") && !digits())
      return fail("bad number");
    if (eat("e") || eat("E")) {
      if (!eat("+"))
        eat("-");
      if (!digits())
        return fail("bad number");
    }
    V.K = Json::Number;
    V.Num = std::strtod(std::string(S.substr(B, P - B)).c_str(), nullptr);
    return true;
  }

  std::string_view S;
  size_t P = 0;
  std::string Err;
};

//===----------------------------------------------------------------------===//
// Bench files
//===----------------------------------------------------------------------===//

/// One place counters live: the file's process-wide `counters` or a row.
struct Scope {
  std::string Phase, Domain; ///< Empty for the process-wide counters.
  std::string Key;           ///< "sweep/octagon vars=48", or "counters".
  double WallMs = 0;
  std::map<std::string, double> Counters;
};

/// A bench JSON reduced to what the rules read.
struct BenchFile {
  std::string Bench;
  std::vector<Scope> Scopes;

  const Scope *find(const std::string &Key) const {
    for (const Scope &S : Scopes)
      if (S.Key == Key)
        return &S;
    return nullptr;
  }
};

inline std::string formatNumber(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.15g", V);
  return Buf;
}

/// Reads a counters object into \p Out; false with \p Error when a value
/// is not a number.
inline bool readCounters(const Json &J, const std::string &Where,
                         std::map<std::string, double> &Out,
                         std::string &Error) {
  if (J.K != Json::Object) {
    Error = Where + ": counters is not an object";
    return false;
  }
  for (const auto &[Name, V] : J.Members) {
    if (V.K != Json::Number) {
      Error = Where + ": counter \"" + Name + "\" is not a number";
      return false;
    }
    Out[Name] = V.Num;
  }
  return true;
}

/// Parses \p Text as a bench JSON; false with \p Error when it is not one.
inline bool loadBenchFile(std::string_view Text, BenchFile &Out,
                          std::string &Error) {
  Json Root;
  JsonParser Parser(Text);
  if (!Parser.parse(Root)) {
    Error = "invalid JSON: " + Parser.error();
    return false;
  }
  const Json *Bench = Root.get("bench");
  const Json *Rows = Root.get("rows");
  if (!Bench || Bench->K != Json::String || !Rows ||
      Rows->K != Json::Array) {
    Error = "no \"bench\" name or \"rows\" array";
    return false;
  }
  Out.Bench = Bench->Str;
  if (const Json *C = Root.get("counters")) {
    Scope S;
    S.Key = "counters";
    if (!readCounters(*C, S.Key, S.Counters, Error))
      return false;
    Out.Scopes.push_back(std::move(S));
  }
  for (size_t I = 0; I < Rows->Items.size(); ++I) {
    const Json &R = Rows->Items[I];
    const Json *Phase = R.get("phase"), *Domain = R.get("domain"),
               *Wall = R.get("wall_ms"), *Counters = R.get("counters");
    const Json *Vars = R.get("vars"), *Threads = R.get("threads");
    const Json *Axis = Vars ? Vars : Threads;
    std::string Where = "row " + std::to_string(I);
    if (!Phase || Phase->K != Json::String || !Domain ||
        Domain->K != Json::String || !Wall || Wall->K != Json::Number ||
        !Counters || (Vars && Threads) || !Axis || Axis->K != Json::Number) {
      Error = Where + " lacks phase, domain, one of vars/threads, wall_ms "
                      "or counters";
      return false;
    }
    Scope S;
    S.Phase = Phase->Str;
    S.Domain = Domain->Str;
    S.Key = S.Phase + "/" + S.Domain + (Vars ? " vars=" : " threads=") +
            formatNumber(Axis->Num);
    S.WallMs = Wall->Num;
    if (!readCounters(*Counters, Where, S.Counters, Error))
      return false;
    if (Out.find(S.Key)) {
      Error = "two rows are " + S.Key;
      return false;
    }
    Out.Scopes.push_back(std::move(S));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The gate
//===----------------------------------------------------------------------===//

/// A file named on the command line: its text, or nullopt when it could
/// not be read.
struct Input {
  std::string Path;
  std::optional<std::string> Text;
};

class Gate {
public:
  explicit Gate(std::ostream &Out) : Out(Out) {}

  /// Checks one (baseline, fresh) pair against every rule.
  void check(const Input &BaseIn, const Input &FreshIn) {
    if (!FreshIn.Text) {
      fail("gate", "fresh results " + FreshIn.Path +
                       " are missing or unreadable — the bench run that "
                       "should have produced them failed");
      return;
    }
    ReadAnyFresh = true;
    BenchFile Fresh, Base;
    std::string Error;
    if (!loadBenchFile(*FreshIn.Text, Fresh, Error)) {
      fail("gate", FreshIn.Path + " is not a bench JSON: " + Error);
      return;
    }
    const BenchFile *B = nullptr;
    if (!BaseIn.Text) {
      skip(Fresh.Bench, "baseline " + BaseIn.Path +
                            " is missing or unreadable — regression rules "
                            "not run (regenerate and commit a baseline to "
                            "re-arm them)");
    } else if (!loadBenchFile(*BaseIn.Text, Base, Error)) {
      fail("gate", BaseIn.Path + " is not a bench JSON: " + Error);
      return;
    } else if (Base.Bench != Fresh.Bench) {
      fail("gate", BaseIn.Path + " is bench \"" + Base.Bench + "\" but " +
                       FreshIn.Path + " is \"" + Fresh.Bench + "\"");
      return;
    } else {
      B = &Base;
      for (const Scope &S : Base.Scopes)
        if (!Fresh.find(S.Key))
          fail(Fresh.Bench + " " + S.Key,
               "the baseline has it; the fresh run does not");
    }

    bool Known = false;
    for (const Rule &R : Rules) {
      if (!R.Bench)
        checkZero(R, B, Fresh);
      else if (Fresh.Bench == R.Bench) {
        Known = true;
        if (B)
          checkRegression(R, *B, Fresh);
      }
    }
    if (!Known)
      fail("gate", "no rule gates bench \"" + Fresh.Bench + "\"");
  }

  /// The exit status so far.
  int status() const {
    if (!ReadAnyFresh)
      return 2;
    return Failures ? 1 : 0;
  }

private:
  void fail(const std::string &Label, const std::string &Msg) {
    Out << "FAIL [" << Label << "]: " << Msg << '\n';
    ++Failures;
  }
  void skip(const std::string &Label, const std::string &Msg) {
    Out << "SKIP [" << Label << "]: " << Msg << '\n';
  }
  void ok(const std::string &Label, const std::string &Msg) {
    Out << "OK [" << Label << "]: " << Msg << '\n';
  }

  void checkRegression(const Rule &R, const BenchFile &Base,
                       const BenchFile &Fresh) {
    bool Any = false;
    for (const Scope &BS : Base.Scopes) {
      if (BS.Phase != R.Phase || BS.Domain != R.Domain)
        continue;
      Any = true;
      const Scope *FS = Fresh.find(BS.Key);
      if (!FS)
        continue; // a missing row has failed already
      std::string Label = Fresh.Bench + " " + BS.Key + " " + R.Counter;
      auto BI = BS.Counters.find(R.Counter);
      auto FI = FS->Counters.find(R.Counter);
      if (BI == BS.Counters.end()) {
        skip(Label, "the baseline row predates this counter");
        continue;
      }
      if (FI == FS->Counters.end()) {
        fail(Label, "the baseline row carries it; the fresh row omits it");
        continue;
      }
      double Base = BI->second, Now = FI->second;
      double Limit = Base * (1 + R.MaxRegressionPct / 100);
      char Delta[32];
      double Inf = std::numeric_limits<double>::infinity();
      std::snprintf(Delta, sizeof Delta, "%+.2f%%",
                    Base > 0 ? (Now / Base - 1) * 100 : Now > 0 ? Inf : 0.0);
      char Wall[64];
      std::snprintf(Wall, sizeof Wall, "; wall %.1f -> %.1f ms", BS.WallMs,
                    FS->WallMs);
      std::string Msg = "baseline " + formatNumber(Base) + ", fresh " +
                        formatNumber(Now) + " (" + Delta + "), limit " +
                        formatNumber(Limit) + " (+" +
                        formatNumber(R.MaxRegressionPct) + "%)" + Wall;
      if (Now > Limit)
        fail(Label, "regressed beyond the limit: " + Msg);
      else
        ok(Label, Msg);
    }
    if (!Any)
      skip(Fresh.Bench + " " + R.Phase + "/" + R.Domain + " " + R.Counter,
           "the baseline has no such rows (it predates them); rule not run");
  }

  void checkZero(const Rule &R, const BenchFile *Base,
                 const BenchFile &Fresh) {
    std::string Label = Fresh.Bench + " " + R.Counter;
    unsigned Before = Failures, Seen = 0;
    for (const Scope &FS : Fresh.Scopes) {
      auto I = FS.Counters.find(R.Counter);
      if (I == FS.Counters.end())
        continue;
      ++Seen;
      if (I->second != 0)
        fail(Label, FS.Key + " holds " + formatNumber(I->second) +
                        " (must be 0)");
    }
    if (Base)
      for (const Scope &BS : Base->Scopes) {
        const Scope *FS = Fresh.find(BS.Key);
        if (FS && BS.Counters.count(R.Counter) &&
            !FS->Counters.count(R.Counter))
          fail(Label, BS.Key + " carries it in the baseline; the fresh run "
                               "omits it");
      }
    if (Failures != Before)
      return;
    if (Seen)
      ok(Label, "0 wherever it appears (" + std::to_string(Seen) +
                    (Seen == 1 ? " place)" : " places)"));
    else
      skip(Label, "neither file carries this counter");
  }

  std::ostream &Out;
  unsigned Failures = 0;
  bool ReadAnyFresh = false;
};

} // namespace dai::gate

#endif // DAI_BENCH_GATE_H
