//===-- tests/numeric_overflow_test.cpp - Huge-constant soundness ---------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Programs whose constants sit at the edge of int64, analysed under every
/// numeric registry key. Where the value a variable takes fits in int64,
/// its exit value must contain it: a relational domain that doubles or
/// negates a bound, a linear form that adds or scales constants, and an
/// interval whose finite bound is INT64_MIN or INT64_MAX (the ∓∞
/// sentinels) must loosen what they cannot represent (saturate, drop it,
/// or fall back to intervals), never wrap it or read it as an infinity.
/// Where the arithmetic itself leaves int64, the analysis must still run
/// without signed overflow, which the sanitizer lane (-DDAI_SANITIZE=ON)
/// turns into a failure.
///
//===----------------------------------------------------------------------===//

#include "domain/linear.h"
#include "domain/registry.h"
#include "interproc/engine.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>
#include <optional>

using namespace dai;
using namespace dai::test;

namespace {

struct OverflowCase {
  const char *Source;
  /// The value x holds at the exit, when it fits in int64.
  std::optional<int64_t> X;
};

const OverflowCase Cases[] = {
    // x is INT64_MIN: no operation overflows.
    {"function main() { var x = 0 - 9223372036854775807 - 1; return x; }",
     INT64_MIN},
    // The same value through a relation to y, and through x := x + c.
    {"function main() { var y = 0 - 9223372036854775807; var x = y - 1; "
     "return x; }",
     INT64_MIN},
    {"function main() { var x = 0; x = x - 9223372036854775807 - 1; "
     "return x; }",
     INT64_MIN},
    {"function main() { var x = 0 - 9223372036854775807; return x; }",
     -INT64_MAX},
    // Guards against 0 - 9223372036854775807. The linear form of the
    // first, x + 9223372036854775807 + 1, overflows.
    {"function main() { var x = 0 - 9223372036854775807 - 1; "
     "assert(x < 0 - 9223372036854775807); return x; }",
     INT64_MIN},
    {"function main() { var x = 0 - 9223372036854775807 - 1; "
     "assert(x <= 0 - 9223372036854775807); return x; }",
     INT64_MIN},
    {"function main() { var x = 0 - 9223372036854775807 - 1; "
     "if (x == 0 - 9223372036854775807) { x = 0; } return x; }",
     INT64_MIN},
    {"function main() { var x = 0 - 9223372036854775807; "
     "if (x < 0 - 9223372036854775807) { x = 0; } return x; }",
     -INT64_MAX},
    // The arithmetic itself leaves int64: only the absence of UB is checked.
    {"function main() { var x = 9223372036854775807 + 1; return x; }",
     std::nullopt},
    {"function main() { var x = 4611686018427387904 * 4; return x; }",
     std::nullopt},
};

/// Every registry key with a numeric abstraction (all but "shape").
std::vector<std::string> numericKeys() {
  std::vector<std::string> Keys;
  for (const std::string &K : DomainRegistry::instance().keys())
    if (K != "shape")
      Keys.push_back(K);
  return Keys;
}

TEST(NumericOverflow, ExitValueContainsTheLiteralUnderEveryKey) {
  for (const std::string &Key : numericKeys()) {
    AnyDomainDefaultScope Bind(Key);
    ASSERT_TRUE(Bind.ok()) << Key;
    for (const OverflowCase &C : Cases) {
      Program P = mustLower(C.Source);
      InterprocEngine<AnyDomain> E(P, "main", /*K=*/1);
      ASSERT_TRUE(E.valid()) << E.error();
      AnyVal Exit = E.queryMain(E.cfgOf("main")->exit());
      if (!C.X)
        continue;
      if (AnyDomain::isBottom(Exit)) {
        ADD_FAILURE() << Key << ": the exit is reachable in\n  " << C.Source;
        continue;
      }
      Interval X = Exit.Ops->ToBox(Exit.V).get(std::string("x")).Num;
      EXPECT_TRUE(X.contains(*C.X))
          << Key << ": x in " << X.toString() << " misses " << *C.X
          << " in\n  " << C.Source
          << "\n  state " << AnyDomain::toString(Exit);
    }
  }
}

TEST(NumericOverflow, LinearFormsFailInsteadOfWrapping) {
  auto lin = [](const char *Src) {
    LowerResult R = frontend(std::string("function main() { var x = ") + Src +
                             "; return x; }");
    EXPECT_TRUE(R.ok()) << R.Error;
    for (const auto &[Id, Edge] : R.Prog.find("main")->Body.edges())
      if (Edge.Label.Kind == StmtKind::Assign && Edge.Label.Lhs == "x")
        return linearize(Edge.Label.Rhs);
    ADD_FAILURE() << "no assignment to x";
    return LinForm::fail();
  };
  EXPECT_FALSE(lin("9223372036854775807 + 1").Ok);
  EXPECT_FALSE(lin("4611686018427387904 * 4").Ok);
  EXPECT_FALSE(lin("0 - (0 - 9223372036854775807 - 1)").Ok);
  EXPECT_FALSE(lin("y * 4611686018427387904 * 4").Ok);
  LinForm Min = lin("0 - 9223372036854775807 - 1");
  ASSERT_TRUE(Min.Ok);
  EXPECT_EQ(Min.Const, INT64_MIN);
  LinForm Rel = lin("y - 9223372036854775807 + 9223372036854775807");
  ASSERT_TRUE(Rel.Ok);
  EXPECT_EQ(Rel.Const, 0);
  EXPECT_EQ(Rel.Coeffs.size(), 1u);
}

} // namespace
