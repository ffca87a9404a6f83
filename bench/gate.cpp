//===-- bench/gate.cpp - bench_gate: the bench regression gate ------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line front of bench/gate.h, which holds the rules table and
/// documents the verdicts and exit status:
///
///   bench_gate BASELINE.json FRESH.json [BASELINE.json FRESH.json ...]
///
//===----------------------------------------------------------------------===//

#include "bench/gate.h"

#include <fstream>
#include <iostream>
#include <iterator>

using namespace dai::gate;

static Input readInput(const char *Path) {
  Input In{Path, std::nullopt};
  std::ifstream F(Path, std::ios::binary);
  if (!F)
    return In;
  std::string Text{std::istreambuf_iterator<char>(F),
                   std::istreambuf_iterator<char>()};
  if (!F.bad())
    In.Text = std::move(Text);
  return In;
}

int main(int Argc, char **Argv) {
  if (Argc < 3 || Argc % 2 == 0) {
    std::cerr << "usage: " << Argv[0]
              << " BASELINE.json FRESH.json [BASELINE.json FRESH.json ...]\n";
    return 2;
  }
  Gate G(std::cout);
  for (int I = 1; I + 1 < Argc; I += 2)
    G.check(readInput(Argv[I]), readInput(Argv[I + 1]));
  return G.status();
}
