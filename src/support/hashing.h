//===-- support/hashing.h - Hash combination utilities ---------*- C++ -*-===//
//
// Part of dai-cpp, a C++ reproduction of "Demanded Abstract Interpretation"
// (Stein, Chang, Sridharan; PLDI 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small deterministic hash-combination helpers used for DAIG names and
/// memo-table keys. Determinism across runs matters because benchmark
/// workloads are seeded and results must be reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_SUPPORT_HASHING_H
#define DAI_SUPPORT_HASHING_H

#include <cstdint>
#include <string_view>

namespace dai {

/// 64-bit FNV-1a hash of a byte range; stable across runs and platforms
/// (unlike std::hash, which libstdc++ seeds per-type but is stable enough;
/// we still prefer an explicitly specified function).
inline uint64_t fnv1a(const void *Data, size_t Len) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I < Len; ++I) {
    H ^= Bytes[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

inline uint64_t hashString(std::string_view S) { return fnv1a(S.data(), S.size()); }

/// Combines two 64-bit hashes (boost::hash_combine-style, widened to 64 bit).
inline uint64_t hashCombine(uint64_t Seed, uint64_t V) {
  Seed ^= V + 0x9e3779b97f4a7c15ULL + (Seed << 12) + (Seed >> 4);
  return Seed;
}

/// splitmix64's finalizer: a bijective 64-bit mix in which every output
/// bit depends on every input bit. hashCombine's shift-add-xor lets small
/// structured inputs (symbol ids, small bounds) cancel one another, so fold
/// such elements through mix64 first.
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

/// Variadic convenience wrapper around hashCombine.
template <typename... Ts> uint64_t hashValues(Ts... Vs) {
  uint64_t H = 0x9e3779b97f4a7c15ULL;
  ((H = hashCombine(H, static_cast<uint64_t>(Vs))), ...);
  return H;
}

} // namespace dai

#endif // DAI_SUPPORT_HASHING_H
