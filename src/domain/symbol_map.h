//===-- domain/symbol_map.h - Flat symbol-keyed environments ----*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SymbolMap<V>, the environment of the non-relational domain states
/// (ConstState, IntervalState, DisIntervalState): a vector of
/// (SymbolId, V) pairs kept sorted by id, with the std::map subset those
/// states use — find, operator[], erase, ordered iteration and ==. The
/// entries sit in one allocation, so copying a state, which every transfer
/// does, costs one allocation and, for a trivially copyable V, a memcpy
/// (a node-based map pays one allocation per variable). Iteration runs in
/// ascending id order, the order hashes, printed states and memo keys
/// read the entries in.
///
/// Growth is exact: inserting into a full map makes room for one more
/// entry, so a stored state carries no doubling slack. A state gains at
/// most a variable or two per transfer, and a copy starts full, so the
/// usual growth would only leave slack behind; builders that add many
/// entries reserve first and append in id order.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DOMAIN_SYMBOL_MAP_H
#define DAI_DOMAIN_SYMBOL_MAP_H

#include "support/symbol.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace dai {

template <class V> class SymbolMap {
public:
  using value_type = std::pair<SymbolId, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  size_t size() const { return Entries.size(); }
  void reserve(size_t N) { Entries.reserve(N); }

  iterator begin() { return Entries.begin(); }
  iterator end() { return Entries.end(); }
  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }

  iterator find(SymbolId K) {
    iterator It = lowerBound(K);
    return It != end() && It->first == K ? It : end();
  }
  const_iterator find(SymbolId K) const {
    const_iterator It = lowerBound(K);
    return It != end() && It->first == K ? It : end();
  }

  /// The value of \p K, inserted value-initialized when absent.
  V &operator[](SymbolId K) {
    iterator It = lowerBound(K);
    if (It != end() && It->first == K)
      return It->second;
    if (Entries.size() == Entries.capacity()) {
      size_t Off = It - begin();
      Entries.reserve(Entries.size() + 1);
      It = begin() + Off;
    }
    return Entries.emplace(It, K, V())->second;
  }

  /// Removes \p K; returns the number of entries removed (0 or 1).
  size_t erase(SymbolId K) {
    iterator It = find(K);
    if (It == end())
      return 0;
    Entries.erase(It);
    return 1;
  }

  /// Adds (\p K, \p Val) past the last entry: \p K must exceed every key
  /// present. Builders that add entries in id order use it after a
  /// reserve.
  void append(SymbolId K, V Val) {
    assert((Entries.empty() || Entries.back().first < K) &&
           "append out of key order");
    Entries.emplace_back(K, std::move(Val));
  }

  /// The map of \p Op(a, b) over the keys bound in both \p A and \p B,
  /// built in one merge walk of the two sorted maps. \p Op returns a
  /// std::optional<V>; an empty one leaves its key out. The joins and
  /// widenings of the absent-means-⊤ states are this walk.
  template <class Fn>
  static SymbolMap intersect(const SymbolMap &A, const SymbolMap &B, Fn Op) {
    SymbolMap R;
    R.reserve(std::min(A.size(), B.size()));
    const_iterator BI = B.begin(), BE = B.end();
    for (const auto &[K, VA] : A) {
      while (BI != BE && BI->first < K)
        ++BI;
      if (BI == BE)
        break;
      if (BI->first != K)
        continue;
      if (std::optional<V> Val = Op(VA, BI->second))
        R.append(K, std::move(*Val));
    }
    return R;
  }

  friend bool operator==(const SymbolMap &A, const SymbolMap &B) {
    return A.Entries == B.Entries;
  }

private:
  iterator lowerBound(SymbolId K) {
    return std::lower_bound(
        begin(), end(), K,
        [](const value_type &E, SymbolId Key) { return E.first < Key; });
  }
  const_iterator lowerBound(SymbolId K) const {
    return std::lower_bound(
        begin(), end(), K,
        [](const value_type &E, SymbolId Key) { return E.first < Key; });
  }

  std::vector<value_type> Entries;
};

} // namespace dai

#endif // DAI_DOMAIN_SYMBOL_MAP_H
