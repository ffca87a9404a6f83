//===-- interproc/context.h - Context-sensitivity policies ------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// k-call-string context sensitivity (Sharir–Pnueli call strings, as used by
/// the paper's implementation: functors for context-insensitivity and 1-/2-
/// call-site sensitivity, Section 7.1). A context is the suffix of the call
/// stack truncated to the most recent k call sites; call sites are
/// identified by the interned SymbolId of the calling function plus the hash
/// of the call statement within it (two textually identical call statements
/// in one function share a context, a sound merge). Interning makes context
/// comparison — performed on every engine-map probe — a pure integer
/// compare; spellings are recovered from the symbol table only for display.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_INTERPROC_CONTEXT_H
#define DAI_INTERPROC_CONTEXT_H

#include "support/symbol.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace dai {

/// A call-site identifier within a known function.
struct CallSite {
  SymbolId Caller = kNoSymbol;
  uint64_t StmtHash = 0;

  bool operator==(const CallSite &O) const {
    return Caller == O.Caller && StmtHash == O.StmtHash;
  }
  bool operator<(const CallSite &O) const {
    if (Caller != O.Caller)
      return Caller < O.Caller;
    return StmtHash < O.StmtHash;
  }
};

/// A k-truncated call string (most recent call site last).
struct Context {
  std::vector<CallSite> Sites;

  bool operator==(const Context &O) const { return Sites == O.Sites; }
  bool operator<(const Context &O) const { return Sites < O.Sites; }

  /// Extends this context with \p Site, truncated to depth \p K.
  Context extend(const CallSite &Site, unsigned K) const {
    Context Out;
    if (K == 0)
      return Out; // context-insensitive: a single shared context
    Out.Sites = Sites;
    Out.Sites.push_back(Site);
    if (Out.Sites.size() > K)
      Out.Sites.erase(Out.Sites.begin(),
                      Out.Sites.end() - static_cast<ptrdiff_t>(K));
    return Out;
  }

  std::string toString() const {
    if (Sites.empty())
      return "[]";
    std::ostringstream OS;
    OS << "[";
    for (size_t I = 0; I < Sites.size(); ++I) {
      if (I)
        OS << ", ";
      OS << symbolName(Sites[I].Caller) << "#" << std::hex
         << (Sites[I].StmtHash & 0xffff);
    }
    OS << "]";
    return OS.str();
  }
};

} // namespace dai

#endif // DAI_INTERPROC_CONTEXT_H
