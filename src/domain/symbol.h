//===-- domain/symbol.h - Forwarding header ---------------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The intern table lives in support/symbol.h; this header keeps the old
/// include path working for code outside the library that still uses it.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DOMAIN_SYMBOL_H
#define DAI_DOMAIN_SYMBOL_H

#include "support/symbol.h"

#endif // DAI_DOMAIN_SYMBOL_H
