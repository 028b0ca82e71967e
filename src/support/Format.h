//===- support/Format.h - Small string formatting helpers ------*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string plus small joining helpers used
/// throughout the analyzer for diagnostics and report rendering, and the
/// count-flag parser of the command-line tools.
///
//===----------------------------------------------------------------------===//

#ifndef C4_SUPPORT_FORMAT_H
#define C4_SUPPORT_FORMAT_H

#include <cstdarg>
#include <string>
#include <vector>

namespace c4 {

/// Formats \p Fmt printf-style and returns the result as a std::string.
std::string strf(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins the elements of \p Parts with \p Sep in between.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Parses the non-negative decimal value \p Text of command-line flag
/// \p Flag into \p Out. Trailing junk, signs and values above 2^32-1 are
/// rejected with an error on stderr ("--max-k banana" or "--max-k -2"
/// must be an error, not silently 0).
bool parseCount(const char *Flag, const char *Text, unsigned &Out);

} // namespace c4

#endif // C4_SUPPORT_FORMAT_H
