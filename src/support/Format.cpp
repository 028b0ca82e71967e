//===- support/Format.cpp -------------------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace c4;

std::string c4::strf(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Size = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Result;
  if (Size > 0) {
    Result.resize(static_cast<size_t>(Size) + 1);
    std::vsnprintf(Result.data(), Result.size(), Fmt, Args);
    Result.resize(static_cast<size_t>(Size));
  }
  va_end(Args);
  return Result;
}

std::string c4::join(const std::vector<std::string> &Parts,
                     const std::string &Sep) {
  std::string Result;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

bool c4::parseCount(const char *Flag, const char *Text, unsigned &Out) {
  if (!Text || !*Text || *Text == '-' || *Text == '+') {
    std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n",
                 Flag, Text ? Text : "");
    return false;
  }
  errno = 0;
  char *End = nullptr;
  unsigned long V = std::strtoul(Text, &End, 10);
  if (errno == ERANGE || *End != '\0' || V > 0xFFFFFFFFul) {
    std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n",
                 Flag, Text);
    return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}
