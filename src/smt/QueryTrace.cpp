//===- smt/QueryTrace.cpp -------------------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "smt/QueryTrace.h"

#include "support/Format.h"

#include <cstdio>

using namespace c4;

std::string QueryTrace::toJsonl() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out;
  for (size_t I = 0; I != Records.size(); ++I) {
    const QueryRecord &R = Records[I];
    Out += strf("{\"seq\":%zu,\"stage\":\"%s\",\"k\":%u,\"unfolding\":%ld,"
                "\"attempts\":%u,\"retries\":%u,\"rlimit_budget\":%llu,"
                "\"rlimit_spent\":%llu,\"outcome\":\"%s\","
                "\"reused\":%s,\"wall_ms\":%.3f}\n",
                I, R.Stage, R.K, R.Unfolding, R.Attempts,
                R.Attempts ? R.Attempts - 1 : 0,
                static_cast<unsigned long long>(R.RlimitBudget),
                static_cast<unsigned long long>(R.RlimitSpent), R.Outcome,
                R.Reused ? "true" : "false", R.WallMs);
  }
  return Out;
}

bool QueryTrace::writeFile(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string Body = toJsonl();
  size_t Written = std::fwrite(Body.data(), 1, Body.size(), F);
  bool Ok = Written == Body.size();
  Ok = std::fclose(F) == 0 && Ok;
  return Ok;
}
