//===- smt/Z3Env.cpp ------------------------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "smt/Z3Env.h"

#include <mutex>
#include <vector>

using namespace c4;

namespace {

/// Envs whose threads exited, waiting for the next thread that solves.
/// Allocated once and never destroyed, so it outlives every thread's exit.
struct IdleEnvs {
  std::mutex Mu;
  std::vector<Z3Env *> Envs;
};

IdleEnvs &idleEnvs() {
  static IdleEnvs *Idle = new IdleEnvs;
  return *Idle;
}

/// A thread's env; parked in idleEnvs() when the thread exits.
struct ThreadEnv {
  Z3Env *Env = nullptr;
  ~ThreadEnv() {
    if (!Env)
      return;
    IdleEnvs &Idle = idleEnvs();
    std::lock_guard<std::mutex> Lock(Idle.Mu);
    Idle.Envs.push_back(Env);
  }
};

thread_local ThreadEnv Mine;

} // namespace

Z3Env &Z3Env::forThisThread() {
  if (!Mine.Env) {
    IdleEnvs &Idle = idleEnvs();
    {
      std::lock_guard<std::mutex> Lock(Idle.Mu);
      if (!Idle.Envs.empty()) {
        Mine.Env = Idle.Envs.back();
        Idle.Envs.pop_back();
      }
    }
    if (!Mine.Env)
      Mine.Env = new Z3Env;
  }
  return *Mine.Env;
}
