//===- smt/Z3Env.h - Z3 solver environment ----------------------*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thin boundary around the Z3 C++ API. All Z3 usage in the analyzer goes
/// through this header; z3::exception is confined to the smt library (the
/// rest of the code base is exception-free, LLVM style).
///
//===----------------------------------------------------------------------===//

#ifndef C4_SMT_Z3ENV_H
#define C4_SMT_Z3ENV_H

#include <z3++.h>

#include <cstdint>
#include <string>

namespace c4 {

/// Resource budget for one solver query (paper §7 precise stage).
///
/// The primary budget is Z3's \e rlimit — an abstract deduction count, so
/// an `unknown` does not depend on machine speed or load. The count a query
/// spends does depend on the context it runs in: a solving thread's env
/// carries the ASTs and heuristics state of the queries it answered before
/// (see Z3Env), so `rlimit_spent` is telemetry. A verdict could only follow
/// that history for a query whose spend sits at its budget; the default
/// budget leaves every query of the examples and Table 1 apps far below
/// it. A wall-clock ceiling remains as a backstop only: with a sane rlimit
/// it never fires first, but it bounds the damage if a query hits a
/// pathological high-cost-per-unit search region. A query that comes back
/// unknown is retried with the rlimit escalated geometrically
/// (`Escalation`) up to `RlimitCap`, after which it is reported as
/// inconclusive.
struct SolverBudget {
  /// Per-check rlimit, in Z3 resource units (0 = no rlimit, wall only).
  /// One ϕ_cyclic query issues up to two checks (the non-initial-value
  /// assumption pass and the unconstrained pass); each gets this budget.
  uint64_t Rlimit = 20000000;
  /// Geometric escalation factor applied to `Rlimit` on each retry.
  unsigned Escalation = 4;
  /// Retries after the first unknown (total attempts = 1 + MaxRetries).
  unsigned MaxRetries = 2;
  /// Escalation ceiling; attempts clamp their rlimit to this.
  uint64_t RlimitCap = 320000000;
  /// Wall-clock backstop per check, milliseconds (0 = none).
  unsigned WallMs = 10000;

  /// The rlimit for attempt \p Attempt (0-based), clamped to the cap and
  /// to Z3's 32-bit parameter range.
  uint64_t rlimitForAttempt(unsigned Attempt) const {
    if (!Rlimit)
      return 0;
    uint64_t R = Rlimit;
    for (unsigned I = 0; I != Attempt; ++I) {
      if (R > RlimitCap / (Escalation ? Escalation : 1)) {
        R = RlimitCap;
        break;
      }
      R *= Escalation ? Escalation : 1;
    }
    if (R > RlimitCap)
      R = RlimitCap;
    if (R > 0xFFFFFFFFull)
      R = 0xFFFFFFFFull;
    return R;
  }
};

/// Owns a Z3 context and solver. Each solving thread keeps one env for the
/// life of the process (forThisThread()): building a context costs more
/// than a typical small query, and freeing one that has answered many
/// queries costs tens of milliseconds. Queries on one env run one at a
/// time and each starts with reset().
class Z3Env {
public:
  Z3Env() : Solver(Ctx) {}

  /// The calling thread's env, built at its first call. An env is never
  /// freed: when its thread exits it is parked for the next thread that
  /// solves, so a process holds at most one env per thread that was ever
  /// solving at the same time, and its exit frees none.
  static Z3Env &forThisThread();

  z3::context &ctx() { return Ctx; }
  z3::solver &solver() { return Solver; }

  /// Discards all assertions by installing a fresh solver, keeping the
  /// context alive, and installs the budget. Names are not made unique per
  /// query: Z3 interns every symbol in a process-wide table that never
  /// shrinks, so a long-lived env that minted fresh names per query would
  /// grow without bound. A query may therefore meet ASTs and heuristics
  /// state left by earlier queries on the same thread. Sat/unsat answers
  /// do not depend on that, but the model Z3 returns, the rlimit it spends
  /// and so the counter-example constants do; the realized cycle, and with
  /// it every violation set, is pinned by minimizeRealizedCycle instead
  /// (see DESIGN.md, "Long-lived solver environments").
  void reset(uint64_t Rlimit, unsigned WallMs) {
    Solver = z3::solver(Ctx);
    configure(Rlimit, WallMs);
  }

  /// Re-installs a (typically escalated) budget on the *current* solver
  /// without discarding its assertions.
  /// Used by the retry loop: an unknown verdict is re-checked with a larger
  /// rlimit against the already-encoded query, so the encode work is paid
  /// once per query instead of once per attempt.
  void rearm(uint64_t Rlimit, unsigned WallMs) { configure(Rlimit, WallMs); }

  /// Context-cumulative resource count ("rlimit count" solver statistic).
  /// Callers measure one query's cost as a delta of this counter; returns
  /// 0 if the statistic is unavailable.
  uint64_t rlimitCount() {
    try {
      z3::stats St = Solver.statistics();
      for (unsigned I = 0; I != St.size(); ++I)
        if (St.key(I) == "rlimit count")
          return St.is_uint(I) ? St.uint_value(I)
                               : static_cast<uint64_t>(St.double_value(I));
    } catch (const z3::exception &) {
      // Statistics are telemetry only; never let them fail a query.
    }
    return 0;
  }

  z3::expr intConst(const std::string &Name) {
    return Ctx.int_const(Name.c_str());
  }
  z3::expr boolConst(const std::string &Name) {
    return Ctx.bool_const(Name.c_str());
  }
  z3::expr intVal(int64_t V) {
    return Ctx.int_val(static_cast<int64_t>(V));
  }
  z3::expr boolVal(bool B) { return Ctx.bool_val(B); }

  /// Evaluates an integer term in a model, defaulting to 0 for
  /// don't-care values.
  static int64_t evalInt(const z3::model &M, const z3::expr &E) {
    z3::expr R = M.eval(E, /*model_completion=*/true);
    int64_t V = 0;
    if (R.is_numeral_i64(V))
      return V;
    return 0;
  }

  /// Evaluates a boolean term in a model (false for don't-care).
  static bool evalBool(const z3::model &M, const z3::expr &E) {
    z3::expr R = M.eval(E, /*model_completion=*/true);
    return R.is_true();
  }

private:
  /// Installs the budget on the current solver. The rlimit is a scoped
  /// per-check() budget (verified empirically: each check() call spends up
  /// to the configured units and returns unknown when exhausted); the
  /// wall timeout is per check as well.
  void configure(uint64_t Rlimit, unsigned WallMs) {
    z3::params P(Ctx);
    if (WallMs)
      P.set("timeout", WallMs);
    if (Rlimit)
      P.set("rlimit",
            static_cast<unsigned>(Rlimit > 0xFFFFFFFFull ? 0xFFFFFFFFull
                                                         : Rlimit));
    Solver.set(P);
  }

  z3::context Ctx;
  z3::solver Solver;
};

} // namespace c4

#endif // C4_SMT_Z3ENV_H
