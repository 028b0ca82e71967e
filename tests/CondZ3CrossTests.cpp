//===- tests/CondZ3CrossTests.cpp - CC-SAT vs Z3 cross-check --------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-validates the home-grown satisfiability engine behind the SSG
/// stage (DNF expansion + congruence closure, spec/Cond.cpp) against Z3 on
/// thousands of random conditions and fact environments. The engine must
/// be *sound* (never claim unsat when Z3 finds a model under the same
/// facts) and, on equality-only conditions, *complete* (agree exactly).
/// The Z3 reference below encodes the full fact semantics, unique fresh
/// identities included.
///
//===----------------------------------------------------------------------===//

#include "spec/Cond.h"
#include "support/Rng.h"

#include <z3++.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

using namespace c4;

namespace {

Term randTerm(Rng &R) {
  switch (R.below(3)) {
  case 0:
    return Term::argSrc(static_cast<unsigned>(R.below(3)));
  case 1:
    return Term::argTgt(static_cast<unsigned>(R.below(3)));
  default:
    return Term::constant(R.range(0, 2));
  }
}

Cond randCond(Rng &R, unsigned Depth, bool EqOnly) {
  if (Depth == 0 || R.chance(1, 3)) {
    CmpKind K = CmpKind::Eq;
    if (!EqOnly && R.chance(1, 4))
      K = R.chance(1, 2) ? CmpKind::Lt : CmpKind::Le;
    return Cond::cmp(K, randTerm(R), randTerm(R));
  }
  switch (R.below(3)) {
  case 0:
    return randCond(R, Depth - 1, EqOnly) && randCond(R, Depth - 1, EqOnly);
  case 1:
    return randCond(R, Depth - 1, EqOnly) || randCond(R, Depth - 1, EqOnly);
  default:
    return !randCond(R, Depth - 1, EqOnly);
  }
}

/// Random facts: free, small constant, or one of two shared symbols.
EventFacts randFacts(Rng &R) {
  EventFacts F(3);
  for (ArgFact &A : F) {
    switch (R.below(3)) {
    case 0:
      break;
    case 1:
      A = ArgFact::constant(R.range(0, 2));
      break;
    default:
      A = ArgFact::symbol(static_cast<unsigned>(R.below(2)));
      break;
    }
  }
  return F;
}

/// Term generator for the unique-fact trials: four slots per side, and
/// constants straddling FreshValueMin so the unique-identity lower bound is
/// exercised from both directions.
Term randTermU(Rng &R) {
  switch (R.below(4)) {
  case 0:
    return Term::argSrc(static_cast<unsigned>(R.below(4)));
  case 1:
    return Term::argTgt(static_cast<unsigned>(R.below(4)));
  case 2:
    return Term::constant(R.range(0, 2));
  default:
    return Term::constant(FreshValueMin + R.range(-2, 2));
  }
}

Cond randCondU(Rng &R, unsigned Depth) {
  if (Depth == 0 || R.chance(1, 3)) {
    CmpKind K = CmpKind::Eq;
    if (R.chance(1, 2))
      K = R.chance(1, 2) ? CmpKind::Lt : CmpKind::Le;
    return Cond::cmp(K, randTermU(R), randTermU(R));
  }
  switch (R.below(3)) {
  case 0:
    return randCondU(R, Depth - 1) && randCondU(R, Depth - 1);
  case 1:
    return randCondU(R, Depth - 1) || randCondU(R, Depth - 1);
  default:
    return !randCondU(R, Depth - 1);
  }
}

/// Random facts including Unique identities.
EventFacts randFactsU(Rng &R) {
  EventFacts F(4);
  for (ArgFact &A : F) {
    switch (R.below(4)) {
    case 0:
      break;
    case 1:
      A = ArgFact::constant(R.range(0, 2));
      break;
    case 2:
      A = ArgFact::symbol(static_cast<unsigned>(R.below(2)));
      break;
    default:
      A = ArgFact::unique(static_cast<unsigned>(R.below(3)));
      break;
    }
  }
  return F;
}

/// The Z3 reference: decides whether \p C has a model under \p Src /
/// \p Tgt with the fact semantics the congruence engine assumes —
/// constants pin values, symbols alias slots, and Unique facts are fresh
/// identities (>= FreshValueMin, equal iff the identity matches).
bool z3Satisfiable(const Cond &C, const EventFacts &Src,
                   const EventFacts &Tgt) {
  z3::context Ctx;
  z3::solver Solver(Ctx);

  // One integer per referenced slot; shared symbol / fresh-identity
  // variables on demand.
  std::vector<z3::expr> SrcVars, TgtVars;
  std::map<unsigned, z3::expr> Symbols;
  std::map<unsigned, z3::expr> Uniques;
  auto SlotVar = [&](bool IsSrc, unsigned I) {
    std::vector<z3::expr> &Vars = IsSrc ? SrcVars : TgtVars;
    while (Vars.size() <= I) {
      std::string Name = (IsSrc ? "s" : "t") + std::to_string(Vars.size());
      Vars.push_back(Ctx.int_const(Name.c_str()));
    }
    return Vars[I];
  };
  auto AddFacts = [&](const EventFacts &F, bool IsSrc) {
    for (unsigned I = 0; I != F.size(); ++I) {
      z3::expr V = SlotVar(IsSrc, I);
      switch (F[I].Kind) {
      case ArgFact::Free:
        break;
      case ArgFact::Constant:
        Solver.add(V == Ctx.int_val(static_cast<int64_t>(F[I].Value)));
        break;
      case ArgFact::Symbolic: {
        auto It = Symbols.find(F[I].Symbol);
        if (It == Symbols.end()) {
          std::string Name = "y" + std::to_string(F[I].Symbol);
          It = Symbols.emplace(F[I].Symbol, Ctx.int_const(Name.c_str()))
                   .first;
        }
        Solver.add(V == It->second);
        break;
      }
      case ArgFact::Unique: {
        auto It = Uniques.find(F[I].Symbol);
        if (It == Uniques.end()) {
          std::string Name = "u" + std::to_string(F[I].Symbol);
          z3::expr U = Ctx.int_const(Name.c_str());
          Solver.add(U >= Ctx.int_val(FreshValueMin));
          for (const auto &[Id, Other] : Uniques)
            Solver.add(U != Other);
          It = Uniques.emplace(F[I].Symbol, U).first;
        }
        Solver.add(V == It->second);
        break;
      }
      }
    }
  };
  AddFacts(Src, /*IsSrc=*/true);
  AddFacts(Tgt, /*IsSrc=*/false);

  std::function<z3::expr(const Cond &)> Enc = [&](const Cond &K) {
    switch (K.kind()) {
    case Cond::NodeKind::True:
      return Ctx.bool_val(true);
    case Cond::NodeKind::False:
      return Ctx.bool_val(false);
    case Cond::NodeKind::Atom: {
      auto TermOf = [&](const Term &T) {
        if (T.Kind == Term::ArgSrc)
          return SlotVar(/*IsSrc=*/true, T.Index);
        if (T.Kind == Term::ArgTgt)
          return SlotVar(/*IsSrc=*/false, T.Index);
        return Ctx.int_val(static_cast<int64_t>(T.Value));
      };
      z3::expr L = TermOf(K.atomLHS()), R = TermOf(K.atomRHS());
      switch (K.atomCmp()) {
      case CmpKind::Eq:
        return L == R;
      case CmpKind::Lt:
        return L < R;
      case CmpKind::Le:
        return L <= R;
      }
      return Ctx.bool_val(false);
    }
    case Cond::NodeKind::Not:
      return !Enc(K.children()[0]);
    case Cond::NodeKind::And: {
      z3::expr E = Ctx.bool_val(true);
      for (const Cond &Child : K.children())
        E = E && Enc(Child);
      return E;
    }
    case Cond::NodeKind::Or: {
      z3::expr E = Ctx.bool_val(false);
      for (const Cond &Child : K.children())
        E = E || Enc(Child);
      return E;
    }
    }
    return Ctx.bool_val(false);
  };
  Solver.add(Enc(C));
  return Solver.check() == z3::sat;
}

} // namespace

TEST(CondZ3Cross, SoundOnMixedConditions) {
  Rng R(0xCC0);
  unsigned Z3Sat = 0, Z3Unsat = 0;
  for (int Trial = 0; Trial != 400; ++Trial) {
    Cond C = randCond(R, 3, /*EqOnly=*/false);
    EventFacts Src = randFacts(R), Tgt = randFacts(R);
    bool Z3Says = z3Satisfiable(C, Src, Tgt);
    bool CCSays = C.satisfiableUnder(Src, Tgt);
    (Z3Says ? Z3Sat : Z3Unsat)++;
    // Soundness: if the engine claims unsat, Z3 must agree.
    if (!CCSays) {
      EXPECT_FALSE(Z3Says) << "CC-SAT unsound on " << C.str();
    }
  }
  EXPECT_GT(Z3Sat, 50u);
  EXPECT_GT(Z3Unsat, 20u);
}

TEST(CondZ3Cross, CompleteOnEqualityConditions) {
  Rng R(0xCC1);
  unsigned Agreements = 0;
  for (int Trial = 0; Trial != 400; ++Trial) {
    Cond C = randCond(R, 3, /*EqOnly=*/true);
    EventFacts Src = randFacts(R), Tgt = randFacts(R);
    bool Z3Says = z3Satisfiable(C, Src, Tgt);
    bool CCSays = C.satisfiableUnder(Src, Tgt);
    EXPECT_EQ(CCSays, Z3Says) << C.str();
    Agreements += CCSays == Z3Says;
  }
  EXPECT_EQ(Agreements, 400u);
}

// The DomainZ3Fuzz cases range over the whole fact domain: Unique facts
// (which the tests above never generate) alongside constants and shared
// symbols.

// With Unique facts in play the engine's unsat claims must still be sound
// against the Z3 reference.
TEST(DomainZ3Fuzz, CongruenceSoundWithUniqueFacts) {
  Rng R(0xD0A1);
  unsigned CCUnsat = 0;
  for (int Trial = 0; Trial != 1500; ++Trial) {
    Cond C = randCondU(R, 3);
    EventFacts Src = randFactsU(R), Tgt = randFactsU(R);
    if (C.satisfiableUnder(Src, Tgt))
      continue;
    ++CCUnsat;
    EXPECT_FALSE(z3Satisfiable(C, Src, Tgt))
        << "CC-SAT unsound on " << C.str();
  }
  EXPECT_GT(CCUnsat, 100u);
}

// Equality-only conditions with Unique facts: the engine agrees with Z3
// exactly, extending CompleteOnEqualityConditions to fresh identities.
TEST(DomainZ3Fuzz, DecidesEqualityConditionsExactly) {
  Rng R(0xD0A2);
  unsigned CCUnsat = 0;
  for (int Trial = 0; Trial != 1000; ++Trial) {
    Cond C = randCond(R, 3, /*EqOnly=*/true);
    EventFacts Src = randFactsU(R), Tgt = randFactsU(R);
    bool CCSays = C.satisfiableUnder(Src, Tgt);
    EXPECT_EQ(CCSays, z3Satisfiable(C, Src, Tgt)) << C.str();
    CCUnsat += !CCSays;
  }
  EXPECT_GT(CCUnsat, 100u);
}

// Facts shorter than the referenced slots: slots beyond the facts vector
// are free. A unique fact next to out-of-range slot references once
// misaligned the congruence engine's parallel class tables — keep these
// exact shapes as a regression.
TEST(ShortFacts, OutOfRangeSlotsAreFree) {
  Cond C = Cond::eq(Term::argSrc(0), Term::argTgt(2)) &&
           Cond::eq(Term::argSrc(4), Term::argTgt(5));
  EventFacts Src{ArgFact::unique(3)};
  EventFacts Tgt;
  EXPECT_TRUE(C.satisfiableUnder(Src, Tgt));
  EXPECT_TRUE(z3Satisfiable(C, Src, Tgt));
}

TEST(ShortFacts, UniqueSemanticsSurviveShortVectors) {
  // The unsat answer must come from the unique disequality, not from any
  // accidental slot/class misalignment caused by the trailing free slots.
  Cond C = Cond::eq(Term::argSrc(0), Term::argTgt(0)) &&
           Cond::eq(Term::argSrc(3), Term::argSrc(3));
  EventFacts Src{ArgFact::unique(1)};
  EventFacts Tgt{ArgFact::unique(2)};
  EXPECT_FALSE(C.satisfiableUnder(Src, Tgt));
  EXPECT_FALSE(z3Satisfiable(C, Src, Tgt));
}
