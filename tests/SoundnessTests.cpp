//===- tests/SoundnessTests.cpp - Randomized soundness fuzzing ------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strongest property we can test mechanically: when the full pipeline
/// declares a random small program *serializable*, no small concretization
/// of its abstract history may be unserializable. We enumerate
/// concretizations exhaustively within tiny bounds (2 sessions, ≤2
/// transactions each, arguments from {0,1}) and decide serializability by
/// brute force. A single counter-example here would demonstrate a
/// soundness bug in the SSG stage, the unfolder, the SMT encoding, or the
/// generalization. Each of the 40 seeded trials is its own case
/// (`Trial/Soundness.SerializableVerdictsHaveNoSmallCounterexamples/<i>`);
/// `Soundness.TrialsExerciseBothVerdicts` checks that the trials cover both
/// verdicts.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

using namespace c4;

namespace {

/// A random abstract history over one map container: 2-3 transactions of
/// 1-2 events each, arguments free / bound to constants / session-local.
AbstractHistory randomAbstract(const Schema &Sch, Rng &R,
                               unsigned &NumLocals) {
  AbstractHistory A(Sch);
  unsigned Local = A.addLocalVar();
  NumLocals = 1;
  const DataTypeSpec *T = Sch.container(0).Type;
  unsigned NumTxns = static_cast<unsigned>(R.range(2, 3));
  for (unsigned I = 0; I != NumTxns; ++I) {
    unsigned Txn = A.addTransaction("t" + std::to_string(I));
    unsigned Prev = A.entry(Txn);
    unsigned NumEvents = static_cast<unsigned>(R.range(1, 2));
    for (unsigned E = 0; E != NumEvents; ++E) {
      unsigned Op = static_cast<unsigned>(R.below(T->ops().size()));
      AbsFacts Facts(T->ops()[Op].numVals());
      for (unsigned S = 0; S != T->ops()[Op].NumArgs; ++S) {
        switch (R.below(3)) {
        case 0:
          break; // free
        case 1:
          Facts[S] = AbsFact::constant(R.range(0, 1));
          break;
        case 2:
          Facts[S] = AbsFact::localVar(Local);
          break;
        }
      }
      unsigned Ev = A.addEvent(Txn, 0, Op, std::move(Facts));
      A.addEo(Prev, Ev);
      Prev = Ev;
    }
  }
  A.allowAllSo();
  return A;
}

/// Enumerates concrete histories drawn from the abstract history within
/// tiny bounds and calls \p Fn for each; stops early when Fn returns true.
/// Sessions instantiate transaction sequences; arguments range over {0,1};
/// query returns are not enumerated here — serializability only depends on
/// them through legality, so we enumerate returns too (over the values a
/// query can produce: {0,1}).
bool forEachSmallConcretization(
    const AbstractHistory &A,
    const std::function<bool(const History &)> &Fn) {
  const Schema &Sch = A.schema();
  // Session plans: ordered pairs of transaction sequences of length <= 2.
  std::vector<std::vector<unsigned>> Seqs;
  for (unsigned T1 = 0; T1 != A.numTxns(); ++T1) {
    Seqs.push_back({T1});
    for (unsigned T2 = 0; T2 != A.numTxns(); ++T2)
      Seqs.push_back({T1, T2});
  }
  for (const std::vector<unsigned> &S1 : Seqs)
    for (const std::vector<unsigned> &S2 : Seqs) {
      // Enumerate argument/return valuations: collect slots first.
      struct Slot {
        unsigned Txn;  // position: which session/seq/txn
        unsigned Session;
        unsigned Event; // abstract event
        unsigned Index; // combined slot
      };
      std::vector<Slot> Slots;
      std::vector<std::vector<unsigned>> Sessions = {S1, S2};
      for (unsigned S = 0; S != 2; ++S)
        for (unsigned TI = 0; TI != Sessions[S].size(); ++TI)
          for (unsigned E : A.txn(Sessions[S][TI]).Events) {
            if (A.event(E).isMarker())
              continue;
            for (unsigned I = 0; I != A.op(E).numVals(); ++I)
              Slots.push_back({TI, S, E, I});
          }
      if (Slots.size() > 10)
        continue; // keep the enumeration tractable
      // Local variable values per session (from {0,1}).
      for (unsigned LocalVals = 0; LocalVals != 4; ++LocalVals) {
        int64_t Locals[2] = {LocalVals & 1, (LocalVals >> 1) & 1};
        unsigned Combos = 1u << Slots.size();
        for (unsigned Mask = 0; Mask != Combos; ++Mask) {
          // Build the candidate history; facts may reject the valuation.
          History H(Sch);
          bool Ok = true;
          unsigned Bit = 0;
          for (unsigned S = 0; S != 2 && Ok; ++S) {
            unsigned Session = H.addSession();
            for (unsigned TI = 0; TI != Sessions[S].size() && Ok; ++TI) {
              unsigned Txn = H.beginTransaction(Session);
              for (unsigned E : A.txn(Sessions[S][TI]).Events) {
                if (A.event(E).isMarker())
                  continue;
                const OpSig &Op = A.op(E);
                std::vector<int64_t> Vals;
                for (unsigned I = 0; I != Op.numVals(); ++I) {
                  int64_t V = (Mask >> Bit) & 1;
                  ++Bit;
                  const AbsFact &F = A.event(E).Facts[I];
                  if (F.Kind == AbsFact::Const)
                    V = F.Value;
                  else if (F.Kind == AbsFact::LocalVar)
                    V = Locals[S];
                  Vals.push_back(V);
                }
                std::vector<int64_t> Args(Vals.begin(),
                                          Vals.begin() + Op.NumArgs);
                std::optional<int64_t> Ret;
                if (Op.HasRet)
                  Ret = Vals.back();
                H.append(Txn, A.event(E).Container, A.event(E).Op,
                         std::move(Args), Ret);
              }
            }
          }
          if (!Ok)
            continue;
          if (Fn(H))
            return true;
        }
      }
    }
  return false;
}

/// The 40 random programs of the soundness trials, drawn in order from one
/// seeded stream: trial i always analyzes the same program.
struct TrialPrograms {
  static constexpr unsigned NumTrials = 40;

  TrialPrograms() {
    Sch.addContainer("M", Reg.lookup("map"));
    Rng R(0x50DA);
    for (unsigned Trial = 0; Trial != NumTrials; ++Trial) {
      unsigned NumLocals = 0;
      Programs.push_back(randomAbstract(Sch, R, NumLocals));
    }
  }

  static AnalysisResult analyzeTrial(const AbstractHistory &A) {
    AnalyzerOptions O;
    O.Budget.WallMs = 5000;
    return analyze(A, O);
  }

  TypeRegistry Reg;
  Schema Sch;
  std::vector<AbstractHistory> Programs;
};

/// True when the concretization \p H is unserializable and some legal
/// causal schedule realizes it: a counter-example to a serializable
/// verdict.
bool realizableUnserializable(const History &H) {
  // Only histories that genuinely arise matter: their own query returns
  // must be achievable — brute-force serializability handles that: if H is
  // unserializable AND legal under some causal schedule, it is a
  // counter-example. We approximate "legal under some causal schedule" by
  // requiring that a causal schedule with S1 exists; the cheapest complete
  // check at this size is: does some schedule built from a transaction
  // linearization + subset visibility satisfy S1? We test the
  // weaker-but-sound direction: if H is serializable, it is no
  // counter-example.
  if (isSerializable(H))
    return false;
  // Unserializable concretization: does any legal causal schedule realize
  // it? Try all transaction-level visibility assignments.
  unsigned N = H.numTransactions();
  std::vector<unsigned> Order(N);
  for (unsigned I = 0; I != N; ++I)
    Order[I] = I;
  // Arbitration orders: permutations respecting session order.
  std::sort(Order.begin(), Order.end());
  do {
    bool SoOk = true;
    for (unsigned I = 0; I != N && SoOk; ++I)
      for (unsigned J = I + 1; J != N && SoOk; ++J)
        SoOk = !H.txnSoLess(Order[J], Order[I]);
    if (!SoOk)
      continue;
    // Visibility subsets over ar-ordered pairs.
    std::vector<std::pair<unsigned, unsigned>> Pairs;
    for (unsigned I = 0; I != N; ++I)
      for (unsigned J = I + 1; J != N; ++J)
        Pairs.push_back({Order[I], Order[J]});
    for (unsigned VMask = 0; VMask != (1u << Pairs.size()); ++VMask) {
      Schedule S(H.numEvents());
      std::vector<unsigned> EvOrder;
      for (unsigned T : Order)
        for (unsigned E : H.txn(T).Events)
          EvOrder.push_back(E);
      S.setArbitration(EvOrder);
      for (unsigned PI = 0; PI != Pairs.size(); ++PI)
        if ((VMask >> PI) & 1)
          for (unsigned EA : H.txn(Pairs[PI].first).Events)
            for (unsigned EB : H.txn(Pairs[PI].second).Events)
              S.setVisible(EA, EB);
      S.closeCausally(H);
      if (isLegalSchedule(H, S))
        return true; // realizable and unserializable!
    }
  } while (std::next_permutation(Order.begin(), Order.end()));
  return false;
}

} // namespace

/// One trial: if the pipeline judges program i serializable, no small
/// concretization of it may be a realizable unserializable history. Each
/// trial is its own case so that the brute force spreads over cores.
class Soundness : public testing::TestWithParam<unsigned> {};

TEST_P(Soundness, SerializableVerdictsHaveNoSmallCounterexamples) {
  TrialPrograms T;
  const AbstractHistory &A = T.Programs[GetParam()];
  AnalysisResult Res = TrialPrograms::analyzeTrial(A);
  if (!Res.Violations.empty() || !Res.Generalized)
    return; // flagged, or a bounded-only result: no unbounded claim to test
  EXPECT_FALSE(forEachSmallConcretization(A, realizableUnserializable))
      << "soundness bug: a program judged serializable has an "
         "unserializable realizable concretization";
}

INSTANTIATE_TEST_SUITE_P(Trial, Soundness,
                         testing::Range(0u, TrialPrograms::NumTrials));

TEST(Soundness, TrialsExerciseBothVerdicts) {
  // The trials must exercise both verdicts and give the serializable ones
  // concretizations to check. Counting them is cheap; deciding them is
  // the per-trial cases' work.
  TrialPrograms T;
  unsigned Serializable = 0, Flagged = 0, Checked = 0;
  for (const AbstractHistory &A : T.Programs) {
    AnalysisResult Res = TrialPrograms::analyzeTrial(A);
    if (!Res.Violations.empty()) {
      ++Flagged;
      continue;
    }
    if (!Res.Generalized)
      continue;
    ++Serializable;
    forEachSmallConcretization(A, [&](const History &) {
      ++Checked;
      return false;
    });
  }
  EXPECT_GT(Serializable, 3u);
  EXPECT_GT(Flagged, 3u);
  EXPECT_GT(Checked, 100u);
}
