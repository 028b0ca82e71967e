//===- ssg/SSG.h - Static serialization graphs (§6) -------------*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static serialization graph (Definition 3) and the fast serializability
/// analysis of paper §6. The SSG summarizes every DSG of every concretization
/// of an abstract history: nodes are abstract transactions; an edge (s,t)
/// labeled ⊕/⊖/⊗ exists when some event pair could form that dependency in
/// some concretization — decided by satisfiability of ¬com under the events'
/// argument facts. Theorem 3 then refutes cycles per strongly-connected
/// component:
///
///   (SC1) a real violation needs an anti-dependency (and in simple-cycle
///         settings, two of them or one plus a conflict),
///   (SC2) (a) two updates that need not absorb each other, or
///         (b) a query-before-update transaction whose query and update both
///             interfere with the component.
///
/// The SSG operates in two modes:
///  * General — the standalone fast analysis over a raw abstract history.
///    An abstract transaction summarizes arbitrarily many concrete instances
///    on unknown sessions, so self-pairs (s = t, even e = f) are considered
///    and session-local variables resolve to distinct symbols per side.
///  * Instantiated — over a k-unfolding, where every transaction has exactly
///    one concrete instance on a known abstract session (small-model
///    property U2). Used as the pre-filter and cycle-candidate enumerator
///    for the SMT stage.
///
//===----------------------------------------------------------------------===//

#ifndef C4_SSG_SSG_H
#define C4_SSG_SSG_H

#include "abstract/AbstractHistory.h"
#include "abstract/Features.h"
#include "history/DSG.h"
#include "spec/CommutativityCache.h"
#include "support/Digraph.h"

#include <functional>
#include <optional>
#include <vector>

namespace c4 {

/// A candidate violation found by the fast analysis: the transactions of one
/// suspicious strongly-connected component.
struct SSGViolation {
  std::vector<unsigned> Txns;
};

/// A simple cycle (or open path) of an instantiated SSG, as input to the
/// SMT stage: the transaction sequence plus, per step, the set of labels
/// available on the corresponding edge. For cycles the final step wraps
/// from Txns.back() to Txns.front(); for open paths (§7.2 segments) there
/// are Txns.size()-1 steps and no SC1 requirement beyond one
/// anti-dependency.
struct CandidateCycle {
  std::vector<unsigned> Txns;
  std::vector<std::vector<int>> StepLabels;
  bool Closed = true;
};

/// One event-pair alternative behind a D1-D3 dependency edge disjunct: the
/// update-side event \p EU (always passed first to ¬com), the other event
/// \p EQ, and the commute mode of the ¬com conjunct.
struct DepPairAlt {
  unsigned EU;
  unsigned EQ;
  CommuteMode Mode;
};

/// Enumerates the event-pair alternatives of the edge (\p TS, \p TT,
/// \p Label): exactly the disjuncts the SMT encoder's edge formula ranges
/// over, in the same order. DepSO yields no pairs (it is a pure presence
/// edge; callers test session order themselves).
std::vector<DepPairAlt> depPairAlternatives(const AbstractHistory &A,
                                            unsigned TS, unsigned TT,
                                            int Label,
                                            const AnalysisFeatures &F);

/// Builds and analyzes the SSG of an abstract history.
class SSG {
public:
  /// General mode (standalone fast analysis).
  SSG(const AbstractHistory &A, const AnalysisFeatures &F);
  /// Instantiated mode (unfoldings): \p SessionTags gives each transaction's
  /// abstract session; transactions are one-to-one.
  SSG(const AbstractHistory &A, const AnalysisFeatures &F,
      std::vector<unsigned> SessionTags);

  /// Restricts the analysis to a subset of non-marker events (display-code
  /// and atomic-set filters, §9.1). Must be called before analyze().
  void setEventMask(std::vector<bool> Mask);

  /// Attaches a shared memoization oracle for the ¬com / ¬abs conditions
  /// and their satisfiability verdicts. Optional: without it, every query
  /// is computed from scratch (identical verdicts, more work). The oracle
  /// must outlive this SSG; it may be shared across SSGs and threads.
  void setOracle(CommutativityOracle *O) { Oracle = O; }

  /// Builds the graph and runs the Theorem 3 checks.
  void analyze();

  const Digraph &graph() const { return Graph; }

  /// Potential violations (one per suspicious SCC). Empty means the abstract
  /// history is proved serializable by the fast analysis.
  const std::vector<SSGViolation> &violations() const { return Violations; }
  bool provesSerializable() const { return Violations.empty(); }

  /// Instantiated mode only: enumerates SC1-feasible simple cycles for the
  /// SMT stage.
  std::vector<CandidateCycle> candidateCycles(unsigned MaxCycles,
                                              bool &Truncated) const;

  /// Instantiated mode only: enumerates the §7.2 *segment patterns* —
  /// simple paths that span every abstract session (given by
  /// \p SessionTags at construction, \p NumSessions in total) and can carry
  /// at least one anti-dependency step.
  /// \p OrigTxn maps each transaction to its original (syntactic)
  /// transaction, used to collapse session-symmetric duplicates.
  /// \p Keep, when set, filters segments during enumeration (the analyzer
  /// drops segments already subsumed by known violations); only kept
  /// segments count toward \p MaxSegments.
  /// \p RequireAllTxns restricts to segments visiting every transaction —
  /// any segment is covered by the unfolding holding exactly its
  /// transactions, so the generalization check only needs those.
  std::vector<CandidateCycle> spanningSegments(
      unsigned NumSessions, unsigned MaxSegments, bool &Truncated,
      const std::vector<unsigned> &OrigTxn,
      const std::function<bool(const CandidateCycle &)> *Keep = nullptr,
      bool RequireAllTxns = false) const;

  /// The satisfiability test behind the edges: can events \p E and \p F (in
  /// transactions with the given side roles) interfere in mode \p Mode?
  /// Exposed for the SMT encoder and for tests.
  bool mayInterfere(unsigned E, unsigned F, CommuteMode Mode) const;

  /// Can update \p U fail to be absorbed by update \p V?
  bool mayNotAbsorb(unsigned U, unsigned V) const;

private:
  EventFacts factsFor(unsigned Event, bool SourceSide) const;
  bool included(unsigned Event) const;
  bool checkSC2(const std::vector<unsigned> &SCCTxns) const;

  const AbstractHistory &A;
  AnalysisFeatures Features;
  CommutativityOracle *Oracle = nullptr;
  std::optional<std::vector<unsigned>> SessionTags; // instantiated mode
  std::vector<bool> EventMask;
  Digraph Graph;
  std::vector<SSGViolation> Violations;
};

} // namespace c4

#endif // C4_SSG_SSG_H
