//===- support/SingleFlight.h - Stampede-collapsing computation -*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-flight execution: when several threads ask for the same expensive
/// computation (identified by a string key) at the same time, exactly one —
/// the *leader* — performs it while the rest — the *followers* — block and
/// receive the leader's published value. This is the classic cache-stampede
/// guard for the serving tier: a thousand concurrent requests for one
/// analysis fingerprint cost one backend run, not a thousand.
///
/// The flight value is an opaque string (the serving tier stores the
/// serialized AnalysisResult blob, the same bytes the disk verdict layer
/// persists). A leader may decline to share — `complete(..., Share=false)`
/// — which wakes the followers empty-handed so each retries on its own;
/// the pipeline uses that for deadline-expired partial verdicts, which are
/// timing accidents that must not fan out.
///
/// Protocol: `join` returns the flight and whether the caller leads. The
/// leader must call `complete` exactly once (use an RAII guard around the
/// computation so an exception still releases the followers); followers
/// call `wait`. A flight is retired from the table *before* its followers
/// wake, so a request arriving after completion starts a fresh flight —
/// callers are expected to consult their durable cache first, which the
/// leader populates before completing. A flight can also complete between
/// that consultation and `join`; a new leader that sees `completions()`
/// moved since before it consulted the cache consults it again. The count
/// is a lock-free atomic, so reading it costs a cache hit no lock.
///
//===----------------------------------------------------------------------===//

#ifndef C4_SUPPORT_SINGLEFLIGHT_H
#define C4_SUPPORT_SINGLEFLIGHT_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace c4 {

class SingleFlight {
public:
  struct Flight {
    std::mutex Mu;
    std::condition_variable Cv;
    bool Done = false;   ///< leader finished (value may be unshared)
    bool Shared = false; ///< Value is valid and safe for followers to reuse
    /// The published blob, behind a shared_ptr so every follower aliases
    /// the one buffer the leader serialized instead of copying it — with
    /// many waiters on one large result the copies used to dominate the
    /// wake-up.
    std::shared_ptr<const std::string> Value;
  };
  using FlightPtr = std::shared_ptr<Flight>;

  /// Joins (or starts) the flight for \p Key. On return \p Leader says
  /// which side the caller is on: the leader computes and must call
  /// complete() exactly once; a follower calls wait().
  FlightPtr join(const std::string &Key, bool &Leader) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Active.find(Key);
    if (It != Active.end()) {
      Leader = false;
      return It->second;
    }
    auto F = std::make_shared<Flight>();
    Active.emplace(Key, F);
    Leader = true;
    return F;
  }

  /// Leader side: publishes the outcome and retires the flight. With
  /// \p Share false the followers wake empty-handed and retry on their own.
  /// The flight leaves the table before followers wake, so late joiners
  /// start fresh rather than attaching to a completed flight.
  void complete(const std::string &Key, const FlightPtr &F, bool Share,
                std::string Value = std::string()) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Active.find(Key);
      if (It != Active.end() && It->second == F)
        Active.erase(It);
      // Under Mu: a join that finds the flight retired also sees the count.
      Completions.fetch_add(1, std::memory_order_release);
    }
    {
      std::lock_guard<std::mutex> Lock(F->Mu);
      F->Shared = Share;
      if (Share)
        F->Value = std::make_shared<const std::string>(std::move(Value));
      F->Done = true;
    }
    F->Cv.notify_all();
  }

  /// How many flights have completed so far (any key). A leader's cache
  /// store precedes its count, so a reader that sees the count sees it.
  uint64_t completions() const {
    return Completions.load(std::memory_order_acquire);
  }

  /// Follower side: blocks until the leader completes. Returns the shared
  /// value (all followers alias one buffer), or null when the leader
  /// declined to share (retry yourself).
  static std::shared_ptr<const std::string> wait(const FlightPtr &F) {
    std::unique_lock<std::mutex> Lock(F->Mu);
    F->Cv.wait(Lock, [&F] { return F->Done; });
    if (!F->Shared)
      return nullptr;
    return F->Value;
  }

private:
  std::mutex Mu;
  std::unordered_map<std::string, FlightPtr> Active;
  std::atomic<uint64_t> Completions{0};
};

} // namespace c4

#endif // C4_SUPPORT_SINGLEFLIGHT_H
