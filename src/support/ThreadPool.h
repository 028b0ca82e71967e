//===- support/ThreadPool.h - Minimal growable thread pool ------*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small worker pool: tasks are submitted as callables and their results
/// retrieved through std::future, which lets the analyzer commit outcomes
/// in submission order (the ordered-commit scheme that keeps parallel runs
/// bit-identical to sequential ones). Tasks run FIFO. The pool starts with
/// the threads it is constructed with and grows on request (growTo), never
/// shrinking; the destructor drains the queue and joins all workers.
///
/// There is no pool-level cancellation: a task that belongs to a run with
/// a deadline checks that deadline at entry itself, so one pool can serve
/// runs with different deadlines.
///
//===----------------------------------------------------------------------===//

#ifndef C4_SUPPORT_THREADPOOL_H
#define C4_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace c4 {

class ThreadPool {
public:
  explicit ThreadPool(unsigned NumThreads) { growTo(NumThreads); }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stopping = true;
    }
    Cv.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  /// Starts workers until the pool has \p NumThreads. Safe to call from
  /// multiple threads.
  void growTo(unsigned NumThreads) {
    std::lock_guard<std::mutex> Lock(Mu);
    while (Workers.size() < NumThreads)
      Workers.emplace_back([this] { workerLoop(); });
  }

  /// Enqueues \p Fn and returns a future for its result. Safe to call from
  /// multiple threads. Tasks must not block on futures of tasks submitted
  /// later (FIFO execution with a bounded worker count would deadlock).
  template <typename Fn>
  auto submit(Fn &&F) -> std::future<std::invoke_result_t<Fn>> {
    using Ret = std::invoke_result_t<Fn>;
    // std::function requires copyable targets; wrap the move-only
    // packaged_task in a shared_ptr.
    auto Task =
        std::make_shared<std::packaged_task<Ret()>>(std::forward<Fn>(F));
    std::future<Ret> Result = Task->get_future();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Queue.emplace_back([Task] { (*Task)(); });
    }
    Cv.notify_one();
    return Result;
  }

private:
  void workerLoop() {
    while (true) {
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
        if (Queue.empty())
          return; // Stopping and drained
        Task = std::move(Queue.front());
        Queue.pop_front();
      }
      Task();
    }
  }

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stopping = false;
};

} // namespace c4

#endif // C4_SUPPORT_THREADPOOL_H
