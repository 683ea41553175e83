// WorkPool — the one pool of persistent worker threads. The store fans
// segment scans over it; the ml fits fan trees, rank columns, label
// chunks and split-search features over it.
//
// Determinism is the callers' part of the contract: every fan-out in
// CampusLab writes each index's result to its own slot and combines
// the slots in index order, so results are bit-identical at every
// thread count. The pool only decides *which thread* runs an index.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace campuslab::util {

/// parallel_for(n, fn) runs fn(0..n-1) across the workers *and the
/// calling thread*, blocking until every index completes; `threads` is
/// the total parallelism (threads-1 workers are spawned). Idle workers
/// block on a condition variable. Concurrent parallel_for calls from
/// different threads serialize on the submit lock — each still fans
/// out, they just take turns owning the pool. A parallel_for issued
/// from inside a task (of any pool) runs inline on that thread, so
/// nested fan-outs cannot deadlock. `fn` must not throw.
class WorkPool {
 public:
  explicit WorkPool(std::size_t threads);
  ~WorkPool();

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  std::size_t threads() const noexcept { return workers_.size() + 1; }

  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  /// Runs fn(slot, i) for every i in [0, n) on at most `slots` tasks at
  /// once; a slot is held by one task at a time, so per-slot scratch
  /// needs no lock. Items are claimed in ascending order.
  void parallel_for_slots(
      std::size_t n, std::size_t slots,
      const std::function<void(std::size_t slot, std::size_t i)>& fn);

  /// The process-wide pool of the ml fits, sized from
  /// std::thread::hardware_concurrency(). Built on first use.
  static WorkPool& shared();

 private:
  // One submitted job. Work claiming goes through the task's own
  // atomics (shared_ptr-held), never through pool-level state: a
  // worker that wakes late and still holds a drained task claims
  // next >= n and retires — it can never claim indices of a *newer*
  // job or touch a caller's destroyed closure.
  struct Task {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
  };

  void worker_loop();

  std::mutex submit_mu_;  // one job in flight at a time
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Task> task_;  // current job, guarded by mu_
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace campuslab::util
