#include "campuslab/util/work_pool.h"

#include <algorithm>

namespace campuslab::util {

namespace {

// True while this thread runs a pool task: a worker always, the caller
// while it acts as worker zero. A parallel_for issued under it runs
// inline instead of waiting on a pool whose workers may all be busy
// with the outer job.
thread_local bool t_in_task = false;

class InTask {
 public:
  InTask() : saved_(t_in_task) { t_in_task = true; }
  ~InTask() { t_in_task = saved_; }
  InTask(const InTask&) = delete;
  InTask& operator=(const InTask&) = delete;

 private:
  bool saved_;
};

}  // namespace

WorkPool::WorkPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

WorkPool::~WorkPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

WorkPool& WorkPool::shared() {
  static WorkPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

void WorkPool::worker_loop() {
  t_in_task = true;
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (generation_ != seen && task_ != nullptr);
      });
      if (stop_) return;
      seen = generation_;
      task = task_;
    }
    for (;;) {
      const std::size_t i =
          task->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= task->n) break;
      (*task->fn)(i);
      if (task->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          task->n) {
        std::lock_guard<std::mutex> lock(mu_);  // pair with the waiter
        done_cv_.notify_all();
      }
    }
  }
}

void WorkPool::parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || t_in_task) {
    const InTask in_task;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  // `fn` outlives the task: every index is claimed-then-completed
  // before the done-wait below returns, and late workers holding the
  // drained task see next >= n and never touch fn again.
  auto task = std::make_shared<Task>();
  task->fn = &fn;
  task->n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = task;
    ++generation_;
  }
  work_cv_.notify_all();
  {
    // The caller is worker zero.
    const InTask in_task;
    for (;;) {
      const std::size_t i =
          task->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
      task->done.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return task->done.load(std::memory_order_acquire) == n;
  });
  task_ = nullptr;
}

void WorkPool::parallel_for_slots(
    std::size_t n, std::size_t slots,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  parallel_for(std::clamp<std::size_t>(slots, 1, n), [&](std::size_t slot) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed))
      fn(slot, i);
  });
}

}  // namespace campuslab::util
