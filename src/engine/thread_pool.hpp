// Persistent worker pool for the sharded round engine.
//
// Dispatch is deliberately static: run(tasks, fn) hands task i to worker i
// (the calling thread takes the last task), so every task runs exactly once
// on a fixed worker and there is no work-stealing whose interleaving could
// depend on timing. Shard-count determinism is the engine's whole contract;
// the pool's job is only to add cores, never to reorder work.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fn_ref.hpp"

namespace ncc {

class ThreadPool {
 public:
  /// `threads` is the total parallelism including the calling thread;
  /// 0 means hardware_threads(). threads == 1 spawns no workers.
  explicit ThreadPool(uint32_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t threads() const { return threads_; }

  /// Run fn(0) .. fn(tasks-1), blocking until all complete. Requires
  /// tasks <= threads(). Task i runs on worker i; the caller runs the last
  /// task, so a single-threaded pool degenerates to a plain loop.
  void run(uint64_t tasks, FnRef<void(uint64_t)> fn);

  static uint32_t hardware_threads();

 private:
  void worker_loop(uint32_t widx);

  uint32_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  FnRef<void(uint64_t)> job_;
  uint64_t job_tasks_ = 0;  // tasks assigned to workers (caller runs one more)
  uint64_t job_done_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace ncc
