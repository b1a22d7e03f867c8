#include "engine/thread_pool.hpp"

#include "common/assert.hpp"

namespace ncc {

uint32_t ThreadPool::hardware_threads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<uint32_t>(hc);
}

ThreadPool::ThreadPool(uint32_t threads)
    : threads_(threads == 0 ? hardware_threads() : threads) {
  workers_.reserve(threads_ - 1);
  for (uint32_t w = 0; w + 1 < threads_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run(uint64_t tasks, FnRef<void(uint64_t)> fn) {
  NCC_ASSERT_MSG(tasks <= threads_, "static dispatch needs tasks <= threads");
  if (tasks == 0) return;
  if (tasks == 1 || threads_ == 1) {
    for (uint64_t t = 0; t < tasks; ++t) fn(t);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = fn;
    job_tasks_ = tasks - 1;  // workers 0 .. tasks-2
    job_done_ = 0;
    ++generation_;
  }
  cv_work_.notify_all();
  fn(tasks - 1);  // the caller's share
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return job_done_ == job_tasks_; });
  job_ = {};
}

void ThreadPool::worker_loop(uint32_t widx) {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    if (widx < job_tasks_) {
      const FnRef<void(uint64_t)> job = job_;
      lk.unlock();
      job(widx);
      lk.lock();
      if (++job_done_ == job_tasks_) cv_done_.notify_one();
    }
  }
}

}  // namespace ncc
