#include "common/thread_pool.h"

#include <algorithm>
#include <new>

#include "common/failpoint.h"

namespace isa {

ThreadPool::ThreadPool(uint32_t concurrency)
    : concurrency_(std::clamp(
          concurrency != 0 ? concurrency
                           : std::max(1u, std::thread::hardware_concurrency()),
          // Oversubscribing cores buys nothing for this library's pure-CPU
          // workloads, and std::thread construction throws once the OS runs
          // out of thread resources — clamp even explicit requests.
          1u, 4 * std::max(1u, std::thread::hardware_concurrency()))) {
  workers_.reserve(concurrency_ - 1);
  for (uint32_t w = 0; w + 1 < concurrency_; ++w) {
    try {
      workers_.emplace_back([this] { WorkerLoop(); });
    } catch (const std::system_error&) {
      // Thread limit hit (RLIMIT_NPROC, cgroup pids cap): run with the
      // workers that did start rather than letting the half-built vector's
      // joinable-thread destructors terminate the process.
      concurrency_ = w + 1;
      break;
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

uint32_t ThreadPool::WorkersFor(uint64_t items,
                                uint64_t min_items_per_worker) const {
  const uint64_t by_work = items / std::max<uint64_t>(1, min_items_per_worker);
  return static_cast<uint32_t>(std::clamp<uint64_t>(by_work, 1, concurrency_));
}

void ThreadPool::FinishTask(const std::shared_ptr<Batch>& batch,
                            std::exception_ptr err) {
  std::lock_guard<std::mutex> lock(mu_);
  if (err != nullptr) {
    if (batch->error == nullptr) batch->error = err;
    // Cancel the batch's unclaimed tasks: count them done so the joiner's
    // barrier still closes. Tasks already claimed by other threads finish
    // normally (their slots are independent).
    batch->done += batch->count - batch->next;
    batch->next = batch->count;
  }
  if (++batch->done >= batch->count) done_cv_.notify_all();
}

void ThreadPool::Participate(const std::shared_ptr<Batch>& batch) {
  for (;;) {
    uint64_t i;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (batch->next >= batch->count) break;
      i = batch->next++;
    }
    std::exception_ptr err;
    try {
      (*batch->fn)(i);
    } catch (...) {
      err = std::current_exception();
    }
    FinishTask(batch, err);
  }
}

void ThreadPool::Join(const std::shared_ptr<Batch>& batch) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return batch->done >= batch->count; });
  }
  if (batch->error != nullptr) std::rethrow_exception(batch->error);
}

void ThreadPool::Run(uint64_t n, const std::function<void(uint64_t)>& fn) {
  if (n == 0) return;
  // "pool.alloc" models the batch allocation failing — the same
  // std::bad_alloc a real heap exhaustion would raise here, surfaced to
  // the caller like any task exception.
  if (FailPointHit("pool.alloc") != 0) throw std::bad_alloc();
  if (workers_.empty() || n == 1) {
    // Inline path: exceptions propagate to the caller directly — the same
    // contract as the marshaled multi-worker path below.
    for (uint64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->count = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(batch);
  }
  work_cv_.notify_all();

  Participate(batch);
  // Tasks claimed by workers may still be in flight; the batch's first
  // exception (if any) surfaces here, after the barrier.
  Join(batch);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Exhausted batches stay queued only until a worker passes by; their
    // joiners hold them via shared_ptr until completion.
    while (!batches_.empty() &&
           batches_.front()->next >= batches_.front()->count) {
      batches_.pop_front();
    }
    if (stop_) return;
    if (batches_.empty()) {
      work_cv_.wait(lock);
      continue;
    }
    std::shared_ptr<Batch> batch = batches_.front();
    const uint64_t i = batch->next++;
    lock.unlock();
    std::exception_ptr err;
    try {
      (*batch->fn)(i);
    } catch (...) {
      err = std::current_exception();
    }
    FinishTask(batch, err);
    lock.lock();
  }
}

}  // namespace isa
