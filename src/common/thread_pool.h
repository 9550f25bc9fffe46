// Shared fork-join worker pool for the library's parallel hot paths.
//
// One ThreadPool is created per top-level operation (e.g. per RunTiGreedy
// invocation) and borrowed by every component that can use parallelism:
// RR-set sampling (rrset::ParallelSampler), the KPT pilot
// (rrset::SampleSizer), the inverted-index build (rrset::RrStore), coverage
// adoption (rrset::RrCollection) and the cold tier's spills. The pool's
// threads are started once and reused, so even RunTiGreedy's many small
// sample-growth batches pay no thread construction cost.
//
// Execution model — fork-join with caller participation:
//   - Run(n, fn) executes fn(0..n-1) and blocks until all calls returned.
//     The calling thread claims tasks too, so a pool of concurrency c uses
//     c - 1 background workers and never idles the caller.
//   - Run is reentrant: a task may call Run on the same pool (the
//     ad-init tasks in RunTiGreedy do exactly that when they sample). The
//     nested caller claims its own batch's tasks itself; idle workers help.
//     This cannot deadlock: a thread only blocks when every task of its
//     batch is claimed, and a claimed task is actively executing on some
//     thread — the chain of waiters bottoms out at a running leaf task.
//   - Run may also be called from several external threads concurrently;
//     batches share the worker set FIFO.
//
// Exception marshaling: a task that throws does not terminate the process.
// The first exception of a batch is captured, the batch's unclaimed tasks
// are cancelled (already-running ones finish), and the exception is
// rethrown on Run's caller after its fork-join barrier. Realistically this is
// std::bad_alloc during RR sampling; the TI driver converts it to a Status.
//
// Determinism: the pool never influences *what* is computed, only *where*.
// All callers write results into pre-assigned disjoint slots keyed by task
// index, so outputs are bit-identical at any concurrency (see
// rrset/parallel_sampler.h for the per-substream contract).

#ifndef ISA_COMMON_THREAD_POOL_H_
#define ISA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace isa {

class ThreadPool {
 public:
  /// `concurrency` = total threads that execute tasks during Run, including
  /// the caller; the pool spawns `concurrency - 1` background workers.
  /// 0 = hardware concurrency; 1 = no workers, Run executes inline (the
  /// legacy serial path, bit-identical results either way).
  explicit ThreadPool(uint32_t concurrency = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t concurrency() const { return concurrency_; }

  /// Runs fn(i) for every i in [0, n), in unspecified order across the
  /// caller and the workers; returns when all n calls have completed.
  /// If a task throws, the batch's unclaimed tasks are cancelled and the
  /// first exception is rethrown here, after the barrier. Reentrant (see
  /// file comment).
  void Run(uint64_t n, const std::function<void(uint64_t)>& fn);

  /// Caps a worker-count request to this pool's concurrency, with at least
  /// `min_items_per_worker` items each (down to 1 worker for tiny inputs).
  uint32_t WorkersFor(uint64_t items, uint64_t min_items_per_worker) const;

 private:
  // Guarded by mu_ (counters are small; tasks are coarse, so the lock is
  // uncontended in practice).
  struct Batch {
    const std::function<void(uint64_t)>* fn = nullptr;
    uint64_t count = 0;
    uint64_t next = 0;   // first unclaimed index
    uint64_t done = 0;   // completed + cancelled calls
    std::exception_ptr error;  // first task exception; cancels the rest
  };

  void WorkerLoop();
  // Claims and runs tasks of `batch` until none are unclaimed (caller-
  // participation half of the fork-join).
  void Participate(const std::shared_ptr<Batch>& batch);
  // Blocks until every task of `batch` completed, then rethrows its error.
  void Join(const std::shared_ptr<Batch>& batch);
  // Post-task bookkeeping under mu_: records `err` (first one wins,
  // cancelling unclaimed tasks), counts the task done, and wakes joiners.
  void FinishTask(const std::shared_ptr<Batch>& batch, std::exception_ptr err);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: tasks available or stopping
  std::condition_variable done_cv_;  // joiners: some batch completed
  std::deque<std::shared_ptr<Batch>> batches_;
  bool stop_ = false;
  uint32_t concurrency_;
  std::vector<std::thread> workers_;
};

}  // namespace isa

#endif  // ISA_COMMON_THREAD_POOL_H_
