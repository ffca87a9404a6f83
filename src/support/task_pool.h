//===-- support/task_pool.h - Batch task pool ------------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small thread pool for running batches of independent analysis tasks,
/// such as batch verification (one task per corpus program, each on its
/// own engine).
///
/// Design:
///  - One shared cursor. run() publishes the batch under the pool mutex
///    and bumps an epoch; the caller and every woken worker claim tasks
///    with fetch_add on one atomic cursor until it passes the end. A task
///    is a whole program, long next to one atomic increment, so this
///    balances at task granularity without per-worker queues.
///  - Caller participation. The thread calling run() claims tasks like any
///    worker. Once its own drain is done and no worker is inside the batch,
///    run() withdraws the batch, so a worker that wakes late finds nothing
///    to run. Idle workers sleep on a condition variable.
///  - Counter repatriation. The analysis counters live in one thread_local
///    block (ThreadCounters); work executed on a worker would be invisible
///    to the caller's block. Each worker snapshots its block once per
///    batch and folds the one delta into the batch aggregate, which run()
///    merges into the CALLING thread's block before it returns, so bench
///    totals include worker-thread work (the name-table sink is
///    process-global and atomic, and needs no repatriation).
///
/// Exceptions thrown by tasks are captured; the batch still runs to
/// completion (every task executes exactly once) and the first captured
/// exception is rethrown from run() after the counter merge.
///
/// run() is a barrier and is NOT reentrant: tasks must not call run() on
/// the pool executing them.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_SUPPORT_TASK_POOL_H
#define DAI_SUPPORT_TASK_POOL_H

#include "support/statistics.h"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dai {

class TaskPool {
public:
  using Task = std::function<void()>;

  /// Creates a pool with \p Threads total workers (including the caller of
  /// run()); 0 means hardwareParallelism(). A pool of 1 spawns no threads
  /// and run() degrades to executing the batch inline, in order.
  explicit TaskPool(unsigned Threads = 0);
  ~TaskPool();

  TaskPool(const TaskPool &) = delete;
  TaskPool &operator=(const TaskPool &) = delete;

  /// Total workers, caller included.
  unsigned parallelism() const { return NumWorkers; }

  /// The hardware concurrency hint, clamped to at least 1.
  static unsigned hardwareParallelism() {
    unsigned N = std::thread::hardware_concurrency();
    return N == 0 ? 1u : N;
  }

  /// Runs \p Tasks to completion. Barrier: returns only when every task
  /// has executed. Worker-thread counter deltas are merged into the
  /// calling thread's sinks before returning; the first task exception
  /// (if any) is rethrown after that merge.
  void run(std::vector<Task> Tasks);

private:
  void workerLoop(unsigned Id);
  /// Claims and runs tasks of \p Tasks on worker \p Id until the cursor
  /// passes the end.
  void drain(const std::vector<Task> &Tasks, unsigned Id);

  unsigned NumWorkers;
  std::atomic<size_t> Next{0}; ///< The cursor: the next unclaimed task.

  /// Guards Batch, Epoch, Active, Stop, Agg and FirstError.
  std::mutex M;
  std::condition_variable WakeCv; ///< Workers wait here for a new epoch.
  std::condition_variable DoneCv; ///< run() waits here for Active == 0.
  const std::vector<Task> *Batch = nullptr; ///< The published batch.
  uint64_t Epoch = 0;  ///< Bumped by every run() that publishes a batch.
  unsigned Active = 0; ///< Workers inside the published batch.
  bool Stop = false;
  ThreadCounters Agg; ///< Worker-side counter deltas for the batch.
  std::exception_ptr FirstError;

  /// NumWorkers - 1 threads, ids 1.. (the caller is 0). Declared last: the
  /// threads use every member above.
  std::vector<std::thread> Workers;
};

} // namespace dai

#endif // DAI_SUPPORT_TASK_POOL_H
