//===-- support/task_pool.h - Work-stealing task pool ----------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool for running batches of independent
/// analysis tasks, such as batch verification (one task per corpus
/// program, each on its own engine).
///
/// Design:
///  - Per-worker deques. run() deals the batch round-robin across all
///    workers; each worker pops its own deque from the back (LIFO, cache
///    warm) and, when empty, steals from a victim's FRONT — taking half of
///    the victim's queue in one lock acquisition ("steal-half"), which
///    bounds the number of steal operations at O(P log N) per batch.
///  - Idle parking. Workers with no local work and no victim to rob park
///    on a condition variable; run() wakes them by crediting the queued
///    count under the same mutex (no lost wakeups, no idle spinning).
///  - Caller participation. The thread calling run() is worker 0: it
///    executes tasks alongside the spawned threads and only blocks once
///    the batch has no runnable task left for it.
///  - Counter repatriation. The analysis counters live in one thread_local
///    block (ThreadCounters); work executed on a spawned worker would be
///    invisible to the caller's block. The pool snapshots the worker's
///    block around each task and folds the one ThreadCounters delta into
///    the CALLING thread's block before run() returns, so bench totals
///    include worker-thread work (the name-table sink is process-global
///    and atomic, and needs no repatriation).
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
#include <deque>
#include <exception>
#include <functional>
#include <memory>
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
  struct WorkerDeque {
    std::mutex M;
    std::deque<Task> Q;
  };

  void workerLoop(unsigned Id);
  /// Pops a task for worker \p Id: own deque from the back, else steal
  /// half of a victim's deque from the front. Returns an empty function
  /// when no work is available anywhere.
  Task grabTask(unsigned Id);
  void recordError();
  void finishTask();

  unsigned NumWorkers;
  std::vector<std::unique_ptr<WorkerDeque>> Deques; ///< [0] = caller.
  std::vector<std::thread> Workers;                 ///< NumWorkers - 1.

  std::mutex WakeM;
  std::condition_variable WakeCv; ///< Parked workers wait here.
  std::condition_variable DoneCv; ///< run() waits for Remaining == 0 here.
  bool Stop = false;              ///< Guarded by WakeM.
  std::atomic<size_t> Remaining{0}; ///< Tasks not yet finished executing.
  std::atomic<size_t> Queued{0};    ///< Tasks sitting in deques (or in a
                                    ///< thief's hands, pre-banking) — the
                                    ///< park/rescan signal.

  std::mutex AggM;
  ThreadCounters Agg; ///< Worker-side counter deltas for the batch.

  std::mutex ErrM;
  std::exception_ptr FirstError;
};

} // namespace dai

#endif // DAI_SUPPORT_TASK_POOL_H
