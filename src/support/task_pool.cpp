//===-- support/task_pool.cpp - Work-stealing task pool -------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/task_pool.h"

#include "support/observe.h"

#include <cassert>

namespace dai {

TaskPool::TaskPool(unsigned Threads) {
  NumWorkers = Threads == 0 ? hardwareParallelism() : Threads;
  Deques.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Deques.push_back(std::make_unique<WorkerDeque>());
  Workers.reserve(NumWorkers > 0 ? NumWorkers - 1 : 0);
  for (unsigned I = 1; I < NumWorkers; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> G(WakeM);
    Stop = true;
  }
  WakeCv.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

TaskPool::Task TaskPool::grabTask(unsigned Id) {
  // Own deque first: back pop keeps the most recently dealt work local.
  {
    WorkerDeque &Own = *Deques[Id];
    std::lock_guard<std::mutex> G(Own.M);
    if (!Own.Q.empty()) {
      Task T = std::move(Own.Q.back());
      Own.Q.pop_back();
      Queued.fetch_sub(1, std::memory_order_acq_rel);
      return T;
    }
  }
  // Steal-half from the first non-empty victim, scanning round-robin from
  // our right neighbor. The stolen run comes off the victim's FRONT (the
  // oldest work, minimizing contention with the victim's back pops); we
  // keep one task to run and bank the rest in our own deque.
  for (unsigned Off = 1; Off < NumWorkers; ++Off) {
    WorkerDeque &Victim = *Deques[(Id + Off) % NumWorkers];
    Task T;
    std::vector<Task> Loot;
    {
      std::lock_guard<std::mutex> G(Victim.M);
      size_t N = Victim.Q.size();
      if (N == 0)
        continue;
      size_t Take = (N + 1) / 2;
      for (size_t I = 0; I < Take; ++I) {
        Loot.push_back(std::move(Victim.Q.front()));
        Victim.Q.pop_front();
      }
    }
    // Only the task we run ourselves leaves the queued population; the
    // banked remainder stays counted (it is stealable again once pushed).
    // Between the pop above and the push below the banked tasks are
    // invisible to scans but still counted in Queued, which keeps other
    // workers rescanning instead of parking across the window.
    Queued.fetch_sub(1, std::memory_order_acq_rel);
    T = std::move(Loot.front());
    if (Loot.size() > 1) {
      WorkerDeque &Own = *Deques[Id];
      std::lock_guard<std::mutex> G(Own.M);
      for (size_t I = 1; I < Loot.size(); ++I)
        Own.Q.push_back(std::move(Loot[I]));
    }
    return T;
  }
  return Task();
}

void TaskPool::recordError() {
  std::lock_guard<std::mutex> G(ErrM);
  if (!FirstError)
    FirstError = std::current_exception();
}

void TaskPool::finishTask() {
  if (Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task of the batch: release the caller blocked in run().
    std::lock_guard<std::mutex> G(WakeM);
    DoneCv.notify_all();
  }
}

void TaskPool::workerLoop(unsigned Id) {
  for (;;) {
    Task T = grabTask(Id);
    if (T) {
      // Bracket the task with counter snapshots so its thread_local deltas
      // can be repatriated to the caller after the batch.
      ThreadCounters Before = ThreadCounters::snapshot();
      {
        TraceSpan Sp("taskpool.task", Id);
        try {
          T();
        } catch (...) {
          recordError();
        }
      }
      ThreadCounters Delta = ThreadCounters::snapshot().deltaSince(Before);
      {
        std::lock_guard<std::mutex> G(AggM);
        Agg.addDelta(Delta);
      }
      finishTask();
      continue;
    }
    // Nothing to run or steal: park until work appears. Queued > 0 with an
    // empty scan means a thief is mid-bank — rescan instead of sleeping.
    // Taking WakeM before the re-check closes the race where run() deals
    // work and bumps the epoch between our failed scan and the wait.
    std::unique_lock<std::mutex> G(WakeM);
    if (Stop)
      return;
    if (Queued.load(std::memory_order_acquire) > 0) {
      G.unlock();
      std::this_thread::yield();
      continue;
    }
    WakeCv.wait(G, [&] {
      return Stop || Queued.load(std::memory_order_acquire) > 0;
    });
    if (Stop)
      return;
  }
}

void TaskPool::run(std::vector<Task> Tasks) {
  if (Tasks.empty())
    return;
  if (NumWorkers <= 1 || Tasks.size() == 1) {
    // Inline fast path: deterministic order, counters already land in the
    // caller's sinks (bit-identical to a serial run). Still
    // capture-and-rethrow so error behavior matches the threaded path
    // (every task runs once).
    for (Task &T : Tasks) {
      TraceSpan Sp("taskpool.task", 0);
      try {
        T();
      } catch (...) {
        recordError();
      }
    }
    std::exception_ptr E;
    {
      std::lock_guard<std::mutex> G(ErrM);
      E = FirstError;
      FirstError = nullptr;
    }
    if (E)
      std::rethrow_exception(E);
    return;
  }

  assert(Remaining.load(std::memory_order_relaxed) == 0 &&
         "TaskPool::run is not reentrant");
  Remaining.store(Tasks.size(), std::memory_order_release);
  {
    // Credit Queued BEFORE dealing (a worker popping a freshly dealt task
    // must never drive the counter below zero), under WakeM so a worker
    // cannot check the park predicate between the store and the notify.
    std::lock_guard<std::mutex> G(WakeM);
    Queued.fetch_add(Tasks.size(), std::memory_order_acq_rel);
  }
  // Deal round-robin so every worker starts with a local share.
  for (size_t I = 0; I < Tasks.size(); ++I) {
    WorkerDeque &D = *Deques[I % NumWorkers];
    std::lock_guard<std::mutex> G(D.M);
    D.Q.push_back(std::move(Tasks[I]));
  }
  WakeCv.notify_all();

  // The caller is worker 0: run tasks until none are reachable, then wait
  // for stragglers executing on other workers.
  for (;;) {
    Task T = grabTask(0);
    if (!T)
      break;
    {
      TraceSpan Sp("taskpool.task", 0);
      try {
        T();
      } catch (...) {
        recordError();
      }
    }
    finishTask();
  }
  {
    std::unique_lock<std::mutex> G(WakeM);
    DoneCv.wait(G, [&] {
      return Remaining.load(std::memory_order_acquire) == 0;
    });
  }

  // Repatriate worker-side counter deltas into the caller's sinks. The
  // caller's own task executions already landed there directly.
  ThreadCounters Batch;
  {
    std::lock_guard<std::mutex> G(AggM);
    Batch = Agg;
    Agg.reset();
  }
  Batch.mergeIntoCurrentThread();

  std::exception_ptr E;
  {
    std::lock_guard<std::mutex> G(ErrM);
    E = FirstError;
    FirstError = nullptr;
  }
  if (E)
    std::rethrow_exception(E);
}

} // namespace dai
