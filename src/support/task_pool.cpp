//===-- support/task_pool.cpp - Batch task pool ---------------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/task_pool.h"

#include "support/observe.h"

#include <cassert>
#include <utility>

namespace dai {

TaskPool::TaskPool(unsigned Threads)
    : NumWorkers(Threads == 0 ? hardwareParallelism() : Threads) {
  Workers.reserve(NumWorkers - 1);
  for (unsigned I = 1; I < NumWorkers; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> G(M);
    Stop = true;
  }
  WakeCv.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void TaskPool::drain(const std::vector<Task> &Tasks, unsigned Id) {
  for (;;) {
    size_t I = Next.fetch_add(1);
    if (I >= Tasks.size())
      return;
    TraceSpan Sp("taskpool.task", Id);
    try {
      Tasks[I]();
    } catch (...) {
      std::lock_guard<std::mutex> G(M);
      if (!FirstError)
        FirstError = std::current_exception();
    }
  }
}

void TaskPool::workerLoop(unsigned Id) {
  uint64_t Seen = 0;
  std::unique_lock<std::mutex> G(M);
  for (;;) {
    WakeCv.wait(G, [&] { return Stop || Epoch != Seen; });
    if (Stop)
      return;
    Seen = Epoch;
    if (!Batch)
      continue; // withdrawn before this worker woke
    const std::vector<Task> &Tasks = *Batch;
    ++Active;
    G.unlock();
    // One snapshot pair per batch: the delta covers every task this worker
    // claimed, and is repatriated to the caller by run().
    ThreadCounters Before = ThreadCounters::snapshot();
    drain(Tasks, Id);
    ThreadCounters Delta = ThreadCounters::snapshot().deltaSince(Before);
    G.lock();
    Agg.addDelta(Delta);
    if (--Active == 0)
      DoneCv.notify_one();
  }
}

void TaskPool::run(std::vector<Task> Tasks) {
  // Reset before publishing: the mutex orders this store before any
  // worker's first claim.
  Next = 0;
  bool Shared = NumWorkers > 1 && Tasks.size() > 1;
  if (Shared) {
    {
      std::lock_guard<std::mutex> G(M);
      assert(!Batch && "TaskPool::run is not reentrant");
      Batch = &Tasks;
      ++Epoch;
    }
    WakeCv.notify_all();
  }
  // The caller claims tasks too; alone it claims them in order, and its
  // counters land in its own block directly.
  drain(Tasks, 0);

  std::exception_ptr E;
  {
    std::unique_lock<std::mutex> G(M);
    if (Shared) {
      // Every task is claimed; withdraw the batch once no worker is inside
      // it, so a worker that wakes later finds nothing to run.
      DoneCv.wait(G, [&] { return Active == 0; });
      Batch = nullptr;
    }
    // Repatriate the workers' counter deltas into the caller's block.
    Agg.mergeIntoCurrentThread();
    Agg.reset();
    std::swap(E, FirstError);
  }
  if (E)
    std::rethrow_exception(E);
}

} // namespace dai
