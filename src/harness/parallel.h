// Small thread pool + parallel-for for the campaign scheduler and the tiled
// solvers.
//
// A trial is the unit of Monte-Carlo work: it builds its own inputs from
// its own deterministic seed and runs on the thread-local FaultInjector, so
// trials never share mutable state.  ParallelFor fans an index range across
// a pool of workers pulling from one atomic counter (good load balancing:
// trials at different fault rates cost different amounts).  The campaign
// runner starts one long-lived scheduler loop per worker
// (campaign/runner.cpp), because which trials exist depends on the
// outcomes committed so far, and reduces the per-trial results serially in
// a fixed order — which is what makes output byte-identical for any thread
// count.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace robustify::harness {

// Worker count resolution: an explicit request (> 0) wins, else the
// ROBUSTIFY_THREADS environment variable, else hardware concurrency.
// Always at least 1.
int ResolveThreadCount(int requested);

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);
  ~ThreadPool();  // waits for submitted work, then joins the workers
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void Wait();

  int size() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  int active_ = 0;
  bool stopping_ = false;
};

// Runs fn(0) .. fn(count - 1) across ResolveThreadCount(threads) workers.
// Indices are claimed from a shared atomic counter; each index runs exactly
// once, in unspecified order and on an unspecified thread.  If any call
// throws, the first exception is rethrown in the caller after all workers
// finish.  With one worker (or count <= 1) this degenerates to a plain
// in-order serial loop.
void ParallelFor(int count, int threads, const std::function<void(int)>& fn);

}  // namespace robustify::harness
