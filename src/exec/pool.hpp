// Shared execution layer: a fixed-size fork-join pool driving the
// subscriber's HVE match (the chains of one broadcast's multi-output Miller
// loop, split over the threads). Design constraints, in order:
//
//  1. Determinism. A pool of size 1 never spawns a thread: parallel_for()
//     runs the loop inline on the caller, in order, so the discrete-event
//     sim benches and the pinned equivalence tests see the exact sequential
//     execution. Parallel callers must therefore arrange their work so the
//     RESULT is order-independent: a body depends only on its index and
//     writes only its own slot, and no loop draws randomness.
//  2. No oversubscription. A pool of size n runs n - 1 workers; the caller
//     of a loop is the n-th thread. A loop started on a worker runs inline
//     instead of waiting on the pool it is part of.
//  3. Privacy. Loops carry no metric names or runtime strings; the obs
//     integration is limited to the closed p3s.exec.* vocabulary.
//
// Work distribution: a loop hands out chunks of its index range from one
// atomic cursor. The caller pulls chunks itself and queues up to n - 1
// helper jobs on one FIFO; idle workers take helpers from its front and pull
// chunks from the same cursor. The caller then waits for its helpers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/annotations.hpp"

namespace p3s::exec {

class Pool {
 public:
  /// `threads == 0` sizes the pool to std::thread::hardware_concurrency().
  /// A pool of size 1 is the deterministic fallback: no worker threads are
  /// created and every loop runs inline on the calling thread.
  explicit Pool(std::size_t threads = 0);
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Threads a loop runs on, the caller included.
  std::size_t thread_count() const { return threads_; }

  /// Run body(i) for i in [begin, end), blocking until all complete. Indices
  /// are chunked into ~4 chunks per thread (at least `grain` indices each).
  /// The caller participates, so a single-thread pool degenerates to the
  /// plain sequential loop. Exceptions from body are rethrown (first one).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// First-hit search: evaluates pred(i) for i in [0, n) and returns the
  /// LOWEST index for which pred returned true, or SIZE_MAX when none did.
  /// Order-deterministic: a hit at index i only short-circuits indices > i,
  /// so the result always equals the sequential lowest hit.
  std::size_t parallel_find(std::size_t n,
                            const std::function<bool(std::size_t)>& pred);

  /// The process-wide pool the data path uses by default. Sized from the
  /// P3S_THREADS environment variable when set (clamped to [1, 256]), else
  /// hardware_concurrency. Created on first use.
  static Pool& global();
  /// Resize the global pool (benches/tests). Existing references to the old
  /// pool must be quiesced by the caller; the old pool is joined.
  static void set_global_threads(std::size_t threads);

 private:
  struct Loop;  // one parallel_for in flight, owned by its caller's stack

  void worker();

  std::size_t threads_ = 1;
  std::mutex mutex_;  // guards jobs_, stopping_ and every Loop::helpers
  std::condition_variable work_cv_;  // workers: a job was queued, or stop
  std::condition_variable done_cv_;  // callers: a helper finished
  std::deque<Loop*> jobs_ P3S_GUARDED_BY(mutex_);  // one entry per helper
  bool stopping_ P3S_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace p3s::exec
