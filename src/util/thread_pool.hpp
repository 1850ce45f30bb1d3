// Minimal fixed-size thread pool plus a deterministic work-stealing
// parallel_for.
//
// The simulation driver runs repetitions concurrently; determinism comes
// from giving each *index* (not each thread) its own derived RNG seed, so
// results are identical for any thread count, including 1.  Scheduling --
// which worker runs which index, in what order -- is free to vary, and
// parallel_for exploits that with work stealing: heterogeneous bodies
// (zipf vs uniform campaign cells, kernel vs fused) no longer straggle
// behind a fixed hand-out order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace nb {

class thread_pool {
 public:
  /// Creates `threads` workers (0 means std::thread::hardware_concurrency,
  /// with a floor of 1).
  explicit thread_pool(std::size_t threads = 0);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; tasks must not throw (wrap and capture if needed).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs task(i) for every i in [0, count) on the workers and returns
  /// once all of them (and every task queued before) finished: one task
  /// per worker, at most `count`, each claiming the next unclaimed index
  /// until none is left.  For a few dozen coarse tasks per call, where a
  /// submit per index would cost more than it balances.
  void for_each_index(std::size_t count, const std::function<void(std::size_t)>& task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Chunked work-stealing index distributor backing parallel_for.
///
/// The index range [0, count) is pre-split into contiguous chunks dealt
/// round-robin across per-worker deques at construction -- nothing is
/// pushed later, so "empty everywhere" means "done".  A worker drains its
/// own deque from the front; once empty it scans the other workers and
/// steals one chunk from the *back* of a victim's deque, keeping thief
/// and owner at opposite ends.  Deques are mutex-protected (chunks are
/// coarse enough that lock traffic is noise next to the work inside a
/// chunk) and padded apart so two workers' queue heads never share a
/// cache line.
///
/// Scheduling only: which worker executes which chunk varies run to run,
/// which is exactly why every consumer keys results on the *index*
/// (derived seeds, index-ordered folds), never on the executing thread.
class work_stealing_queues {
 public:
  struct span {
    std::size_t begin = 0;
    std::size_t end = 0;  // exclusive
  };

  /// Splits [0, count) into chunks of ~count / (workers * 8) indices
  /// (floor `min_chunk`): small enough that stealing can rebalance a
  /// straggler tail, large enough that lock traffic stays negligible.
  work_stealing_queues(std::size_t count, std::size_t workers, std::size_t min_chunk = 1);

  /// Pops the next chunk from `worker`'s own deque.  False when empty.
  bool try_pop(std::size_t worker, span& out);

  /// Steals one chunk from the back of some other worker's deque,
  /// scanning victims round-robin from `worker + 1`.  False when every
  /// deque is empty (all chunks handed out).
  bool try_steal(std::size_t worker, span& out);

  [[nodiscard]] std::size_t workers() const noexcept { return worker_count_; }
  [[nodiscard]] std::size_t chunk() const noexcept { return chunk_; }

 private:
  // Padded to the destructive-interference unit (64B on every target we
  // build for) so per-worker queue state never false-shares.
  struct alignas(64) lane {
    std::mutex m;
    std::deque<span> q;
  };

  std::unique_ptr<lane[]> lanes_;
  std::size_t worker_count_ = 0;
  std::size_t chunk_ = 0;
};

/// Runs body(i) for i in [0, count) across `threads` workers (0 = one per
/// hardware core) via work stealing.  Exceptions escaping `body`
/// terminate (tasks are noexcept by contract); callers that can throw
/// should capture into a result slot instead.  Determinism contract:
/// stealing only reorders *execution*; any result keyed on the index is
/// identical for every thread count, including 1.
void parallel_for(std::size_t count, std::size_t threads, const std::function<void(std::size_t)>& body);

/// `requested` worker threads resolved the way thread_pool resolves them
/// (0 = hardware_concurrency with a floor of 1).
[[nodiscard]] std::size_t resolve_workers(std::size_t requested) noexcept;

/// warn_once (keyed on `what`) when `workers` exceeds this machine's
/// hardware threads: oversubscription silently time-slices -- results are
/// unchanged by contract, wall-clock is not.  Returns true when the
/// warning fired.
bool warn_if_oversubscribed(std::size_t workers, const std::string& what);

}  // namespace nb
