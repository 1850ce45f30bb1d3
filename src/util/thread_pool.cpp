#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"

namespace nb {

thread_pool::thread_pool(std::size_t threads) {
  const std::size_t n = resolve_workers(threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

thread_pool::~thread_pool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void thread_pool::submit(std::function<void()> task) {
  NB_REQUIRE(task != nullptr, "cannot submit an empty task");
  {
    std::unique_lock lock(mutex_);
    NB_ASSERT(!stopping_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void thread_pool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void thread_pool::for_each_index(std::size_t count,
                                 const std::function<void(std::size_t)>& task) {
  std::atomic<std::size_t> next{0};
  const std::size_t workers = std::min(size(), count);
  for (std::size_t w = 0; w < workers; ++w) {
    submit([&next, &task, count] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) task(i);
    });
  }
  wait_idle();
}

void thread_pool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

work_stealing_queues::work_stealing_queues(std::size_t count, std::size_t workers,
                                           std::size_t min_chunk) {
  NB_REQUIRE(workers >= 1, "work stealing needs at least one worker");
  NB_REQUIRE(min_chunk >= 1, "chunks must hold at least one index");
  worker_count_ = workers;
  chunk_ = std::max(min_chunk, count / (workers * 8));
  lanes_ = std::make_unique<lane[]>(workers);
  // Deal contiguous chunks round-robin: a straggler-heavy prefix (e.g.
  // the expensive configs of a campaign grid listed first) spreads over
  // every deque instead of loading one worker's.
  std::size_t next_lane = 0;
  for (std::size_t begin = 0; begin < count; begin += chunk_) {
    const span s{begin, std::min(begin + chunk_, count)};
    lanes_[next_lane].q.push_back(s);
    next_lane = next_lane + 1 == workers ? 0 : next_lane + 1;
  }
}

bool work_stealing_queues::try_pop(std::size_t worker, span& out) {
  NB_ASSERT(worker < worker_count_);
  lane& l = lanes_[worker];
  const std::lock_guard<std::mutex> lock(l.m);
  if (l.q.empty()) return false;
  out = l.q.front();
  l.q.pop_front();
  return true;
}

bool work_stealing_queues::try_steal(std::size_t worker, span& out) {
  NB_ASSERT(worker < worker_count_);
  for (std::size_t i = 1; i < worker_count_; ++i) {
    lane& victim = lanes_[(worker + i) % worker_count_];
    const std::lock_guard<std::mutex> lock(victim.m);
    if (victim.q.empty()) continue;
    out = victim.q.back();  // opposite end from the owner
    victim.q.pop_back();
    return true;
  }
  return false;
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  NB_REQUIRE(body != nullptr, "parallel_for body must not be empty");
  if (count == 0) return;
  const std::size_t workers = std::min(resolve_workers(threads), count);
  if (workers <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  work_stealing_queues queues(count, workers);
  thread_pool pool(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([w, &queues, &body] {
      // Drain own deque, then steal until every deque is empty.  No chunk
      // is ever added after construction, so a failed pop+steal really
      // means done (another worker may still be *executing*, but never
      // producing).
      work_stealing_queues::span s;
      while (queues.try_pop(w, s) || queues.try_steal(w, s)) {
        for (std::size_t i = s.begin; i < s.end; ++i) body(i);
      }
    });
  }
  pool.wait_idle();
}

std::size_t resolve_workers(std::size_t requested) noexcept {
  if (requested > 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

bool warn_if_oversubscribed(std::size_t workers, const std::string& what) {
  const auto cores = static_cast<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  if (workers <= cores) return false;
  return warn_once("oversubscribed/" + what,
                   what + ": " + std::to_string(workers) +
                       " worker threads exceed this machine's " + std::to_string(cores) +
                       " hardware threads; execution will time-slice (results are "
                       "unchanged by the determinism contract, wall-clock is not)");
}

}  // namespace nb
