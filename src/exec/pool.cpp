#include "exec/pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

namespace p3s::exec {

namespace {
struct ExecMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Gauge& threads = reg.gauge(obs::names::kExecThreads);
  obs::Counter& parallel_for = reg.counter(obs::names::kExecParallelForTotal);
};

ExecMetrics& exec_metrics() {
  static ExecMetrics m;
  return m;
}

thread_local bool t_on_worker = false;
}  // namespace

struct Pool::Loop {
  const std::function<void(std::size_t)>& body;
  const std::size_t end;
  const std::size_t chunk;
  std::atomic<std::size_t> next;
  std::atomic<bool> failed{false};
  std::exception_ptr error{};  // written once, by whoever set `failed`
  std::size_t helpers = 0;     // queued or running; under Pool::mutex_

  // Pull chunks until the range is exhausted. After the first exception the
  // remaining indices are skipped.
  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(chunk, std::memory_order_relaxed);
      if (i >= end) return;
      const std::size_t stop = std::min(i + chunk, end);
      try {
        for (std::size_t j = i; j < stop && !failed.load(); ++j) body(j);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
  }
};

Pool::Pool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads_ = threads;
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { worker(); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Pool::worker() {
  t_on_worker = true;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || !jobs_.empty(); });
    if (jobs_.empty()) return;  // stopping
    Loop* loop = jobs_.front();
    jobs_.pop_front();
    lock.unlock();
    loop->run();
    lock.lock();
    // The caller may return as soon as it sees 0; nothing of `loop` is
    // touched after this line, and the condition variable is the pool's.
    if (--loop->helpers == 0) done_cv_.notify_all();
  }
}

void Pool::parallel_for(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)>& body,
                        std::size_t grain) {
  if (begin >= end) return;
  exec_metrics().parallel_for.inc();
  const std::size_t n = end - begin;
  if (workers_.empty() || t_on_worker || n == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  const std::size_t chunk =
      std::max({grain, n / (threads_ * 4), std::size_t{1}});
  const std::size_t helpers = std::min(workers_.size(), (n - 1) / chunk);
  Loop loop{body, end, chunk, {begin}};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    loop.helpers = helpers;
    jobs_.insert(jobs_.end(), helpers, &loop);
  }
  for (std::size_t i = 0; i < helpers; ++i) work_cv_.notify_one();
  loop.run();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Helpers no worker has taken yet would find no chunk left: withdraw
    // them instead of waiting for a worker to free up.
    loop.helpers -= std::erase(jobs_, &loop);
    done_cv_.wait(lock, [&] { return loop.helpers == 0; });
  }
  if (loop.error) std::rethrow_exception(loop.error);
}

std::size_t Pool::parallel_find(
    std::size_t n, const std::function<bool(std::size_t)>& pred) {
  // Lowest-hit semantics: a hit at index i prunes only indices above i, so
  // the returned index is identical to the sequential scan's.
  std::atomic<std::size_t> best{SIZE_MAX};
  parallel_for(0, n, [&](std::size_t i) {
    if (i > best.load(std::memory_order_relaxed) || !pred(i)) return;
    std::size_t cur = best.load(std::memory_order_relaxed);
    while (i < cur &&
           !best.compare_exchange_weak(cur, i, std::memory_order_relaxed)) {
    }
  });
  return best.load();
}

namespace {
std::mutex g_global_mutex;
std::unique_ptr<Pool> g_global;

std::size_t env_threads() {
  const char* env = std::getenv("P3S_THREADS");
  if (env == nullptr || *env == '\0') return 0;  // 0 = hardware_concurrency
  const long v = std::strtol(env, nullptr, 10);
  if (v < 1) return 1;
  if (v > 256) return 256;
  return static_cast<std::size_t>(v);
}
}  // namespace

Pool& Pool::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global) {
    g_global = std::make_unique<Pool>(env_threads());
    exec_metrics().threads.set(
        static_cast<std::int64_t>(g_global->thread_count()));
  }
  return *g_global;
}

void Pool::set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_global.reset();  // join before replacing
  g_global = std::make_unique<Pool>(threads);
  exec_metrics().threads.set(
      static_cast<std::int64_t>(g_global->thread_count()));
}

}  // namespace p3s::exec
