#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/thread_name.hpp"

namespace taamr {

namespace {

// Which pool (if any) the current thread is a worker of. parallel_for uses
// this to run nested ranges inline instead of blocking the worker on its
// own pool's queue.
thread_local const ThreadPool* tls_worker_pool = nullptr;

// Shared state of one parallel_for launch. Heap-allocated and owned via
// shared_ptr: helper tasks may still sit in the queue after the caller has
// drained every chunk and returned, and must find live atomics to bounce
// off (they then claim past num_chunks and exit without touching body).
struct ParallelForState {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::size_t num_chunks = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> chunks_done{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
};

// Claims chunks until none are left. Runs on the caller and on every
// helper task; whichever thread completes the last chunk notifies.
void run_chunks(ParallelForState& st) {
  for (;;) {
    const std::size_t c = st.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= st.num_chunks) return;
    const std::size_t lo = st.begin + c * st.chunk;
    const std::size_t hi = std::min(st.end, lo + st.chunk);
    for (std::size_t i = lo; i < hi; ++i) (*st.body)(i);
    if (st.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        st.num_chunks) {
      std::lock_guard<std::mutex> lock(st.done_mutex);
      st.done_cv.notify_all();
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Touch the trace singleton before spawning workers: it is constructed
  // before this pool finishes constructing, hence destroyed after it, so
  // worker threads may safely record into it right up to join().
  obs::Trace& trace = obs::Trace::global();
  (void)trace;
  // Every pool gets an id: worker thread names — "taamr-p<pool>-w<i>" —
  // carry it into logs, traces and profiles.
  static std::atomic<int> next_pool_id{0};
  const int pool_id = next_pool_id.fetch_add(1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, pool_id, i] {
      set_current_thread_name("taamr-p" + std::to_string(pool_id) + "-w" +
                              std::to_string(i));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::in_worker_thread() const { return tls_worker_pool == this; }

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  if (in_worker_thread()) {
    // Nested launch from one of our own workers: run inline. Blocking here
    // would park the worker on done_cv while its chunks starve in the very
    // queue it is supposed to drain.
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t max_chunks = std::min(n, (workers_.size() + 1) * 4);
  const std::size_t chunk = (n + max_chunks - 1) / max_chunks;
  TAAMR_TRACE_SPAN("util/parallel_for");

  auto st = std::make_shared<ParallelForState>();
  st->begin = begin;
  st->end = end;
  st->chunk = chunk;
  st->num_chunks = (n + chunk - 1) / chunk;
  st->body = &body;

  // One claim-loop helper per worker, capped at the chunk count. Helpers
  // are an acceleration, not a requirement: the caller claims below too.
  const std::size_t helpers = std::min(workers_.size(), st->num_chunks);
  for (std::size_t t = 0; t < helpers; ++t) {
    enqueue([st] { run_chunks(*st); });
  }

  run_chunks(*st);
  std::unique_lock<std::mutex> lock(st->done_mutex);
  st->done_cv.wait(lock, [&st] {
    return st->chunks_done.load(std::memory_order_acquire) == st->num_chunks;
  });
}

std::size_t env_thread_count() {
  const std::int64_t hardware = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<std::size_t>(env::get_int("TAAMR_THREADS", hardware));
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(env_thread_count());
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t serial_threshold) {
  if (end - begin < serial_threshold || ThreadPool::global().size() == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  ThreadPool::global().parallel_for(begin, end, body);
}

}  // namespace taamr
