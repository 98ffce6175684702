// Non-blocking epoll front door for the JSONL serving protocol.
//
// One event-loop thread ("serve-loop") owns every file descriptor: it
// accepts (edge-triggered, accept4 until EAGAIN), reads request bytes into
// per-connection buffers, reassembles newline-framed requests across
// arbitrary packet splits, and writes responses back. Requests are routed
// (Route: line -> shard) onto bounded per-shard queues drained by a fixed
// worker set ("serve-sh<k>w<i>") — connection count and worker count are
// decoupled, which is the whole point: 10k idle connections cost one fd
// each, not one thread each.
//
// Admission control: each shard queue holds at most max_inflight jobs.
// When a queue is full the loop thread sheds the request immediately with
// {"ok":false,"error":"overloaded"} instead of buffering unboundedly or
// blocking the loop — Stats::shed counts the shed requests.
//
// Line cap: a request line longer than max_line_bytes (newline or not) is
// answered with {"ok":false,"error":"request line too long"} in sequence,
// and the connection then closes once every earlier response is flushed,
// so a client that never sends a newline cannot grow server memory.
//
// Ordering: responses on a connection are delivered in request order even
// though shards execute concurrently. Every request gets a per-connection
// sequence number; workers deposit finished responses into the
// connection's reorder map and the loop flushes the contiguous prefix.
// Shed responses enter the same sequence, so a client always receives
// exactly one response line per request line, in order.
//
// Shutdown (drain-then-close): request_shutdown() stops accepting and
// stops reading new request bytes, but every admitted request is executed
// and its response flushed before fds close (bounded by drain_timeout_ms).
// Workers exit only after their queue is empty.
//
// EMFILE: the loop holds a reserve fd; when accept() hits the fd limit it
// momentarily releases the reserve, accepts the pending connection and
// closes it immediately (Stats::accept_shed), so the server sheds
// instead of exiting or spinning on a level-triggered accept storm.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace taamr::serve {

struct EventLoopConfig {
  int port = 0;                        // 0 = kernel-assigned; see port()
  std::int64_t max_inflight = 256;     // per-shard queue bound
  std::int64_t workers_per_shard = 2;  // threads draining each shard's queue
  std::int64_t drain_timeout_ms = 10000;
};

class EventLoop {
 public:
  // Maps a raw request line to the shard whose queue should run it. Only a
  // placement hint — handlers must not rely on it for correctness (the
  // shard router re-derives the shard from the parsed user id).
  using Route = std::function<std::size_t(const std::string& line)>;
  // Executes one request line on a shard worker; returns the response line
  // (without trailing newline). Must not throw — wrap errors in the
  // protocol's error envelope.
  using Handler = std::function<std::string(std::size_t shard, const std::string& line)>;

  // max_line_bytes bounds one request line; servers of the JSONL protocol
  // pass serve::max_request_bytes(feature_dim).
  EventLoop(EventLoopConfig config, std::size_t num_shards, Route route,
            Handler handler,
            std::size_t max_line_bytes = std::numeric_limits<std::size_t>::max());
  ~EventLoop();

  // Binds 127.0.0.1:<port>, listens (backlog 128) and spawns the loop +
  // worker threads. Throws std::runtime_error on bind failure.
  void start();
  // The bound port (useful with config.port = 0).
  int port() const { return port_; }

  // Begins drain-then-close; returns immediately. Safe from any thread,
  // including a Handler (the protocol's {"op":"shutdown"} lands here).
  void request_shutdown();
  // Blocks until the loop thread has drained and torn down. Returns 0 on a
  // clean drain, 1 if the drain timed out with work still queued.
  int join();

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t accept_shed = 0;  // EMFILE shed connections
    std::uint64_t requests = 0;     // admitted + shed + over the line cap
    std::uint64_t shed = 0;         // overload responses sent
    std::uint64_t responses = 0;    // total response lines flushed or queued
  };
  Stats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::string rbuf;              // loop thread only
    std::size_t scanned = 0;       // rbuf prefix known to hold no '\n'
    bool overlong = false;         // a line passed the cap: read no more
    std::uint64_t next_seq = 0;    // loop thread only
    std::uint64_t next_flush = 0;  // loop thread only
    std::string wbuf;              // loop thread only
    std::size_t woff = 0;
    bool want_write = false;       // EPOLLOUT armed
    bool peer_closed = false;      // no more reads; flush then close
    bool closed = false;
    std::mutex mutex;              // guards ready
    std::map<std::uint64_t, std::string> ready;  // seq -> response + '\n'
  };

  struct Job {
    std::shared_ptr<Connection> conn;
    std::uint64_t seq = 0;
    std::string line;
  };

  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Job> queue;
    bool stop = false;
  };

  void loop_main();
  void worker_main(std::size_t shard, std::size_t worker);
  void accept_new();
  void handle_readable(const std::shared_ptr<Connection>& conn);
  void frame_lines(const std::shared_ptr<Connection>& conn);
  void reject_overlong(const std::shared_ptr<Connection>& conn);
  void admit(const std::shared_ptr<Connection>& conn, std::string line);
  void deliver(const std::shared_ptr<Connection>& conn, std::uint64_t seq,
               std::string response);
  void deliver_completions();
  void flush_writes(const std::shared_ptr<Connection>& conn);
  void maybe_close(const std::shared_ptr<Connection>& conn);
  void update_epollout(Connection& conn);
  bool drained() const;
  void wake();

  EventLoopConfig config_;
  std::size_t max_line_bytes_;
  Route route_;
  Handler handler_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;     // eventfd: worker completions + shutdown kicks
  int reserve_fd_ = -1;  // EMFILE shed reserve
  int port_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;  // loop thread
  // fds whose close is deferred to the end of the current event batch, so
  // a freshly-accepted connection can't reuse a number that stale events
  // in the same batch still reference.
  std::vector<int> pending_close_;  // loop thread

  mutable std::mutex completions_mutex_;
  std::vector<std::shared_ptr<Connection>> completions_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::atomic<std::int64_t> inflight_{0};  // admitted, not yet delivered
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> accept_shed_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<int> drain_result_{0};

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace taamr::serve
