#include "serve/event_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "util/logging.hpp"
#include "util/thread_name.hpp"

namespace taamr::serve {

namespace {

constexpr int kMaxEvents = 64;
constexpr int kListenBacklog = 128;
constexpr const char* kOverloadResponse = "{\"ok\":false,\"error\":\"overloaded\"}";
constexpr const char* kOverlongResponse =
    "{\"ok\":false,\"error\":\"request line too long\"}";

}  // namespace

EventLoop::EventLoop(EventLoopConfig config, std::size_t num_shards, Route route,
                     Handler handler, std::size_t max_line_bytes)
    : config_(std::move(config)),
      max_line_bytes_(max_line_bytes),
      route_(std::move(route)),
      handler_(std::move(handler)) {
  if (num_shards == 0) throw std::invalid_argument("EventLoop: zero shards");
  if (!route_ || !handler_) throw std::invalid_argument("EventLoop: null route/handler");
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

EventLoop::~EventLoop() {
  if (started_.load()) {
    request_shutdown();
    if (loop_thread_.joinable()) loop_thread_.join();
  }
}

void EventLoop::start() {
  if (started_.exchange(true)) {
    throw std::runtime_error("EventLoop: start() called twice");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("EventLoop: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("EventLoop: bind failed: ") +
                             std::strerror(err));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("EventLoop: listen failed: ") +
                             std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    throw std::runtime_error("EventLoop: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (std::int64_t w = 0; w < config_.workers_per_shard; ++w) {
      workers_.emplace_back(&EventLoop::worker_main, this, s,
                            static_cast<std::size_t>(w));
    }
  }
  loop_thread_ = std::thread(&EventLoop::loop_main, this);
  log_info() << "event loop listening on 127.0.0.1:" << port_ << " ("
             << shards_.size() << " shards x " << config_.workers_per_shard
             << " workers, backlog " << kListenBacklog << ", max inflight "
             << config_.max_inflight << "/shard)";
}

void EventLoop::request_shutdown() {
  draining_.store(true, std::memory_order_release);
  wake();
}

int EventLoop::join() {
  if (loop_thread_.joinable()) loop_thread_.join();
  return drain_result_.load();
}

EventLoop::Stats EventLoop::stats() const {
  Stats st;
  st.accepted = accepted_.load(std::memory_order_relaxed);
  st.accept_shed = accept_shed_.load(std::memory_order_relaxed);
  st.requests = requests_.load(std::memory_order_relaxed);
  st.shed = shed_.load(std::memory_order_relaxed);
  st.responses = responses_.load(std::memory_order_relaxed);
  return st;
}

void EventLoop::wake() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::worker_main(std::size_t shard_idx, std::size_t worker) {
  set_current_thread_name("serve-sh" + std::to_string(shard_idx) + "w" +
                          std::to_string(worker));
  Shard& shard = *shards_[shard_idx];
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      shard.cv.wait(lock, [&shard] { return shard.stop || !shard.queue.empty(); });
      if (shard.queue.empty()) return;  // stop && drained
      job = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    std::string response;
    try {
      response = handler_(shard_idx, job.line);
    } catch (const std::exception& e) {
      // Handlers wrap protocol errors themselves; this is the belt for
      // anything that escapes, so a connection never starves of a response.
      log_error() << "serve handler threw: " << e.what();
      response = "{\"ok\":false,\"error\":\"internal error\"}";
    } catch (...) {
      response = "{\"ok\":false,\"error\":\"internal error\"}";
    }
    deliver(job.conn, job.seq, std::move(response));
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void EventLoop::deliver(const std::shared_ptr<Connection>& conn, std::uint64_t seq,
                        std::string response) {
  response.push_back('\n');
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->ready.emplace(seq, std::move(response));
  }
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(conn);
  }
  responses_.fetch_add(1, std::memory_order_relaxed);
  wake();
}

void EventLoop::admit(const std::shared_ptr<Connection>& conn, std::string line) {
  const std::uint64_t seq = conn->next_seq++;
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::size_t shard_idx = 0;
  try {
    shard_idx = route_(line) % shards_.size();
  } catch (...) {
    shard_idx = 0;  // routing is a hint; never fail a request over it
  }
  Shard& shard = *shards_[shard_idx];
  bool overloaded = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (static_cast<std::int64_t>(shard.queue.size()) >= config_.max_inflight) {
      overloaded = true;
    } else {
      inflight_.fetch_add(1, std::memory_order_acq_rel);
      shard.queue.push_back(Job{conn, seq, std::move(line)});
      shard.cv.notify_one();
    }
  }
  if (overloaded) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    // Shed on the loop thread, through the same sequencing as real
    // responses — the client still gets one line per request, in order.
    deliver(conn, seq, kOverloadResponse);
  }
}

void EventLoop::handle_readable(const std::shared_ptr<Connection>& conn) {
  char buf[65536];
  while (!conn->overlong) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->rbuf.append(buf, static_cast<std::size_t>(n));
      frame_lines(conn);  // per read: rbuf holds at most one cap plus one read
      continue;           // edge-triggered: drain until EAGAIN
    }
    if (n == 0) {
      conn->peer_closed = true;  // half-close: flush pending, then close
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn->peer_closed = true;
    break;
  }
}

void EventLoop::frame_lines(const std::shared_ptr<Connection>& conn) {
  // Reassemble newline-framed requests across arbitrary packet splits. The
  // search resumes after the bytes earlier reads already searched.
  std::string& rbuf = conn->rbuf;
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = rbuf.find('\n', std::max(start, conn->scanned));
    if (nl == std::string::npos) break;
    if (nl - start > max_line_bytes_) return reject_overlong(conn);
    std::string line = rbuf.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    admit(conn, std::move(line));
  }
  rbuf.erase(0, start);
  conn->scanned = rbuf.size();
  if (rbuf.size() > max_line_bytes_) reject_overlong(conn);
}

void EventLoop::reject_overlong(const std::shared_ptr<Connection>& conn) {
  // Answer in sequence after every admitted request, read nothing more, and
  // close once the responses are flushed (maybe_close).
  requests_.fetch_add(1, std::memory_order_relaxed);
  deliver(conn, conn->next_seq++, kOverlongResponse);
  conn->overlong = true;
  conn->peer_closed = true;
  std::string().swap(conn->rbuf);
}

void EventLoop::accept_new() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds: shed instead of exiting (or spinning on a backlog we
        // can never drain). Release the reserve fd so the pending
        // connection can be accepted, then hang up on it immediately.
        accept_shed_.fetch_add(1, std::memory_order_relaxed);
        if (reserve_fd_ >= 0) {
          ::close(reserve_fd_);
          reserve_fd_ = -1;
          const int victim = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
          if (victim >= 0) ::close(victim);
          reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          if (reserve_fd_ >= 0) continue;  // shed the rest of the burst too
        }
        break;  // reserve unavailable: wait for capacity instead of spinning
      }
      log_warn() << "accept failed: " << std::strerror(errno);
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conns_.emplace(fd, conn);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void EventLoop::update_epollout(Connection& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | (conn.want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EventLoop::flush_writes(const std::shared_ptr<Connection>& conn) {
  if (conn->closed || conn->fd < 0) return;
  while (conn->woff < conn->wbuf.size()) {
    const ssize_t n = ::send(conn->fd, conn->wbuf.data() + conn->woff,
                             conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        update_epollout(*conn);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    // Peer gone (EPIPE/ECONNRESET): drop what we couldn't say.
    conn->peer_closed = true;
    conn->wbuf.clear();
    conn->woff = 0;
    break;
  }
  if (conn->woff >= conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->woff = 0;
    if (conn->want_write) {
      conn->want_write = false;
      update_epollout(*conn);
    }
  }
}

void EventLoop::deliver_completions() {
  std::vector<std::shared_ptr<Connection>> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (const auto& conn : batch) {
    if (conn->closed) continue;
    {
      // Flush the contiguous prefix of finished responses into the write
      // buffer — out-of-order completions wait for their predecessors.
      std::lock_guard<std::mutex> lock(conn->mutex);
      auto it = conn->ready.find(conn->next_flush);
      while (it != conn->ready.end()) {
        conn->wbuf += it->second;
        conn->ready.erase(it);
        ++conn->next_flush;
        it = conn->ready.find(conn->next_flush);
      }
    }
    flush_writes(conn);
    maybe_close(conn);
  }
}

void EventLoop::maybe_close(const std::shared_ptr<Connection>& conn) {
  if (conn->closed || !conn->peer_closed) return;
  // Close only once every admitted request has been answered and flushed.
  if (conn->next_flush != conn->next_seq || conn->woff < conn->wbuf.size()) return;
  conn->closed = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  conns_.erase(conn->fd);
  pending_close_.push_back(conn->fd);
  conn->fd = -1;
}

bool EventLoop::drained() const {
  if (inflight_.load(std::memory_order_acquire) != 0) return false;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    if (!completions_.empty()) return false;
  }
  for (const auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn->closed) continue;
    if (conn->next_flush != conn->next_seq) return false;
    if (conn->woff < conn->wbuf.size()) return false;
  }
  return true;
}

void EventLoop::loop_main() {
  set_current_thread_name("serve-loop");
  epoll_event events[kMaxEvents];
  bool listen_open = true;
  bool deadline_set = false;
  std::chrono::steady_clock::time_point deadline;

  while (true) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && listen_open) {
      // Stop accepting first; the port is released while in-flight work
      // drains, so a restarting server can bind immediately.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      listen_open = false;
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(config_.drain_timeout_ms);
      deadline_set = true;
      log_info() << "event loop draining (" << conns_.size() << " connections, "
                 << inflight_.load() << " in flight)";
    }

    const int timeout_ms = draining ? 10 : 200;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drainv;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_ && listen_open) {
        accept_new();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      const std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) conn->peer_closed = true;
      if ((events[i].events & EPOLLIN) && !draining) handle_readable(conn);
      if (events[i].events & EPOLLOUT) flush_writes(conn);
      maybe_close(conn);
    }
    deliver_completions();
    for (const int fd : pending_close_) ::close(fd);
    pending_close_.clear();

    if (draining) {
      if (drained()) break;
      if (deadline_set && std::chrono::steady_clock::now() > deadline) {
        log_warn() << "event loop drain timed out with "
                   << inflight_.load() << " requests in flight";
        drain_result_.store(1);
        break;
      }
    }
  }

  // Teardown: workers first (a timed-out drain abandons queued jobs so they
  // exit promptly), then every fd.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (drain_result_.load() != 0) shard->queue.clear();
    shard->stop = true;
    shard->cv.notify_all();
  }
  for (auto& worker : workers_) worker.join();
  for (const int fd : pending_close_) ::close(fd);
  pending_close_.clear();
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::close(fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = wake_fd_ = reserve_fd_ = epoll_fd_ = -1;
  log_info() << "event loop stopped";
}

}  // namespace taamr::serve
