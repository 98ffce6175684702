#include "loadgen.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include "util/rng.hpp"

namespace taamr::bench {

std::string Planned::line() const {
  if (op == Op::kUpdate) {
    return "{\"op\":\"update_image\",\"item\":" + std::to_string(item) +
           ",\"seed\":" + std::to_string(image_seed) + "}";
  }
  return std::string("{\"op\":\"recommend\",\"model\":\"") + (bpr ? "bpr_mf" : "vbpr") +
         "\",\"user\":" + std::to_string(user) + ",\"n\":" + std::to_string(kTopN) + "}";
}

std::vector<Planned> make_schedule(const Traffic& traffic, std::uint64_t seed) {
  if (traffic.rate <= 0.0 || traffic.seconds <= 0.0 || traffic.num_users <= 0) {
    throw std::invalid_argument("make_schedule: rate, seconds and users must be positive");
  }
  Rng rng(seed);
  const ZipfSampler users(static_cast<std::size_t>(traffic.num_users), 1.0);
  std::vector<Planned> plan;
  plan.reserve(static_cast<std::size_t>(traffic.rate * traffic.seconds * 1.1) + 16);
  int next_conn = 0;
  for (double t = -std::log1p(-rng.uniform()) / traffic.rate; t < traffic.seconds;
       t += -std::log1p(-rng.uniform()) / traffic.rate) {
    Planned p;
    p.due_s = t;
    p.user = traffic.zipf_users
                 ? static_cast<std::int64_t>(users.sample(rng))
                 : static_cast<std::int64_t>(rng.uniform_u64(
                       static_cast<std::uint64_t>(traffic.num_users)));
    p.bpr = rng.uniform() < kBprShare;
    p.connection = next_conn;
    next_conn = (next_conn + 1) % kConnections;
    plan.push_back(p);
  }
  if (traffic.update_rate > 0.0) {
    Rng urng(seed ^ 0x5eed0bdaULL);
    const ZipfSampler items(static_cast<std::size_t>(traffic.num_items), 1.0);
    for (double t = -std::log1p(-urng.uniform()) / traffic.update_rate; t < traffic.seconds;
         t += -std::log1p(-urng.uniform()) / traffic.update_rate) {
      Planned p;
      p.due_s = t;
      p.op = Op::kUpdate;
      p.item = static_cast<std::int64_t>(items.sample(urng));
      p.image_seed = urng.next_u64() >> 1;  // the protocol takes a non-negative integer
      p.connection = 0;
      plan.push_back(p);
    }
    std::stable_sort(plan.begin(), plan.end(),
                     [](const Planned& a, const Planned& b) { return a.due_s < b.due_s; });
  }
  return plan;
}

namespace {

using Clock = std::chrono::steady_clock;

double thread_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// Owns a file descriptor.
class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    std::swap(fd_, other.fd_);
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

Fd connect_loopback(int port, bool nonblocking) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (fd.get() < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed: " + std::strerror(errno));
  }
  if (nonblocking) {
    ::fcntl(fd.get(), F_SETFL, ::fcntl(fd.get(), F_GETFL) | O_NONBLOCK);
  }
  return fd;
}

struct Connection {
  Fd fd;
  std::string wbuf;
  std::size_t woff = 0;
  std::string rbuf;
  std::deque<std::size_t> awaiting;  // plan indices, in send order
  bool want_out = false;
};

}  // namespace

LegRecord run_leg(int port, std::vector<Planned> plan, double grace_s,
                  double drain_limit_s) {
  LegRecord rec;
  rec.outcomes.resize(plan.size());
  int num_conns = 1;
  for (const Planned& p : plan) num_conns = std::max(num_conns, p.connection + 1);

  // Tight timer wakeups: the default 50us slack would show up as lag.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  Fd epoll(::epoll_create1(EPOLL_CLOEXEC));
  Fd timer(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  if (epoll.get() < 0 || timer.get() < 0) throw std::runtime_error("epoll/timerfd setup failed");
  std::vector<Connection> conns(static_cast<std::size_t>(num_conns));
  for (int c = 0; c < num_conns; ++c) {
    conns[static_cast<std::size_t>(c)].fd = connect_loopback(port, /*nonblocking=*/true);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<std::uint64_t>(c);
    ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, conns[static_cast<std::size_t>(c)].fd.get(), &ev);
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<std::uint64_t>(num_conns);
    ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, timer.get(), &ev);
  }

  const double cpu0 = thread_cpu_seconds();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto now_s = [&t0] { return std::chrono::duration<double>(Clock::now() - t0).count(); };
  const double last_due = plan.empty() ? 0.0 : plan.back().due_s;
  rec.grace_end_s = last_due + grace_s;
  const double give_up_s = rec.grace_end_s + drain_limit_s;

  std::size_t next = 0;
  std::size_t outstanding = 0;
  bool update_in_flight = false;
  std::deque<std::size_t> held_updates;

  auto set_out_interest = [&](int c, bool want) {
    Connection& conn = conns[static_cast<std::size_t>(c)];
    if (conn.want_out == want) return;
    conn.want_out = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = static_cast<std::uint64_t>(c);
    ::epoll_ctl(epoll.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
  };
  auto flush = [&](int c) {
    Connection& conn = conns[static_cast<std::size_t>(c)];
    while (conn.woff < conn.wbuf.size()) {
      const ssize_t n = ::send(conn.fd.get(), conn.wbuf.data() + conn.woff,
                               conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
      if (n > 0) {
        conn.woff += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
      }
    }
    if (conn.woff == conn.wbuf.size()) {
      conn.wbuf.clear();
      conn.woff = 0;
    }
    set_out_interest(c, !conn.wbuf.empty());
  };
  std::vector<char> dirty(static_cast<std::size_t>(num_conns), 0);
  auto enqueue = [&](std::size_t i, double t) {
    Connection& conn = conns[static_cast<std::size_t>(plan[i].connection)];
    conn.wbuf += plan[i].line();
    conn.wbuf += '\n';
    conn.awaiting.push_back(i);
    rec.outcomes[i].sent_s = t;
    ++outstanding;
    if (plan[i].op == Op::kUpdate) update_in_flight = true;
    dirty[static_cast<std::size_t>(plan[i].connection)] = 1;
  };

  epoll_event events[16];
  char chunk[65536];
  for (;;) {
    const double t = now_s();
    while (next < plan.size() && plan[next].due_s <= t) {
      if (plan[next].op == Op::kUpdate && update_in_flight) {
        held_updates.push_back(next);
      } else {
        enqueue(next, t);
      }
      ++next;
    }
    for (int c = 0; c < num_conns; ++c) {
      if (dirty[static_cast<std::size_t>(c)]) {
        dirty[static_cast<std::size_t>(c)] = 0;
        flush(c);
      }
    }
    if (next == plan.size() && outstanding == 0 && held_updates.empty()) break;
    if (t > give_up_s) {
      throw std::runtime_error(std::to_string(outstanding) +
                               " responses still missing " +
                               std::to_string(drain_limit_s) + "s after the leg's grace period");
    }
    const double wake_s = next < plan.size() ? plan[next].due_s
                          : t < rec.grace_end_s ? rec.grace_end_s
                                                : give_up_s;
    const auto wake_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             (t0 + std::chrono::duration<double>(wake_s)).time_since_epoch())
                             .count();
    itimerspec spec{};
    spec.it_value.tv_sec = static_cast<time_t>(wake_ns / 1000000000);
    spec.it_value.tv_nsec = static_cast<long>(wake_ns % 1000000000);
    ::timerfd_settime(timer.get(), TFD_TIMER_ABSTIME, &spec, nullptr);

    const int ready = ::epoll_wait(epoll.get(), events, 16, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("epoll_wait failed: ") + std::strerror(errno));
    }
    for (int e = 0; e < ready; ++e) {
      const auto id = static_cast<int>(events[e].data.u64);
      if (id == num_conns) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t r = ::read(timer.get(), &expirations, sizeof(expirations));
        continue;
      }
      Connection& conn = conns[static_cast<std::size_t>(id)];
      if (events[e].events & EPOLLOUT) flush(id);
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      for (;;) {
        const ssize_t n = ::recv(conn.fd.get(), chunk, sizeof(chunk), 0);
        if (n > 0) {
          conn.rbuf.append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("server closed a load connection mid-leg");
      }
      const double received = now_s();
      std::size_t start = 0;
      for (std::size_t nl = conn.rbuf.find('\n'); nl != std::string::npos;
           nl = conn.rbuf.find('\n', start)) {
        if (conn.awaiting.empty()) {
          throw std::runtime_error("response without a request on a load connection");
        }
        const std::size_t i = conn.awaiting.front();
        conn.awaiting.pop_front();
        rec.outcomes[i].received_s = received;
        rec.outcomes[i].response.assign(conn.rbuf, start, nl - start);
        --outstanding;
        start = nl + 1;
        if (plan[i].op == Op::kUpdate) {
          update_in_flight = false;
          if (!held_updates.empty()) {
            enqueue(held_updates.front(), received);
            held_updates.pop_front();
          }
        }
      }
      conn.rbuf.erase(0, start);
    }
  }
  rec.wall_s = now_s();
  rec.generator_cpu_s = thread_cpu_seconds() - cpu0;
  rec.plan = std::move(plan);
  return rec;
}

std::string request_once(int port, const std::string& line, double timeout_s) {
  Fd fd = connect_loopback(port, /*nonblocking=*/false);
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string out = line + "\n";
  for (std::size_t off = 0; off < out.size();) {
    const ssize_t n = ::send(fd.get(), out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("request_once: send failed");
    off += static_cast<std::size_t>(n);
  }
  std::string buf;
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) return buf.substr(0, nl);
    const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("request_once: no response to " + line);
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

CapacitySearch bisect_capacity(double lo, double hi, int halvings,
                               const std::function<bool(double rate)>& probe) {
  CapacitySearch out;
  out.rate = lo;
  out.all_pass = true;
  for (int k = 0; k < halvings; ++k) {
    const double rate = 0.5 * (lo + hi);
    bool pass = probe(rate);
    out.probes.push_back({rate, pass, false});
    if (!pass) {
      pass = probe(rate);
      out.probes.push_back({rate, pass, true});
    }
    if (pass) {
      lo = rate;
      out.rate = rate;
      out.any_pass = true;
    } else {
      hi = rate;
      out.all_pass = false;
    }
  }
  return out;
}

}  // namespace taamr::bench
