#include "server_process.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "loadgen.hpp"
#include "util/stopwatch.hpp"

extern char** environ;

namespace taamr::bench {

namespace {

int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  const bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
                  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  if (!ok) throw std::runtime_error("cannot find a free loopback port");
  return ntohs(addr.sin_port);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tail(const std::string& text, std::size_t max_chars = 2000) {
  return text.size() <= max_chars ? text : text.substr(text.size() - max_chars);
}

// Exit code of a reaped child, or -1 while it still runs.
int try_reap(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, WNOHANG) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace

void fix_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("TAAMR_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
  ::setenv("TAAMR_THREADS", "4", 1);
  ::setenv("TAAMR_LOG_LEVEL", "warn", 1);
}

double warm_up_cpus() {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  auto burst = [threads] {
    const Stopwatch t0;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([] {
        volatile std::uint64_t x = 1;
        for (int i = 0; i < 20000000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      });
    }
    for (std::thread& w : workers) w.join();
    return t0.seconds();
  };
  const Stopwatch t0;
  double fastest = burst();
  int steady = 0;
  while (t0.seconds() < 6.0 && (t0.seconds() < 2.0 || steady < 10)) {
    const double b = burst();
    fastest = std::min(fastest, b);
    steady = b <= 1.3 * fastest ? steady + 1 : 0;
  }
  return t0.seconds();
}

pid_t spawn_process(const std::vector<std::string>& argv, const std::string& log_path,
                    const std::vector<std::string>& extra_env) {
  std::vector<std::string> env_entries;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    const std::string name = entry.substr(0, entry.find('=') + 1);
    bool overridden = false;
    for (const std::string& x : extra_env) overridden |= x.rfind(name, 0) == 0;
    if (!overridden) env_entries.push_back(entry);
  }
  env_entries.insert(env_entries.end(), extra_env.begin(), extra_env.end());
  std::vector<char*> envp;
  for (std::string& s : env_entries) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = argv;
  std::vector<char*> argvp;
  for (std::string& s : args) argvp.push_back(s.data());
  argvp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  if (!log_path.empty()) {
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
  }
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, argvp[0], &actions, nullptr, argvp.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " + std::strerror(rc));
  }
  return pid;
}

int wait_process(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

ServerProcess::ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                             const std::string& log_path, double timeout_s)
    : log_path_(log_path) {
  // A port picked here can be taken by someone else before the server
  // binds it; the server then exits with a bind error and we try another.
  for (int attempt = 0; attempt < 3; ++attempt) {
    port_ = free_port();
    std::vector<std::string> argv = {binary};
    argv.insert(argv.end(), args.begin(), args.end());
    argv.push_back("--port");
    argv.push_back(std::to_string(port_));
    const std::size_t log_start = read_file(log_path_).size();
    const Stopwatch t0;
    pid_ = spawn_process(argv, log_path_);
    exited_ = false;
    // The server shares the host's cores with the load generator. At nice 5
    // its threads yield to the generator's wakeups, so requests leave on
    // schedule; the generator needs a small fraction of one core, so the
    // server loses almost nothing. Set before the server starts its threads,
    // which inherit it.
    ::setpriority(PRIO_PROCESS, static_cast<id_t>(pid_), 5);
    const std::string ready = "listening on 127.0.0.1:" + std::to_string(port_);
    while (t0.seconds() < timeout_s) {
      const std::string log = read_file(log_path_);
      if (log.find(ready, log_start) != std::string::npos) {
        boot_s_ = t0.seconds();
        return;
      }
      if (const int code = try_reap(pid_); code >= 0) {
        exited_ = true;
        exit_code_ = code;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::string log = read_file(log_path_).substr(log_start);
    if (!exited_) {
      ::kill(pid_, SIGKILL);
      wait_process(pid_);
      exited_ = true;
      throw std::runtime_error("server did not listen within " + std::to_string(timeout_s) +
                               "s; log tail:\n" + tail(log));
    }
    if (log.find("bind") == std::string::npos) {
      throw std::runtime_error("server exited with code " + std::to_string(exit_code_) +
                               " before listening; log tail:\n" + tail(log));
    }
  }
  throw std::runtime_error("server could not bind a free port in 3 attempts");
}

ServerProcess::~ServerProcess() {
  if (!exited_ && pid_ > 0) {
    ::kill(pid_, SIGKILL);
    wait_process(pid_);
  }
}

double ServerProcess::cpu_seconds() const {
  const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("cannot read server /proc stat");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after "(comm) ": state is field 3; utime and stime are 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("server /proc status has no VmHWM");
}

int ServerProcess::shutdown(double timeout_s) {
  if (exited_) return exit_code_;
  try {
    request_once(port_, "{\"op\":\"shutdown\"}", timeout_s);
  } catch (const std::exception&) {
    // Fall through to the wait; a server that cannot answer gets killed.
  }
  const Stopwatch t0;
  while (t0.seconds() < timeout_s) {
    if (const int code = try_reap(pid_); code >= 0) {
      exited_ = true;
      exit_code_ = code;
      return code;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  exit_code_ = wait_process(pid_);
  exited_ = true;
  return exit_code_;
}

}  // namespace taamr::bench
