// The serving workloads' system under test: tools/taamr_serve as a child
// process, driven only through its command-line flags and wire protocol.
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

namespace taamr::bench {

// Fixes the benchmark's process environment before anything reads it, for
// this process and every child it starts: every TAAMR_* knob of the caller
// is removed (telemetry, tracing and profiling stay off; serving knobs keep
// their defaults), then TAAMR_THREADS=4 and TAAMR_LOG_LEVEL=warn are set.
void fix_environment();

// Keeps every core busy until short compute bursts run at a steady speed
// (at least 2 s, at most 6 s) and returns the seconds spent. On a virtual
// host that has sat idle for a few seconds the cores run several times
// slower for about a second of load; timing work in that window would
// measure the host waking up, not the code. Call before any timed phase
// that follows idle or single-threaded work.
double warm_up_cpus();

// Starts `argv` with stdout/stderr appended to `log_path` (empty: shared with
// this process) and `extra_env` ("NAME=value" entries) overriding the
// environment; returns its pid.
pid_t spawn_process(const std::vector<std::string>& argv, const std::string& log_path,
                    const std::vector<std::string>& extra_env = {});
// Waits for `pid`; returns its exit code (128 + signal when killed).
int wait_process(pid_t pid);

class ServerProcess {
 public:
  // Starts `binary args... --port <free port>`, with stdout and stderr
  // appended to `log_path`, and waits until it listens. Throws with the log's
  // tail when the server exits or stays silent for timeout_s.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& log_path, double timeout_s = 120.0);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  // Spawn to "listening", seconds.
  double boot_seconds() const { return boot_s_; }

  // utime + stime of the server so far, from /proc/<pid>/stat.
  double cpu_seconds() const;
  // Peak resident set (VmHWM) from /proc/<pid>/status, MiB.
  double peak_rss_mb() const;

  // Sends {"op":"shutdown"} and waits for the exit (kills after timeout_s).
  // Returns the exit code; idempotent.
  int shutdown(double timeout_s = 30.0);

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  double boot_s_ = 0.0;
  std::string log_path_;
  bool exited_ = false;
  int exit_code_ = 0;
};

}  // namespace taamr::bench
