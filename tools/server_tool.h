/// \file server_tool.h
/// What the server tools (bgls_serve, bgls_fleet) share around their
/// server object: the descriptor limit, the --log-file/--log-level
/// setup, and the signal watcher behind graceful shutdown and log
/// rotation.

#pragma once

#include <pthread.h>
#include <sys/resource.h>

#include <atomic>
#include <csignal>
#include <ctime>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "obs/log.h"
#include "util/error.h"

namespace bgls::tools {

/// Raises the descriptor soft limit to the hard limit: the usual 1024
/// default holds neither server's connection cap (LineServer lowers the
/// cap to what the limit holds).
inline void raise_descriptor_limit() {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
  }
}

/// Applies --log-level and --log-file (empty = stderr) to the global
/// structured logger. Throws ValueError on a bad level or a file that
/// cannot be opened.
inline void setup_logging(const std::string& level_name,
                          const std::string& log_file) {
  obs::LogLevel level = obs::LogLevel::kInfo;
  BGLS_REQUIRE(obs::parse_log_level(level_name, &level), "unknown --log-level '",
               level_name, "' (expected debug/info/warn/error)");
  obs::Logger::global().set_level(level);
  if (log_file.empty()) {
    obs::Logger::global().set_stderr_sink(true);
  } else {
    BGLS_REQUIRE(obs::Logger::global().open_file(log_file),
                 "cannot open --log-file '", log_file, "'");
  }
}

/// Watches for SIGTERM/SIGINT/SIGHUP (blocked on every thread; polled
/// with sigtimedwait so the watcher can also exit on normal shutdown).
/// TERM/INT call `request_shutdown`, the server's graceful-exit path;
/// HUP reopens the structured-log file so external rotation works.
class SignalWatcher {
 public:
  /// Blocks the watched signals on the calling thread. Must run before
  /// any other thread exists — masks are inherited at thread creation,
  /// and ServiceDaemon's *constructor* already spawns scheduler runner
  /// threads; a thread with the default mask is a valid delivery target
  /// whose default disposition kills the whole process.
  static void block_signals() {
    sigset_t set = watched_set();
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
  }

  /// `tool` prefixes the message printed when a signal arrives.
  SignalWatcher(std::string tool, std::function<void()> request_shutdown)
      : set_(watched_set()) {
    pthread_sigmask(SIG_BLOCK, &set_, nullptr);
    thread_ = std::thread([this, tool = std::move(tool),
                           request_shutdown = std::move(request_shutdown)] {
      const timespec poll_interval{0, 200 * 1000 * 1000};  // 200ms
      while (!done_.load(std::memory_order_acquire)) {
        const int sig = sigtimedwait(&set_, nullptr, &poll_interval);
        if (sig == SIGHUP) {
          obs::Logger::global().reopen();
          continue;
        }
        if (sig == SIGTERM || sig == SIGINT) {
          std::cout << tool << ": caught "
                    << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                    << ", shutting down gracefully" << std::endl;
          request_shutdown();
          return;
        }
      }
    });
  }

  ~SignalWatcher() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  SignalWatcher(const SignalWatcher&) = delete;
  SignalWatcher& operator=(const SignalWatcher&) = delete;

 private:
  static sigset_t watched_set() {
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGTERM);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGHUP);
    return set;
  }

  sigset_t set_{};
  std::atomic<bool> done_{false};
  std::thread thread_;
};

}  // namespace bgls::tools
