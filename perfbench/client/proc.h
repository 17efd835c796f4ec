// The referee as a child process: spawn `ustream serve`, wait for its port
// files, and reap it with wait4() for its exit status and rusage (peak
// RSS).
//
// Referees are forked by a small helper process that the client forks
// first thing in main(), while it is still small. A child forked straight
// from the client would start as a copy of the client's memory (the
// inputs, hundreds of MB), and the kernel carries that copy's size into the
// child's ru_maxrss across exec; forked from the helper, ru_maxrss is the
// referee's own peak. The client sends the helper one request at a time
// over a pipe and reads one reply.
//
// The helper dies with the client and every referee dies with the helper
// (PR_SET_PDEATHSIG). shutdown() kills and reaps whatever still runs and
// then reaps the helper, so no run leaves a process behind.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Exit {
  int status = 0;
  double peak_rss_mb = 0.0;
  bool exited_normally() const { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }
};

namespace detail {

inline bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

inline bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

inline bool write_string(int fd, const std::string& s) {
  const auto n = static_cast<std::uint32_t>(s.size());
  return write_all(fd, &n, sizeof(n)) && write_all(fd, s.data(), s.size());
}

inline bool read_string(int fd, std::string& s) {
  std::uint32_t n = 0;
  if (!read_all(fd, &n, sizeof(n))) return false;
  s.resize(n);
  return read_all(fd, s.data(), n);
}

// Requests: kSpawn, then the argument count, the arguments, the stdout and
// the stderr path; the reply is the pid (-1 on failure). kReap, then a
// pid; the reply is the wait4 status and ru_maxrss in KiB.
constexpr std::uint32_t kSpawn = 1;
constexpr std::uint32_t kReap = 2;

inline pid_t fork_exec(const std::vector<std::string>& argv, const std::string& stdout_path,
                       const std::string& stderr_path) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(127);
  const int out = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int err = ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0 || err < 0) ::_exit(127);
  ::dup2(out, 1);
  ::dup2(err, 2);
  ::execv(args[0], args.data());
  ::_exit(127);
}

// The helper's loop. On end of input it kills and reaps every child it
// still has, then exits.
[[noreturn]] inline void serve_requests(int in, int out) {
  std::set<pid_t> children;
  std::uint32_t op = 0;
  while (read_all(in, &op, sizeof(op))) {
    if (op == kSpawn) {
      std::uint32_t argc = 0;
      if (!read_all(in, &argc, sizeof(argc))) break;
      std::vector<std::string> argv(argc);
      std::string stdout_path, stderr_path;
      bool ok = true;
      for (auto& a : argv) ok = ok && read_string(in, a);
      ok = ok && read_string(in, stdout_path) && read_string(in, stderr_path);
      if (!ok) break;
      const pid_t pid = fork_exec(argv, stdout_path, stderr_path);
      if (pid > 0) children.insert(pid);
      if (!write_all(out, &pid, sizeof(pid))) break;
    } else if (op == kReap) {
      pid_t pid = 0;
      if (!read_all(in, &pid, sizeof(pid))) break;
      int status = 0;
      struct rusage ru {};
      while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
      }
      children.erase(pid);
      const std::int64_t maxrss_kib = ru.ru_maxrss;
      if (!write_all(out, &status, sizeof(status)) ||
          !write_all(out, &maxrss_kib, sizeof(maxrss_kib))) {
        break;
      }
    } else {
      break;
    }
  }
  for (const pid_t pid : children) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  ::_exit(0);
}

struct Helper {
  pid_t pid = -1;
  int to = -1;    // requests
  int from = -1;  // replies
  std::set<pid_t> live;  // referees spawned and not yet reaped
};

inline Helper& helper() {
  static Helper h;
  return h;
}

}  // namespace detail

// Forks the helper. Call once, first thing in main().
inline void start_spawner() {
  int requests[2], replies[2];
  if (::pipe2(requests, O_CLOEXEC) != 0 || ::pipe2(replies, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::close(requests[1]);
    ::close(replies[0]);
    detail::serve_requests(requests[0], replies[1]);
  }
  ::close(requests[0]);
  ::close(replies[1]);
  detail::Helper& h = detail::helper();
  h.pid = pid;
  h.to = requests[1];
  h.from = replies[0];
}

inline pid_t spawn(const std::vector<std::string>& argv, const std::string& stdout_path,
                   const std::string& stderr_path) {
  detail::Helper& h = detail::helper();
  const auto argc = static_cast<std::uint32_t>(argv.size());
  bool ok = detail::write_all(h.to, &detail::kSpawn, sizeof(detail::kSpawn)) &&
            detail::write_all(h.to, &argc, sizeof(argc));
  for (const auto& a : argv) ok = ok && detail::write_string(h.to, a);
  ok = ok && detail::write_string(h.to, stdout_path) && detail::write_string(h.to, stderr_path);
  pid_t pid = -1;
  if (!ok || !detail::read_all(h.from, &pid, sizeof(pid)) || pid <= 0) {
    throw std::runtime_error("spawn failed");
  }
  h.live.insert(pid);
  return pid;
}

// Blocks until the child exits. A referee that never exits is bounded by
// its own --timeout-ms and, failing that, by the caller's run timeout
// (the child dies with the helper, which dies with this process).
inline Exit reap(pid_t pid) {
  detail::Helper& h = detail::helper();
  Exit e;
  std::int64_t maxrss_kib = 0;
  if (!detail::write_all(h.to, &detail::kReap, sizeof(detail::kReap)) ||
      !detail::write_all(h.to, &pid, sizeof(pid)) ||
      !detail::read_all(h.from, &e.status, sizeof(e.status)) ||
      !detail::read_all(h.from, &maxrss_kib, sizeof(maxrss_kib))) {
    throw std::runtime_error("reap failed");
  }
  h.live.erase(pid);
  e.peak_rss_mb = static_cast<double>(maxrss_kib) / 1024.0;
  return e;
}

// Kills every referee still running, lets the helper reap them, and reaps
// the helper.
inline void shutdown() {
  detail::Helper& h = detail::helper();
  if (h.pid <= 0) return;
  for (const pid_t pid : h.live) ::kill(pid, SIGKILL);
  h.live.clear();
  ::close(h.to);  // end of input: the helper reaps its children and exits
  ::close(h.from);
  int status = 0;
  while (::waitpid(h.pid, &status, 0) < 0 && errno == EINTR) {
  }
  h.pid = -1;
}

// True once the child has exited (it stays a zombie until reaped).
inline bool has_exited(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return true;
  const std::size_t paren = line.rfind(')');
  return paren == std::string::npos || paren + 2 >= line.size() || line[paren + 2] == 'Z' ||
         line[paren + 2] == 'X';
}

inline std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Polls for a port file the referee writes after binding; returns the port
// once a full line is there.
inline std::uint16_t wait_port_file(const std::string& path, pid_t pid,
                                    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const std::string text = read_text(path);
    if (!text.empty() && text.back() == '\n') {
      return static_cast<std::uint16_t>(std::stoul(text));
    }
    if (has_exited(pid)) throw std::runtime_error("referee exited before writing " + path);
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("timed out waiting for " + path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace perfbench
