// Real lsr_node replica processes on loopback, plus the /proc readings the
// benchmark takes of them. Readiness is event-driven: each node prints one
// "serving on" line to its stdout pipe after its listener is bound and its
// transport started, so set-up time carries no probe-interval error. The
// nodes' stderr goes to a log file per node under the log directory.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

// Reserves `count` distinct free loopback ports (bound together, then
// released for the processes that will listen on them).
inline std::vector<std::uint16_t> free_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) break;
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof addr;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      break;
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  if (ports.size() != count) ports.clear();
  return ports;
}

// utime + stime of a process (all its threads), in seconds.
inline double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// Peak resident set (VmHWM) of a process, in kB.
inline std::uint64_t peak_rss_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  return 0;
}

class ReplicaProcesses {
 public:
  ReplicaProcesses() = default;
  ~ReplicaProcesses() { stop(); }
  ReplicaProcesses(const ReplicaProcesses&) = delete;
  ReplicaProcesses& operator=(const ReplicaProcesses&) = delete;

  // Spawns one `binary` per replica id 0..replicas-1 with the shared peers
  // spec and `extra` flags, then waits for every node's ready line. False
  // (with `error`) when a node fails to start within `timeout`.
  bool start(const std::string& binary, const std::string& peers,
             std::size_t replicas, const std::vector<std::string>& extra,
             const std::string& log_dir, std::chrono::milliseconds timeout,
             std::string& error) {
    ::mkdir(log_dir.c_str(), 0755);
    for (std::size_t id = 0; id < replicas; ++id) {
      int out[2];
      if (::pipe2(out, O_CLOEXEC) != 0) {
        error = "pipe failed";
        return false;
      }
      std::vector<std::string> args = {binary,       "--id",
                                       std::to_string(id), "--peers",
                                       peers,        "--replicas",
                                       std::to_string(replicas)};
      args.insert(args.end(), extra.begin(), extra.end());
      const std::string log = log_dir + "/node" + std::to_string(id) + ".log";
      const pid_t pid = ::fork();
      if (pid == 0) {
        // Child: die with the benchmark, report on the pipe, log to file.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::dup2(out[1], STDOUT_FILENO);
        const int log_fd =
            ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
        std::vector<char*> argv;
        for (auto& arg : args) argv.push_back(arg.data());
        argv.push_back(nullptr);
        ::execv(binary.c_str(), argv.data());
        ::_exit(127);
      }
      ::close(out[1]);
      if (pid < 0) {
        ::close(out[0]);
        error = "fork failed";
        return false;
      }
      nodes_.push_back({pid, out[0]});
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      if (!wait_ready(nodes_[id].stdout_fd, deadline)) {
        error = "replica " + std::to_string(id) +
                " did not report ready (see its log under " + log_dir + ")";
        return false;
      }
    }
    return true;
  }

  double cpu_seconds() const {
    double total = 0.0;
    for (const auto& node : nodes_) total += process_cpu_seconds(node.pid);
    return total;
  }

  // Mean of the replicas' peak RSS, in MB.
  double mean_peak_rss_mb() const {
    if (nodes_.empty()) return 0.0;
    double total = 0.0;
    for (const auto& node : nodes_)
      total += static_cast<double>(peak_rss_kb(node.pid)) / 1024.0;
    return total / static_cast<double>(nodes_.size());
  }

  // SIGTERM, then SIGKILL after a grace period; reaps every child.
  void stop() {
    for (const auto& node : nodes_) ::kill(node.pid, SIGTERM);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (const auto& node : nodes_) {
      while (::waitpid(node.pid, nullptr, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
          ::kill(node.pid, SIGKILL);
          ::waitpid(node.pid, nullptr, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      ::close(node.stdout_fd);
    }
    nodes_.clear();
  }

 private:
  struct Node {
    pid_t pid;
    int stdout_fd;
  };

  static bool wait_ready(int fd,
                         std::chrono::steady_clock::time_point deadline) {
    std::string seen;
    char buffer[256];
    while (seen.find('\n') == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return false;
      const ssize_t n = ::read(fd, buffer, sizeof buffer);
      if (n <= 0) return false;  // exited before reporting
      seen.append(buffer, static_cast<std::size_t>(n));
    }
    return seen.find("serving on") != std::string::npos;
  }

  std::vector<Node> nodes_;
};

}  // namespace e2e
