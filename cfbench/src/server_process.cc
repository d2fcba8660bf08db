#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace cfbench {

namespace cf = causalformer;

cf::Status ServerProcess::Start(const std::string& binary,
                                const std::vector<std::string>& args,
                                const std::string& cwd, double timeout_s) {
  if (running()) return cf::Status::FailedPrecondition("already running");
  int in_pipe[2], out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
    return cf::Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return cf::Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  const std::string log_path = cwd + "/server.log";
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  // Everything the child needs is prepared before fork: between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<std::string> argv_store;
  argv_store.push_back(binary);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();

  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      ::close(fd);
    }
    if (log_fd >= 0) ::close(log_fd);
    return cf::Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    if (::chdir(cwd.c_str()) != 0) ::_exit(126);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  if (log_fd >= 0) ::close(log_fd);
  pid_ = pid;
  stdin_fd_ = in_pipe[1];
  stdout_fd_ = out_pipe[0];

  // Wait for the listening line on the child's stdout.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  std::string out;
  for (;;) {
    const size_t at = out.find(" on port ");
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      port_ = static_cast<uint16_t>(std::atoi(out.c_str() + at + 9));
      if (port_ == 0) break;
      return cf::Status::Ok();
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1);
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char chunk[512];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) break;  // the child exited before listening
    out.append(chunk, static_cast<size_t>(n));
  }
  Kill();
  return cf::Status::Internal("server did not start listening (see " +
                              log_path + "); stdout: " + out);
}

void ServerProcess::Reap(double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (pid_ > 0) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      pid_ = -1;
      return;
    }
    if (std::chrono::steady_clock::now() >= deadline) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    if (stdin_fd_ >= 0) {
      static const char kQuit[] = "quit\n";
      [[maybe_unused]] ssize_t n = ::write(stdin_fd_, kQuit, sizeof(kQuit) - 1);
    }
    Reap(5.0);
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      Reap(3.0);
    }
    if (pid_ > 0) Kill();
  }
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdin_fd_ = stdout_fd_ = -1;
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
}

double ServerProcess::CpuSeconds() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

}  // namespace cfbench
