#ifndef CFBENCH_SERVER_PROCESS_H_
#define CFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

/// \file
/// The system under test as a child process: `serve_cli serve --port 0 ...`
/// in its shipped configuration (observability, flight recorder and the
/// 97 Hz profiler all on). The child dies with the benchmark
/// (PR_SET_PDEATHSIG), and Stop() always reaps it.

namespace cfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary` with `args` in directory `cwd` (stderr goes to
  /// `cwd`/server.log) and waits up to `timeout_s` for the "serving ... on
  /// port N" line.
  causalformer::Status Start(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& cwd, double timeout_s);
  /// Asks the server to quit on stdin, escalating to SIGTERM and SIGKILL,
  /// and reaps it. No-op when not running.
  void Stop();
  /// SIGKILL + reap (fault-injection tests).
  void Kill();

  bool running() const { return pid_ > 0; }
  uint16_t port() const { return port_; }

  /// User + system CPU seconds of the server so far (/proc/<pid>/stat).
  double CpuSeconds() const;
  /// Peak resident set size in MB (VmHWM of /proc/<pid>/status).
  double PeakRssMb() const;

 private:
  void Reap(double timeout_s);

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace cfbench

#endif  // CFBENCH_SERVER_PROCESS_H_
