// Server processes: the `serve` entry point that runs one workload's
// GaloisServer, and the handle the load process uses to launch, observe
// (/proc) and stop it.
#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// `galois_perfbench serve --workload W [--store DIR --store-max-bytes N]`:
/// opens the workload's Database the way galoisd does, warms it when the
/// workload asks for it, starts a GaloisServer on an ephemeral loopback
/// port, prints "READY <port>" and serves until SIGTERM.
int ServeMain(const std::vector<std::string>& args);

/// A launched server process. Stop() (or the destructor) terminates it
/// and waits for it.
class ServerProcess {
 public:
  /// Starts `exe serve <args>`. Call from a thread that outlives the
  /// process: the child is killed when its parent thread exits.
  static galois::Result<ServerProcess> Spawn(
      const std::string& exe, const std::vector<std::string>& args);
  /// Waits until the process reports ready (or fails, or times out).
  galois::Status WaitReady();

  ServerProcess(ServerProcess&& other) noexcept;
  ServerProcess& operator=(ServerProcess&& other) noexcept;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess();

  int port() const { return port_; }
  /// Seconds from fork until the ready line arrived.
  double setup_s() const { return setup_s_; }
  /// User + system CPU time so far, in milliseconds.
  double CpuMs() const;
  /// Peak resident set (VmHWM), in KiB.
  int64_t PeakRssKb() const;
  /// SIGTERM, then wait (SIGKILL after a grace period).
  void Stop();

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  int ready_fd_ = -1;  // read end of the child's stdout until ready
  std::chrono::steady_clock::time_point started_;
  int port_ = 0;
  double setup_s_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H_
