#include "server.h"

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
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "api/database.h"
#include "layers.h"
#include "net/galois_server.h"
#include "workload.h"

namespace perfbench {

using galois::Result;
using galois::Status;

int ServeMain(const std::vector<std::string>& args) {
  std::string workload_name, store_dir;
  int64_t store_max_bytes = 0;
  for (size_t i = 0; i + 1 < args.size(); i += 2) {
    if (args[i] == "--workload") {
      workload_name = args[i + 1];
    } else if (args[i] == "--store") {
      store_dir = args[i + 1];
    } else if (args[i] == "--store-max-bytes") {
      store_max_bytes = std::strtoll(args[i + 1].c_str(), nullptr, 10);
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload_name);
  if (spec == nullptr) {
    std::fprintf(stderr, "serve: unknown workload '%s'\n",
                 workload_name.c_str());
    return 2;
  }

  // Block SIGTERM before any thread exists so every thread inherits the
  // mask and the main thread can sigwait for it.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  Result<galois::knowledge::SpiderLikeWorkload> workload =
      galois::knowledge::SpiderLikeWorkload::Create();
  if (!workload.ok()) {
    std::fprintf(stderr, "serve: %s\n", workload.status().ToString().c_str());
    return 1;
  }
  auto model = MakeModel(*spec, workload.value(), spec->llm_delay_ms);
  auto db = galois::Database::Open(
      MakeDatabaseOptions(*spec, &workload.value(), model.get(), store_dir,
                          store_max_bytes, nullptr));
  if (!db.ok()) {
    std::fprintf(stderr, "serve: %s\n", db.status().ToString().c_str());
    return 1;
  }
  if (spec->warm_up) {
    Status warmed = RunPoolOnce(*db.value(),
                                BuildPool(*spec, workload.value(), 0));
    if (!warmed.ok()) {
      std::fprintf(stderr, "serve: warm-up: %s\n", warmed.ToString().c_str());
      return 1;
    }
  }

  galois::net::ServerOptions options;  // galoisd's defaults
  options.host = "127.0.0.1";
  options.port = 0;
  galois::net::GaloisServer server(db.value().get(), options);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("READY %d\n", server.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&stop_signals, &sig);
  server.Shutdown();
  return 0;
}

Result<ServerProcess> ServerProcess::Spawn(
    const std::string& exe, const std::vector<std::string>& args) {
  std::vector<std::string> argv_strings = {exe, "serve"};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  // glibc adapts its mmap threshold to the sizes freed so far, so
  // whether a large buffer (a vacuum's rewrite, a join's intermediate)
  // is a transient mapping or retained heap depends on allocation
  // history, and peak RSS jumps between runs by megabytes. Fixing the
  // threshold at the adaptive ceiling (32 MiB) serves such buffers from
  // the heap every time, as a warmed-up process does anyway.
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MALLOC_MMAP_THRESHOLD_=", 23) != 0) {
      env_strings.emplace_back(*e);
    }
  }
  env_strings.emplace_back("MALLOC_MMAP_THRESHOLD_=33554432");
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return Status::IoError("pipe failed");
  ServerProcess proc;
  proc.started_ = std::chrono::steady_clock::now();
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::IoError("fork failed");
  }
  if (pid == 0) {
    // Die with the load process, whatever happens to it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execve(exe.c_str(), argv.data(), envp.data());
    _exit(127);
  }
  close(fds[1]);
  proc.pid_ = pid;
  proc.ready_fd_ = fds[0];
  return proc;
}

Status ServerProcess::WaitReady() {
  // 60 s budget: a warm-up buys every prompt of the pool.
  std::string line;
  const auto give_up = started_ + std::chrono::seconds(60);
  while (ready_fd_ >= 0 && line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          give_up - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) break;
    pollfd pfd{ready_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    char buf[256];
    const ssize_t n = read(ready_fd_, buf, sizeof buf);
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  if (ready_fd_ >= 0) close(ready_fd_);
  ready_fd_ = -1;
  setup_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           started_)
                 .count();
  int port = 0;
  if (std::sscanf(line.c_str(), "READY %d", &port) != 1 || port <= 0) {
    return Status::IoError("server process did not become ready");
  }
  port_ = port;
  return Status::OK();
}

ServerProcess::ServerProcess(ServerProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      ready_fd_(std::exchange(other.ready_fd_, -1)),
      started_(other.started_),
      port_(other.port_),
      setup_s_(other.setup_s_) {}

ServerProcess& ServerProcess::operator=(ServerProcess&& other) noexcept {
  if (this != &other) {
    Stop();
    pid_ = std::exchange(other.pid_, -1);
    ready_fd_ = std::exchange(other.ready_fd_, -1);
    started_ = other.started_;
    port_ = other.port_;
    setup_s_ = other.setup_s_;
  }
  return *this;
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::CpuMs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int64_t ServerProcess::PeakRssKb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

void ServerProcess::Stop() {
  if (ready_fd_ >= 0) close(ready_fd_);
  ready_fd_ = -1;
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  int status = 0;
  for (int i = 0; i < 200; ++i) {  // 10 s grace for the drain
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, &status, 0);
  pid_ = -1;
}

}  // namespace perfbench
