#include "reference.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

volatile std::uint64_t g_sink = 0;

/// A simulator-like mix that touches no simulator code: a timer heap, a
/// hash table, small heap buffers and type-erased callbacks.
std::uint64_t kernel_pass() {
  using Entry = std::pair<std::uint64_t, std::uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> buffers;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 400; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.emplace(x & 0xffff, x);
    if (heap.size() > 40) {
      acc += heap.top().second;
      heap.pop();
    }
    table[x & 1023] += x;
    buffers.push_back(std::make_unique<std::vector<std::uint8_t>>(
        64 + (x & 127), static_cast<std::uint8_t>(x)));
    if (buffers.size() > 32) buffers.erase(buffers.begin());
    const std::function<void()> callback = [&acc, x] { acc += x; };
    callback();
  }
  return acc + table.size();
}

/// The untimed pass brings the kernel's code, data and free lists back
/// into cache after the program ran there; the median of three timed
/// passes damps a single interrupted one.
double timed_kernel() {
  g_sink = g_sink + kernel_pass();
  double ns[3];
  for (double& t : ns) {
    const std::uint64_t t0 = wall_ns();
    g_sink = g_sink + kernel_pass();
    t = static_cast<double>(wall_ns() - t0);
  }
  std::sort(std::begin(ns), std::end(ns));
  return ns[1];
}

bool read_full(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_full(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

/// The child: one kernel run per request byte, until the request pipe
/// closes (the parent is done, or gone).
[[noreturn]] void serve(int request, int reply, pid_t parent) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(0);
  // Holds none of the parent's output pipes open.
  for (int fd = 0; fd <= 2; ++fd) ::close(fd);
  char c = 0;
  while (read_full(request, &c, 1)) {
    const double ns = timed_kernel();
    if (!write_full(reply, &ns, sizeof ns)) break;
  }
  ::_exit(0);
}

}  // namespace

ReferenceKernel::ReferenceKernel() {
  // Both processes on one CPU: the kernel measures the core the program
  // runs on, and the two never run at once (the parent waits for replies).
  const int cpu = ::sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)::sched_setaffinity(0, sizeof set, &set);
  }
  // A write to a gone child then fails with EPIPE instead of killing us.
  ::signal(SIGPIPE, SIG_IGN);
  int request[2];
  int reply[2];
  if (::pipe(request) != 0) throw std::runtime_error("reference: pipe failed");
  if (::pipe(reply) != 0) {
    ::close(request[0]);
    ::close(request[1]);
    throw std::runtime_error("reference: pipe failed");
  }
  const pid_t parent = ::getpid();
  std::fflush(nullptr);
  child_ = ::fork();
  if (child_ == 0) {
    ::close(request[1]);
    ::close(reply[0]);
    serve(request[0], reply[1], parent);
  }
  ::close(request[0]);
  ::close(reply[1]);
  request_fd_ = request[1];
  reply_fd_ = reply[0];
  if (child_ < 0) {
    ::close(request_fd_);
    ::close(reply_fd_);
    throw std::runtime_error("reference: fork failed");
  }
}

ReferenceKernel::~ReferenceKernel() {
  ::close(request_fd_);
  ::close(reply_fd_);
  int status = 0;
  while (::waitpid(child_, &status, 0) < 0 && errno == EINTR) {
  }
}

double ReferenceKernel::ns() {
  const char c = 'r';
  double ns = 0;
  if (!write_full(request_fd_, &c, 1) || !read_full(reply_fd_, &ns, sizeof ns)) {
    throw std::runtime_error("reference: kernel process is gone");
  }
  return ns;
}

}  // namespace perfbench
