// Machine-speed reference for drift-corrected wall times.
//
// Shared machines alternate between full speed and phases up to ~2.5x
// slower that last seconds to hours (another tenant on the same core),
// which swamps any change worth measuring.  The benchmark runs a fixed
// kernel right after every measured sub-window.  Its wall time slows in
// step with the sub-window's, so a sub-window's wall time ×
// kReferenceNominalNs / reference time is its wall time at the kernel's
// nominal speed (README.md, "Drift correction").
//
// The kernel runs in a child process forked before any world is built and
// pinned, with this process, to one CPU.  It shares no heap, allocator or
// address space with the program, so no change to the program's footprint
// or allocation pattern can move the divisor; only the machine can.
#pragma once

#include <sys/types.h>

namespace perfbench {

/// The kernel's wall time at full speed on the machine the baseline
/// numbers were taken on (README.md), in ns.
inline constexpr double kReferenceNominalNs = 65'000.0;

class ReferenceKernel {
 public:
  /// Pins this process to the CPU it is running on and forks the kernel's
  /// process.  Call before anything else allocates much.
  ReferenceKernel();
  /// Stops the kernel's process and waits for it.
  ~ReferenceKernel();
  ReferenceKernel(const ReferenceKernel&) = delete;
  ReferenceKernel& operator=(const ReferenceKernel&) = delete;

  /// Runs the kernel in the child: one untimed pass, then three timed
  /// ones; returns the median timed pass's wall time, ns.
  double ns();

 private:
  int request_fd_ = -1;
  int reply_fd_ = -1;
  pid_t child_ = -1;
};

}  // namespace perfbench
