// Host and process readings from /proc and getrusage: CPU count, CPU
// seconds, peak resident memory, child processes and the kernel's count
// of TCP sockets in TIME_WAIT.
#ifndef PERFBENCH_SYSINFO_H_
#define PERFBENCH_SYSINFO_H_

#include <optional>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// CPUs this process may run on (what `nproc` prints).
int Nproc();

/// User + system CPU seconds of this process (all threads).
double SelfCpuSeconds();

/// Direct children of this process that are still running.
std::vector<pid_t> ChildPids();

/// User + system CPU seconds of a running process; 0 if it is gone.
double ProcessCpuSeconds(pid_t pid);

/// Peak resident set (VmHWM) of a process in MB; 0 if it is gone.
double PeakRssMb(pid_t pid);
/// Peak resident set of this process in MB.
double SelfPeakRssMb();

/// TCP sockets in TIME_WAIT in this network namespace (the `tw` field of
/// /proc/net/sockstat), or nullopt when the file cannot be read.
std::optional<long> TcpTimeWait();

/// TCP sockets (IPv4 and IPv6) that entered TIME_WAIT within the last
/// `age_s` seconds, told apart from older ones by their timer: Linux holds
/// a socket in TIME_WAIT for a fixed 60 s, so one that entered it t
/// seconds ago has 60 - t seconds left on its /proc/net/tcp timer.
/// nullopt when /proc/net/tcp cannot be read.
std::optional<long> TcpTimeWaitYoungerThan(double age_s);

}  // namespace perfbench

#endif  // PERFBENCH_SYSINFO_H_
