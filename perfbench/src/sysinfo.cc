#include "sysinfo.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

/// Fields of /proc/<pid>/stat after the parenthesised command name,
/// starting at field 3 (state).
std::vector<std::string> StatFields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return {};
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return {};
  std::istringstream rest(line.substr(close + 1));
  std::vector<std::string> fields;
  std::string f;
  while (rest >> f) fields.push_back(f);
  return fields;
}

double StatusKb(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1));
    }
  }
  return 0.0;
}

}  // namespace

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double SelfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

std::vector<pid_t> ChildPids() {
  std::vector<pid_t> out;
  const pid_t self = getpid();
  DIR* dir = opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* e = readdir(dir)) {
    const std::string name = e->d_name;
    if (name.empty() || name.find_first_not_of("0123456789") !=
                            std::string::npos) {
      continue;
    }
    const pid_t pid = static_cast<pid_t>(std::stol(name));
    const std::vector<std::string> f = StatFields(pid);
    // f[0] = state, f[1] = ppid.
    if (f.size() > 1 && f[0] != "Z" && std::stol(f[1]) == self) {
      out.push_back(pid);
    }
  }
  closedir(dir);
  return out;
}

double ProcessCpuSeconds(pid_t pid) {
  const std::vector<std::string> f = StatFields(pid);
  // utime and stime are fields 14 and 15 of the full line.
  if (f.size() < 13) return 0.0;
  const double ticks = std::stod(f[11]) + std::stod(f[12]);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb(pid_t pid) {
  return StatusKb("/proc/" + std::to_string(pid) + "/status", "VmHWM") /
         1024.0;
}

double SelfPeakRssMb() {
  return StatusKb("/proc/self/status", "VmHWM") / 1024.0;
}

std::optional<long> TcpTimeWait() {
  std::ifstream in("/proc/net/sockstat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("TCP:", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    std::string key;
    long value = 0;
    while (fields >> key >> value) {
      if (key == "tw") return value;
    }
  }
  return std::nullopt;
}

std::optional<long> TcpTimeWaitYoungerThan(double age_s) {
  constexpr double kTimeWaitSeconds = 60.0;  // TCP_TIMEWAIT_LEN
  const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  std::optional<long> count;
  for (const char* path : {"/proc/net/tcp", "/proc/net/tcp6"}) {
    std::ifstream in(path);
    if (!in) continue;
    count = count.value_or(0);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      // sl local rem st tx:rx tr:when ...
      std::istringstream fields(line);
      std::string sl, local, rem, st, queues, timer;
      if (!(fields >> sl >> local >> rem >> st >> queues >> timer)) continue;
      // State 06 is TIME_WAIT; timer kind 03 is its expiry countdown.
      if (st != "06" || timer.rfind("03:", 0) != 0) continue;
      const double left =
          static_cast<double>(std::stoul(timer.substr(3), nullptr, 16)) /
          ticks_per_s;
      if (left >= kTimeWaitSeconds - age_s) ++*count;
    }
  }
  return count;
}

}  // namespace perfbench
