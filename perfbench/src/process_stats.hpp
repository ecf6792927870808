// process_stats.hpp — process-level counters read around a timed loop.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <cstdint>

namespace perfbench {

/// CPU seconds consumed so far on `clock` (CLOCK_PROCESS_CPUTIME_ID for the
/// whole process, CLOCK_THREAD_CPUTIME_ID for the calling thread).
inline double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Minor page faults of the process so far.
inline std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

}  // namespace perfbench
