#ifndef LIFECYCLE_BENCH_PROBES_H_
#define LIFECYCLE_BENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <thread>

namespace lifecycle_bench {

// Monotonic wall clock, in seconds.
double WallSeconds();

// CPU time of the whole process (every thread), in seconds.
double CpuSeconds();

// Current resident set size, in bytes (/proc/self/statm).
int64_t RssBytes();

// High-water mark of the resident set since the last ResetPeakRss, in bytes
// (VmHWM of /proc/self/status).
int64_t PeakRssBytes();

// Resets VmHWM to the current RSS by writing "5" to /proc/self/clear_refs.
// Returns false when the kernel refuses, in which case per-round peaks
// cannot be measured and the benchmark stops.
bool ResetPeakRss();

// Stops the process with a named error once its RSS passes `ceiling_bytes`,
// so a run that blows up memory ends here and never through the OOM killer.
// With `sample` set, a thread samples RSS every few milliseconds; otherwise
// (when one more thread would exceed the core count) only Check() calls
// between rounds look.
class MemoryWatchdog {
 public:
  MemoryWatchdog(int64_t ceiling_bytes, bool sample);
  ~MemoryWatchdog();

  MemoryWatchdog(const MemoryWatchdog&) = delete;
  MemoryWatchdog& operator=(const MemoryWatchdog&) = delete;

  void Check() const;
  int64_t ceiling_bytes() const { return ceiling_bytes_; }
  bool sampling() const { return sampler_.joinable(); }

 private:
  int64_t ceiling_bytes_;
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

}  // namespace lifecycle_bench

#endif  // LIFECYCLE_BENCH_PROBES_H_
