#include "probes.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace lifecycle_bench {
namespace {

constexpr int kSampleMillis = 5;

// Reads "<key>:  <n> kB" from /proc/self/status.
int64_t StatusKilobytes(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  const size_t key_len = std::strlen(key);
  int64_t kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      kb = std::strtoll(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

[[noreturn]] void FailCeiling(int64_t rss, int64_t ceiling) {
  std::fprintf(stderr,
               "lifecycle_bench: error memory_ceiling_exceeded: rss %lld MB "
               "> ceiling %lld MB\n",
               static_cast<long long>(rss >> 20),
               static_cast<long long>(ceiling >> 20));
  std::fflush(stderr);
  std::_Exit(3);
}

}  // namespace

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int64_t RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long long size = 0;
  long long resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (n != 2) return -1;
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

int64_t PeakRssBytes() {
  const int64_t kb = StatusKilobytes("VmHWM");
  return kb < 0 ? -1 : kb * 1024;
}

bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

MemoryWatchdog::MemoryWatchdog(int64_t ceiling_bytes, bool sample)
    : ceiling_bytes_(ceiling_bytes) {
  if (!sample) return;
  sampler_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      Check();
      std::this_thread::sleep_for(std::chrono::milliseconds(kSampleMillis));
    }
  });
}

MemoryWatchdog::~MemoryWatchdog() {
  stop_.store(true, std::memory_order_relaxed);
  if (sampler_.joinable()) sampler_.join();
}

void MemoryWatchdog::Check() const {
  const int64_t rss = RssBytes();
  if (rss > ceiling_bytes_) FailCeiling(rss, ceiling_bytes_);
}

}  // namespace lifecycle_bench
