#include "obs/process_metrics.h"

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "tensor/allocator.h"

namespace causalformer {
namespace obs {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reads up to `cap-1` bytes of a procfs file into `buf` (NUL-terminated);
/// returns false when the file cannot be read. fopen/fread, not ifstream:
/// these run inside the metrics scrape and should not allocate.
bool ReadProcFile(const char* path, char* buf, size_t cap) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  const size_t n = std::fread(buf, 1, cap - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  return n > 0;
}

}  // namespace

uint64_t ProcessMetrics::ReadRssBytes() {
  char buf[256];
  if (!ReadProcFile("/proc/self/statm", buf, sizeof(buf))) return 0;
  // statm: size resident shared text lib data dt (pages).
  unsigned long long size_pages = 0, resident_pages = 0;
  if (std::sscanf(buf, "%llu %llu", &size_pages, &resident_pages) != 2) {
    return 0;
  }
  const long page = ::sysconf(_SC_PAGESIZE);
  return resident_pages * static_cast<uint64_t>(page > 0 ? page : 4096);
}

double ProcessMetrics::ReadCpuSeconds() {
  char buf[1024];
  if (!ReadProcFile("/proc/self/stat", buf, sizeof(buf))) return 0;
  // stat: pid (comm) state ppid ... utime is field 14, stime field 15.
  // comm may contain spaces and parentheses, so parse after the *last*
  // ')' rather than splitting on whitespace from the start.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  ++p;  // skip ')'
  // Fields 3..13 (state through majflt+cmajflt) precede utime.
  unsigned long long utime = 0, stime = 0;
  char state = 0;
  const int parsed = std::sscanf(
      p, " %c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu", &state,
      &utime, &stime);
  if (parsed != 3) return 0;
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return static_cast<double>(utime + stime) /
         static_cast<double>(ticks > 0 ? ticks : 100);
}

int64_t ProcessMetrics::ReadOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int64_t count = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;  // "." and ".."
    ++count;
  }
  ::closedir(dir);
  return count;
}

ProcessMetrics::ProcessMetrics(MetricsRegistry* registry)
    : rss_bytes_(registry->GetGauge("cf_process_rss_bytes")),
      cpu_seconds_(registry->GetGauge("cf_process_cpu_seconds_total")),
      open_fds_(registry->GetGauge("cf_process_open_fds")),
      uptime_seconds_(registry->GetGauge("cf_process_uptime_seconds")),
      arena_pooled_bytes_(registry->GetGauge("cf_arena_pooled_bytes")),
      arena_outstanding_blocks_(
          registry->GetGauge("cf_arena_outstanding_blocks")),
      start_seconds_(MonotonicSeconds()) {
  Update();
}

void ProcessMetrics::Update() {
  rss_bytes_->Set(static_cast<double>(ReadRssBytes()));
  cpu_seconds_->Set(ReadCpuSeconds());
  const int64_t fds = ReadOpenFds();
  if (fds >= 0) open_fds_->Set(static_cast<double>(fds));
  uptime_seconds_->Set(MonotonicSeconds() - start_seconds_);
  const ArenaTotals arenas = TotalArenaStats();
  arena_pooled_bytes_->Set(static_cast<double>(arenas.stats.pooled_bytes));
  arena_outstanding_blocks_->Set(
      static_cast<double>(arenas.stats.outstanding));
}

}  // namespace obs
}  // namespace causalformer
