#include "tensor/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "tensor/simd_tables.h"
#include "util/logging.h"

namespace causalformer {
namespace simd {
namespace {

// Highest level this build + this CPU can run.
IsaLevel DetectBestLevel() {
#ifdef CF_HAVE_AVX2
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return IsaLevel::kAvx2;
  }
#endif
  return IsaLevel::kScalar;
}

// CF_SIMD environment override: off/scalar, avx2, auto (or unset).
// Requests for a level that is unavailable fall back to the best available.
IsaLevel InitialLevel() {
  const IsaLevel best = DetectBestLevel();
  const char* env = std::getenv("CF_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return best;
  }
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0) {
    return IsaLevel::kScalar;
  }
  if (std::strcmp(env, "avx2") != 0) {
    CF_LOG(kWarning) << "unknown CF_SIMD value '" << env << "', using "
                     << LevelName(best);
    return best;
  }
  if (TableForLevel(IsaLevel::kAvx2) == nullptr) {
    CF_LOG(kWarning) << "CF_SIMD=" << env
                     << " not available in this build/CPU, using "
                     << LevelName(best);
    return best;
  }
  return IsaLevel::kAvx2;
}

struct Dispatch {
  std::atomic<const KernelTable*> table;
  std::atomic<IsaLevel> level;

  Dispatch() {
    const IsaLevel lvl = InitialLevel();
    level.store(lvl, std::memory_order_relaxed);
    table.store(TableForLevel(lvl), std::memory_order_relaxed);
  }
};

Dispatch& GetDispatch() {
  static Dispatch* d = new Dispatch();
  return *d;
}

}  // namespace

const KernelTable& Active() {
  return *GetDispatch().table.load(std::memory_order_relaxed);
}

IsaLevel ActiveLevel() {
  return GetDispatch().level.load(std::memory_order_relaxed);
}

const char* LevelName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const KernelTable* TableForLevel(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return &ScalarKernelTable();
    case IsaLevel::kAvx2:
#ifdef CF_HAVE_AVX2
      if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        return &Avx2KernelTable();
      }
#endif
      return nullptr;
  }
  return nullptr;
}

void SetLevelForTesting(IsaLevel level) {
  const KernelTable* t = TableForLevel(level);
  if (t == nullptr) {
    level = DetectBestLevel();
    t = TableForLevel(level);
  }
  Dispatch& d = GetDispatch();
  d.level.store(level, std::memory_order_relaxed);
  d.table.store(t, std::memory_order_relaxed);
}

}  // namespace simd
}  // namespace causalformer
