#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace causalformer {
namespace obs {

namespace {

/// Compile-time frame slots per sample; ProfilerOptions::max_depth clamps
/// to this.
constexpr int kMaxFrameSlots = 48;

/// Frames a tick may capture above the interrupted one: the tick, the
/// signal handler and the kernel's signal trampoline, plus room for
/// interposed frames (a sanitizer's backtrace interceptor adds one).
constexpr int kHandlerMaxFrames = 8;

/// Frames dropped from a tick's capture when the interrupted program
/// counter is not among them (the tick and the handler, so the trampoline
/// stays as the leaf).
constexpr int kHandlerSkipFrames = 2;

/// The program counter the signal interrupted, or null where this
/// platform's ucontext layout is not known here.
void* InterruptedPc(void* ucontext) {
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

// ---- Process-wide thread-name registry -------------------------------------
//
// Registration happens at thread spawn (rare, lock-free slot claim); the
// signal handler only ever reads one thread_local pointer, which is
// async-signal-safe by construction. Slots are never reclaimed — names
// must stay readable for samples that outlive their thread.

constexpr int kMaxRegisteredThreads = 256;

struct ThreadNameSlot {
  char name[32];
};

ThreadNameSlot g_thread_names[kMaxRegisteredThreads];
std::atomic<int> g_thread_name_count{0};

thread_local const char* tls_profiling_thread_name = nullptr;

// ---- Signal-handler plumbing -----------------------------------------------

/// The profiler owning SIGPROF right now (at most one).
std::atomic<Profiler*> g_installed{nullptr};

/// Handlers currently executing; Stop() drains to zero before returning
/// so the profiler object can never be used after Stop()/destruction.
std::atomic<int> g_in_handler{0};

struct sigaction g_previous_action;

uint64_t MonotonicNanos() {
  timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return static_cast<uint64_t>(t.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(t.tv_nsec);
}

/// Resolves one program counter to a human-readable frame name:
/// demangled symbol when the address resolves (requires -rdynamic /
/// ENABLE_EXPORTS for the main binary's own symbols), otherwise the
/// containing object's basename and the address's offset from the object's
/// load base, `[object+0xOFFSET]` (`addr2line -f -C -e OBJECT 0xOFFSET`
/// names it for PIE executables and shared objects), raw hex as the last
/// resort. `;` is the folded-stack separator, so it is rewritten inside
/// names.
std::string SymbolizeAddress(const void* addr) {
  Dl_info info;
  const bool found = ::dladdr(addr, &info) != 0;
  std::string name;
  if (found && info.dli_sname != nullptr) {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
  } else if (found && info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    char offset[32];
    std::snprintf(offset, sizeof(offset), "+0x%zx]",
                  static_cast<size_t>(static_cast<const char*>(addr) -
                                      static_cast<const char*>(info.dli_fbase)));
    name = std::string("[") + (base != nullptr ? base + 1 : info.dli_fname) +
           offset;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%zx",
                  reinterpret_cast<size_t>(addr));
    name = buf;
  }
  for (char& c : name) {
    if (c == ';') c = ':';
  }
  return name;
}

/// One decoded (published, current-epoch) sample.
struct DecodedSample {
  const char* thread_name;
  uint64_t t_ns;
  int depth;
  void* frames[kMaxFrameSlots];
};

}  // namespace

void RegisterProfilingThread(const char* name) {
  if (name == nullptr || name[0] == '\0') return;
  // The kernel caps thread names at 15 chars + NUL; the registry keeps
  // the full name for profile attribution.
  char kernel_name[16];
  std::snprintf(kernel_name, sizeof(kernel_name), "%s", name);
  pthread_setname_np(pthread_self(), kernel_name);

  const int slot = g_thread_name_count.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxRegisteredThreads) {
    static const char kOverflow[] = "overflow";
    tls_profiling_thread_name = kOverflow;
    return;
  }
  std::snprintf(g_thread_names[slot].name, sizeof(g_thread_names[slot].name),
                "%s", name);
  tls_profiling_thread_name = g_thread_names[slot].name;
}

const char* CurrentProfilingThreadName() {
  return tls_profiling_thread_name;
}

// ---- Sample slots -----------------------------------------------------------

/// All fields are relaxed atomics: plain register-width moves on the hot
/// architectures (the signal handler pays nothing), while concurrent
/// readers/stale writers around Clear() can never be undefined behavior —
/// at worst a torn sample is attributed to the wrong window, which a
/// sampling profiler tolerates by design. Publication order is carried by
/// the release store of `epoch`.
struct Profiler::Sample {
  std::atomic<uint64_t> epoch{0};  ///< buffer epoch this slot was written in
  std::atomic<uint64_t> t_ns{0};
  std::atomic<const char*> thread_name{nullptr};
  std::atomic<int32_t> depth{0};
  std::atomic<void*> frames[kMaxFrameSlots];
};

Profiler::Profiler(ProfilerOptions options) : options_(options) {
  if (options_.hz <= 0) options_.hz = 97;
  if (options_.max_samples == 0) options_.max_samples = 1;
  options_.max_depth = std::max(1, std::min(options_.max_depth,
                                            kMaxFrameSlots));
  samples_.reset(new Sample[options_.max_samples]);
}

Profiler::~Profiler() { (void)Stop(); }

Status Profiler::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  Profiler* expected = nullptr;
  if (!g_installed.compare_exchange_strong(expected, this)) {
    return Status::FailedPrecondition(
        "a sampling profiler is already running in this process");
  }
  // backtrace() lazily loads libgcc's unwinder on first use (which may
  // allocate); prime it here so the signal handler never does.
  void* prime[2];
  ::backtrace(prime, 2);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &Profiler::SignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART | SA_SIGINFO;
  if (::sigaction(SIGPROF, &action, &g_previous_action) != 0) {
    g_installed.store(nullptr, std::memory_order_release);
    return Status::Internal(std::string("sigaction(SIGPROF): ") +
                            std::strerror(errno));
  }

  itimerval timer;
  const long usec = std::max(1l, 1000000l / options_.hz);
  timer.it_interval.tv_sec = usec / 1000000;
  timer.it_interval.tv_usec = usec % 1000000;
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    ::sigaction(SIGPROF, &g_previous_action, nullptr);
    g_installed.store(nullptr, std::memory_order_release);
    return Status::Internal(std::string("setitimer(ITIMER_PROF): ") +
                            std::strerror(errno));
  }
  running_.store(true, std::memory_order_release);
  SyncMetrics();
  return Status::Ok();
}

Status Profiler::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) return Status::Ok();

  itimerval zero;
  std::memset(&zero, 0, sizeof(zero));
  ::setitimer(ITIMER_PROF, &zero, nullptr);
  g_installed.store(nullptr, std::memory_order_release);
  // Drain any tick already inside the handler before the caller may
  // destroy this object. The handler is microseconds long and never
  // blocks, so this resolves immediately.
  while (g_in_handler.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
  ::sigaction(SIGPROF, &g_previous_action, nullptr);
  running_.store(false, std::memory_order_release);
  SyncMetrics();
  return Status::Ok();
}

bool Profiler::running() const {
  return running_.load(std::memory_order_acquire);
}

void Profiler::Clear() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  samples_cum_ += std::min<uint64_t>(next_.load(std::memory_order_acquire),
                                     options_.max_samples);
  drops_at_clear_.store(drops_total_.load(std::memory_order_acquire),
                        std::memory_order_release);
  // Epoch first: a stale writer that already claimed a slot publishes it
  // under the old epoch and readers skip it.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  next_.store(0, std::memory_order_release);
  SyncMetrics();
}

uint64_t Profiler::sample_count() const {
  return std::min<uint64_t>(next_.load(std::memory_order_acquire),
                            options_.max_samples);
}

uint64_t Profiler::drop_count() const {
  const uint64_t total = drops_total_.load(std::memory_order_acquire);
  const uint64_t base = drops_at_clear_.load(std::memory_order_acquire);
  return total >= base ? total - base : 0;
}

bool Profiler::RecordSample(void* const* frames, int depth) {
  const uint64_t pos = next_.fetch_add(1, std::memory_order_relaxed);
  if (pos >= options_.max_samples) {
    drops_total_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Sample& slot = samples_[pos];
  slot.t_ns.store(MonotonicNanos(), std::memory_order_relaxed);
  slot.thread_name.store(tls_profiling_thread_name,
                         std::memory_order_relaxed);
  const int kept = std::max(0, std::min(depth, options_.max_depth));
  for (int i = 0; i < kept; ++i) {
    slot.frames[i].store(frames[i], std::memory_order_relaxed);
  }
  slot.depth.store(kept, std::memory_order_relaxed);
  slot.epoch.store(epoch_.load(std::memory_order_relaxed),
                   std::memory_order_release);
  return true;
}

void Profiler::SampleNow() {
  void* frames[kMaxFrameSlots + 1];
  const int depth = ::backtrace(frames, options_.max_depth + 1);
  // Drop SampleNow's own frame so the stack starts at the caller.
  const int skip = depth > 1 ? 1 : 0;
  RecordSample(frames + skip, depth - skip);
}

Profiler* Profiler::Installed() {
  return g_installed.load(std::memory_order_acquire);
}

void Profiler::SignalHandler(int /*signum*/, siginfo_t* /*info*/,
                             void* ucontext) {
  const int saved_errno = errno;
  g_in_handler.fetch_add(1, std::memory_order_acq_rel);
  Profiler* profiler = g_installed.load(std::memory_order_acquire);
  if (profiler != nullptr) profiler->HandleTick(InterruptedPc(ucontext));
  g_in_handler.fetch_sub(1, std::memory_order_acq_rel);
  errno = saved_errno;
}

void Profiler::HandleTick(const void* pc) {
  const uint64_t t0 = MonotonicNanos();
  ticks_total_.fetch_add(1, std::memory_order_relaxed);
  void* frames[kMaxFrameSlots + kHandlerMaxFrames];
  const int depth = ::backtrace(frames, options_.max_depth + kHandlerMaxFrames);
  // The stack starts at the interrupted function: every frame before its
  // program counter belongs to this handler.
  int skip = std::min(kHandlerSkipFrames, depth > 0 ? depth - 1 : 0);
  for (int i = 0; pc != nullptr && i < std::min(depth, kHandlerMaxFrames);
       ++i) {
    if (frames[i] == pc) {
      skip = i;
      break;
    }
  }
  RecordSample(frames + skip, depth - skip);
  handler_ns_.fetch_add(MonotonicNanos() - t0, std::memory_order_relaxed);
}

StatusOr<ProfileReport> Profiler::Collect(double seconds) {
  if (seconds <= 0) {
    return Status::InvalidArgument("profile duration must be positive");
  }
  std::lock_guard<std::mutex> collect_lock(collect_mu_);
  if (!running()) {
    return Status::FailedPrecondition("profiler is not running");
  }
  Clear();
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  ProfileReport report;
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  report.samples = sample_count();
  report.drops = drop_count();
  report.folded = RenderFolded();
  report.chrome_json = RenderChromeJson();
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    SyncMetrics();
  }
  return report;
}

namespace {

/// Reads every published current-epoch sample out of the buffer.
template <typename SampleT>
std::vector<DecodedSample> SnapshotSamples(const SampleT* samples,
                                           uint64_t count, uint64_t epoch) {
  std::vector<DecodedSample> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const SampleT& slot = samples[i];
    if (slot.epoch.load(std::memory_order_acquire) != epoch) continue;
    DecodedSample decoded;
    decoded.thread_name = slot.thread_name.load(std::memory_order_relaxed);
    decoded.t_ns = slot.t_ns.load(std::memory_order_relaxed);
    decoded.depth = std::max<int32_t>(
        0, std::min<int32_t>(slot.depth.load(std::memory_order_relaxed),
                             kMaxFrameSlots));
    for (int f = 0; f < decoded.depth; ++f) {
      decoded.frames[f] = slot.frames[f].load(std::memory_order_relaxed);
    }
    out.push_back(decoded);
  }
  return out;
}

/// Memoized symbolization: return addresses (every frame above the leaf)
/// resolve at pc−1 so the symbol is the call site, not the instruction
/// after it.
std::string SymbolizeFrame(void* pc, bool leaf,
                           std::map<const void*, std::string>* cache) {
  const void* addr =
      leaf ? pc : static_cast<const void*>(static_cast<char*>(pc) - 1);
  auto it = cache->find(addr);
  if (it != cache->end()) return it->second;
  std::string name = SymbolizeAddress(addr);
  cache->emplace(addr, name);
  return name;
}

}  // namespace

std::string Profiler::RenderFolded() const {
  const std::vector<DecodedSample> samples = SnapshotSamples(
      samples_.get(), sample_count(), epoch_.load(std::memory_order_acquire));
  std::map<const void*, std::string> symbol_cache;
  std::map<std::string, uint64_t> counts;
  for (const DecodedSample& sample : samples) {
    std::string line =
        sample.thread_name != nullptr ? sample.thread_name : "unnamed";
    for (int i = sample.depth - 1; i >= 0; --i) {
      line += ';';
      line += SymbolizeFrame(sample.frames[i], /*leaf=*/i == 0,
                             &symbol_cache);
    }
    ++counts[line];
  }
  std::string out;
  for (const auto& [stack, count] : counts) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::string Profiler::RenderChromeJson() const {
  std::vector<DecodedSample> samples = SnapshotSamples(
      samples_.get(), sample_count(), epoch_.load(std::memory_order_acquire));
  std::sort(samples.begin(), samples.end(),
            [](const DecodedSample& a, const DecodedSample& b) {
              return a.t_ns < b.t_ns;
            });
  const uint64_t t_base = samples.empty() ? 0 : samples.front().t_ns;
  // Each sample renders as one nominal-tick-wide duration event on its
  // thread's track; the stack rides in args so Perfetto shows it on
  // selection.
  const double tick_us = 1e6 / options_.hz;

  std::map<std::string, int> tids;
  std::map<const void*, std::string> symbol_cache;
  std::string events;
  char buf[160];
  for (const DecodedSample& sample : samples) {
    const std::string thread =
        sample.thread_name != nullptr ? sample.thread_name : "unnamed";
    auto [it, inserted] =
        tids.emplace(thread, static_cast<int>(tids.size()) + 1);
    if (inserted) {
      if (!events.empty()) events += ",\n";
      events += "{\"ph\":\"M\",\"pid\":1,\"tid\":" +
                std::to_string(it->second) +
                ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      AppendJsonEscaped(thread, &events);
      events += "\"}}";
    }
    std::string stack;
    for (int i = sample.depth - 1; i >= 0; --i) {
      if (!stack.empty()) stack += ';';
      stack += SymbolizeFrame(sample.frames[i], i == 0, &symbol_cache);
    }
    const std::string leaf =
        sample.depth > 0
            ? SymbolizeFrame(sample.frames[0], true, &symbol_cache)
            : std::string("<empty>");
    if (!events.empty()) events += ",\n";
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"sample\","
                  "\"ts\":%.3f,\"dur\":%.3f,",
                  it->second, static_cast<double>(sample.t_ns - t_base) / 1e3,
                  tick_us);
    events += buf;
    events += "\"name\":\"";
    AppendJsonEscaped(leaf, &events);
    events += "\",\"args\":{\"stack\":\"";
    AppendJsonEscaped(stack, &events);
    events += "\"}}";
  }
  return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" + events + "\n]}\n";
}

void Profiler::SyncMetrics() {
  if (options_.metrics == nullptr) return;
  MetricsRegistry* metrics = options_.metrics;
  // Register both counters unconditionally so the series appear in the
  // exposition (at zero) from the first sync, then push only the deltas.
  Counter* samples_total = metrics->GetCounter("cf_profiler_samples_total");
  Counter* drops_total = metrics->GetCounter("cf_profiler_drops_total");
  const uint64_t samples_lifetime = samples_cum_ + sample_count();
  if (samples_lifetime > synced_samples_) {
    samples_total->Increment(samples_lifetime - synced_samples_);
    synced_samples_ = samples_lifetime;
  }
  const uint64_t drops_lifetime = drops_total_.load(std::memory_order_acquire);
  if (drops_lifetime > synced_drops_) {
    drops_total->Increment(drops_lifetime - synced_drops_);
    synced_drops_ = drops_lifetime;
  }
  metrics->GetGauge("cf_profiler_overhead_seconds")
      ->Set(static_cast<double>(handler_ns_.load(std::memory_order_acquire)) /
            1e9);
  metrics->GetGauge("cf_profiler_running")
      ->Set(running_.load(std::memory_order_acquire) ? 1.0 : 0.0);
  metrics->GetGauge("cf_profiler_hz")->Set(static_cast<double>(options_.hz));
}

}  // namespace obs
}  // namespace causalformer
