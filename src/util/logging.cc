#include "util/logging.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/log_ring.h"
#include "util/string_util.h"

namespace causalformer {
namespace {

// ---- Clock seam -------------------------------------------------------------

std::mutex& ClockMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

// The installed log clock. Guarded by ClockMutex(); read per record. The
// indirection (pointer to a heap Clock) keeps the static destruction-order
// story trivial: logging must work during static teardown.
obs::Clock*& InstalledClock() {
  static obs::Clock* clock = new obs::Clock;
  return clock;
}

// ---- Sinks ------------------------------------------------------------------

std::mutex& SinkMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::vector<LogSink*>& Sinks() {
  static std::vector<LogSink*>* sinks = new std::vector<LogSink*>;
  return *sinks;
}

std::atomic<int>& StderrFormat() {
  static std::atomic<int> format{[] {
    const char* env = std::getenv("CF_LOG_FORMAT");
    return (env != nullptr && std::strcmp(env, "json") == 0)
               ? static_cast<int>(LogFormat::kJson)
               : static_cast<int>(LogFormat::kText);
  }()};
  return format;
}

std::mutex& StderrMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::function<void()>& FatalHandler() {
  static std::function<void()>* handler = new std::function<void()>;
  return *handler;
}

// ---- Formatting helpers -----------------------------------------------------

const char* SeverityName(LogSeverity s) {
  switch (s) {
    case LogSeverity::kDebug:
      return "D";
    case LogSeverity::kInfo:
      return "I";
    case LogSeverity::kWarning:
      return "W";
    case LogSeverity::kError:
      return "E";
    case LogSeverity::kFatal:
      return "F";
  }
  return "?";
}

std::string FieldValueText(const LogField& field) {
  char buf[32];
  switch (field.kind) {
    case LogField::Kind::kInt:
      return std::to_string(field.int_value);
    case LogField::Kind::kUint:
      return std::to_string(field.uint_value);
    case LogField::Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "%g", field.double_value);
      return buf;
    case LogField::Kind::kBool:
      return field.bool_value ? "true" : "false";
    case LogField::Kind::kString:
      return field.string_value;
  }
  return "";
}

void AppendFieldValueJson(const LogField& field, std::string* out) {
  char buf[64];
  switch (field.kind) {
    case LogField::Kind::kInt:
      *out += std::to_string(field.int_value);
      return;
    case LogField::Kind::kUint:
      *out += std::to_string(field.uint_value);
      return;
    case LogField::Kind::kDouble:
      // %.17g round-trips any finite double; JSON has no NaN/Inf literals.
      if (field.double_value != field.double_value) {
        *out += "\"nan\"";
        return;
      }
      std::snprintf(buf, sizeof(buf), "%.17g", field.double_value);
      if (std::strchr(buf, 'i') != nullptr) {  // "inf" / "-inf"
        *out += '"';
        *out += buf;
        *out += '"';
        return;
      }
      *out += buf;
      return;
    case LogField::Kind::kBool:
      *out += field.bool_value ? "true" : "false";
      return;
    case LogField::Kind::kString:
      *out += '"';
      AppendJsonEscaped(field.string_value, out);
      *out += '"';
      return;
  }
}

LogField MakeField(const char* key, LogField::Kind kind) {
  LogField field;
  field.key = key;
  field.kind = kind;
  return field;
}

// Emission order across all threads; also the LogRing's merge key.
std::atomic<uint64_t> g_log_sequence{0};

thread_local uint64_t t_log_trace_id = 0;

}  // namespace

// ---- Thresholds and seams ---------------------------------------------------

namespace {

std::atomic<int>& MinSeverity() {
  static std::atomic<int> severity{[] {
    const char* env = std::getenv("CF_LOG_LEVEL");
    if (env == nullptr) return static_cast<int>(LogSeverity::kInfo);
    const int level = std::atoi(env);
    if (level <= 0) return static_cast<int>(LogSeverity::kDebug);
    if (level >= 4) return static_cast<int>(LogSeverity::kFatal);
    return level;
  }()};
  return severity;
}

}  // namespace

LogSeverity MinLogSeverity() {
  return static_cast<LogSeverity>(
      MinSeverity().load(std::memory_order_relaxed));
}

void SetMinLogSeverity(LogSeverity severity) {
  MinSeverity().store(static_cast<int>(severity), std::memory_order_relaxed);
}

void SetLogClock(obs::Clock clock) {
  std::lock_guard<std::mutex> lock(ClockMutex());
  *InstalledClock() = std::move(clock);
}

double LogNowSeconds() {
  std::lock_guard<std::mutex> lock(ClockMutex());
  return InstalledClock()->Now();
}

uint64_t LogThreadId() {
  static std::atomic<uint64_t> next{0};
  thread_local const uint64_t id =
      next.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

// ---- LogKV ------------------------------------------------------------------

LogField LogKV(const char* key, bool value) {
  LogField f = MakeField(key, LogField::Kind::kBool);
  f.bool_value = value;
  return f;
}
LogField LogKV(const char* key, int value) {
  LogField f = MakeField(key, LogField::Kind::kInt);
  f.int_value = value;
  return f;
}
LogField LogKV(const char* key, long value) {
  LogField f = MakeField(key, LogField::Kind::kInt);
  f.int_value = value;
  return f;
}
LogField LogKV(const char* key, long long value) {
  LogField f = MakeField(key, LogField::Kind::kInt);
  f.int_value = value;
  return f;
}
LogField LogKV(const char* key, unsigned value) {
  LogField f = MakeField(key, LogField::Kind::kUint);
  f.uint_value = value;
  return f;
}
LogField LogKV(const char* key, unsigned long value) {
  LogField f = MakeField(key, LogField::Kind::kUint);
  f.uint_value = value;
  return f;
}
LogField LogKV(const char* key, unsigned long long value) {
  LogField f = MakeField(key, LogField::Kind::kUint);
  f.uint_value = value;
  return f;
}
LogField LogKV(const char* key, double value) {
  LogField f = MakeField(key, LogField::Kind::kDouble);
  f.double_value = value;
  return f;
}
LogField LogKV(const char* key, const char* value) {
  LogField f = MakeField(key, LogField::Kind::kString);
  f.string_value = value;
  return f;
}
LogField LogKV(const char* key, const std::string& value) {
  LogField f = MakeField(key, LogField::Kind::kString);
  f.string_value = value;
  return f;
}

// ---- Formatting -------------------------------------------------------------

std::string FormatLogRecordText(const LogRecord& record) {
  char head[128];
  std::snprintf(head, sizeof(head), "[%s %.6f %s:%d tid=%llu",
                SeverityName(record.severity), record.seconds, record.file,
                record.line,
                static_cast<unsigned long long>(record.thread_id));
  std::string out = head;
  if (record.trace_id != 0) {
    out += " trace=" + std::to_string(record.trace_id);
  }
  out += "] ";
  out += record.message;
  for (const LogField& field : record.fields) {
    out += ' ';
    out += field.key;
    out += '=';
    out += FieldValueText(field);
  }
  if (record.suppressed > 0) {
    out += " (suppressed " + std::to_string(record.suppressed) + ")";
  }
  return out;
}

std::string FormatLogRecordJson(const LogRecord& record) {
  char buf[64];
  std::string out = "{\"ts\":";
  std::snprintf(buf, sizeof(buf), "%.6f", record.seconds);
  out += buf;
  out += ",\"severity\":\"";
  out += SeverityName(record.severity);
  out += "\",\"file\":\"";
  AppendJsonEscaped(record.file, &out);
  out += "\",\"line\":" + std::to_string(record.line);
  out += ",\"tid\":" + std::to_string(record.thread_id);
  if (record.trace_id != 0) {
    out += ",\"trace\":" + std::to_string(record.trace_id);
  }
  if (record.suppressed > 0) {
    out += ",\"suppressed\":" + std::to_string(record.suppressed);
  }
  out += ",\"msg\":\"";
  AppendJsonEscaped(record.message, &out);
  out += '"';
  if (!record.fields.empty()) {
    out += ",\"fields\":{";
    for (size_t i = 0; i < record.fields.size(); ++i) {
      if (i > 0) out += ',';
      out += '"';
      AppendJsonEscaped(record.fields[i].key, &out);
      out += "\":";
      AppendFieldValueJson(record.fields[i], &out);
    }
    out += '}';
  }
  out += '}';
  return out;
}

// ---- Sinks ------------------------------------------------------------------

void AddLogSink(LogSink* sink) {
  if (sink == nullptr) return;
  std::lock_guard<std::mutex> lock(SinkMutex());
  Sinks().push_back(sink);
}

void RemoveLogSink(LogSink* sink) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  auto& sinks = Sinks();
  sinks.erase(std::remove(sinks.begin(), sinks.end(), sink), sinks.end());
}

void SetStderrLogFormat(LogFormat format) {
  StderrFormat().store(static_cast<int>(format), std::memory_order_relaxed);
}

void SetFatalLogHandler(std::function<void()> handler) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  FatalHandler() = std::move(handler);
}

// ---- Trace context ----------------------------------------------------------

uint64_t CurrentLogTraceId() { return t_log_trace_id; }

ScopedLogTraceId::ScopedLogTraceId(uint64_t trace_id)
    : previous_(t_log_trace_id) {
  t_log_trace_id = trace_id;
}

ScopedLogTraceId::~ScopedLogTraceId() { t_log_trace_id = previous_; }

// ---- Rate limiting ----------------------------------------------------------

LogEveryNState::Sampled LogEveryNState::Sample(uint64_t n) {
  if (n <= 1) return Sampled{true, 0};
  const uint64_t count = count_.fetch_add(1, std::memory_order_relaxed);
  Sampled sampled;
  sampled.emit = (count % n) == 0;
  sampled.suppressed = (sampled.emit && count > 0) ? n - 1 : 0;
  return sampled;
}

LogTokenBucket::LogTokenBucket(double tokens_per_second, double burst)
    : rate_(tokens_per_second > 0 ? tokens_per_second : 1.0),
      burst_(burst >= 1 ? burst : 1.0),
      tokens_(burst_) {}

LogEveryNState::Sampled LogTokenBucket::Sample() {
  const double now = LogNowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  if (!primed_) {
    primed_ = true;
    last_seconds_ = now;
  }
  const double elapsed = now - last_seconds_;
  if (elapsed > 0) {
    tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
    last_seconds_ = now;
  }
  LogEveryNState::Sampled sampled;
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    sampled.emit = true;
    sampled.suppressed = suppressed_;
    suppressed_ = 0;
  } else {
    ++suppressed_;
  }
  return sampled;
}

// ---- LogMessage -------------------------------------------------------------

LogMessage::LogMessage(LogSeverity severity, const char* file, int line) {
  record_.severity = severity;
  record_.seconds = LogNowSeconds();
  record_.thread_id = LogThreadId();
  record_.trace_id = t_log_trace_id;
  const char* base = std::strrchr(file, '/');
  record_.file = base != nullptr ? base + 1 : file;
  record_.line = line;
}

LogMessage::~LogMessage() {
  record_.message = stream_.str();
  record_.sequence =
      g_log_sequence.fetch_add(1, std::memory_order_relaxed) + 1;

  // Every record lands in the bounded process ring — the flight recorder's
  // evidence tail — regardless of sink registration.
  obs::GlobalLogRing().Append(record_);

  // Fan out: registered sinks replace the built-in stderr output (tests
  // capture records without stderr noise); with none registered, stderr
  // renders text or JSON lines.
  std::vector<LogSink*> sinks;
  {
    std::lock_guard<std::mutex> lock(SinkMutex());
    sinks = Sinks();
  }
  if (!sinks.empty()) {
    for (LogSink* sink : sinks) sink->Send(record_);
  } else {
    const LogFormat format = static_cast<LogFormat>(
        StderrFormat().load(std::memory_order_relaxed));
    const std::string line = format == LogFormat::kJson
                                 ? FormatLogRecordJson(record_)
                                 : FormatLogRecordText(record_);
    std::lock_guard<std::mutex> lock(StderrMutex());
    std::cerr << line << std::endl;
  }

  if (record_.severity == LogSeverity::kFatal) {
    // Invoke the fatal handler (flight-recorder dump) at most once per
    // process; a CF_CHECK failing *inside* the dump must fall through to
    // abort instead of recursing.
    static std::atomic<bool> fatal_handled{false};
    if (!fatal_handled.exchange(true)) {
      std::function<void()> handler;
      {
        std::lock_guard<std::mutex> lock(SinkMutex());
        handler = FatalHandler();
      }
      if (handler) handler();
    }
    std::abort();
  }
}

}  // namespace causalformer
