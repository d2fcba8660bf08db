#include "obs/trace.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace causalformer {
namespace obs {

namespace {

thread_local PhaseCollector* t_collector = nullptr;

void AddPhaseTo(std::vector<std::pair<std::string, double>>* phases,
                const std::string& name, double seconds) {
  for (auto& [phase, total] : *phases) {
    if (phase == name) {
      total += seconds;
      return;
    }
  }
  phases->emplace_back(name, seconds);
}

}  // namespace

// ---- Trace ------------------------------------------------------------------

Trace::Trace(uint64_t id, Clock clock, const std::string& first_span)
    : id_(id), clock_(std::move(clock)) {
  // A Detect records four spans (decode, enqueue, execute, encode): room for
  // them up front, so the vector is not regrown per request.
  spans_.reserve(4);
  const double now = clock_.Now();
  spans_.push_back(TraceSpan{first_span, now, now});
}

void Trace::StartSpan(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const double now = clock_.Now();
  if (open_ && !spans_.empty()) spans_.back().end = now;
  spans_.push_back(TraceSpan{name, now, now});
  open_ = true;
}

void Trace::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_ && !spans_.empty()) spans_.back().end = clock_.Now();
  open_ = false;
}

void Trace::AddPhase(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  AddPhaseTo(&phases_, name, seconds);
}

void Trace::SetLeader(uint64_t leader_id) {
  std::lock_guard<std::mutex> lock(mu_);
  leader_id_ = leader_id;
}

uint64_t Trace::leader_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leader_id_;
}

std::vector<TraceSpan> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::pair<std::string, double>> Trace::phases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phases_;
}

double Trace::DurationSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.empty()) return 0;
  return spans_.back().end - spans_.front().start;
}

std::string Trace::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "trace id=" << id_;
  if (leader_id_ != 0) out << " leader=" << leader_id_;
  if (!spans_.empty()) {
    out << " total_ms="
        << (spans_.back().end - spans_.front().start) * 1e3;
  }
  out << " spans=[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (i > 0) out << " ";
    out << spans_[i].name << "="
        << (spans_[i].end - spans_[i].start) * 1e3 << "ms";
  }
  out << "]";
  if (!phases_.empty()) {
    out << " phases=[";
    for (size_t i = 0; i < phases_.size(); ++i) {
      if (i > 0) out << " ";
      out << phases_[i].first << "=" << phases_[i].second * 1e3 << "ms";
    }
    out << "]";
  }
  return out.str();
}

// ---- TraceRing --------------------------------------------------------------

TraceRing::TraceRing(size_t capacity, double slow_threshold_seconds)
    : capacity_(std::max<size_t>(capacity, 1)),
      slow_threshold_(slow_threshold_seconds) {}

void TraceRing::Add(std::shared_ptr<const Trace> trace) {
  if (trace == nullptr) return;
  const bool slow =
      slow_threshold_ > 0 && trace->DurationSeconds() > slow_threshold_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.push_back(trace);
    ++total_added_;
    while (ring_.size() > capacity_) ring_.pop_front();
  }
  if (slow) {
    // Log and fire the slow hook *outside* mu_: the hook is typically the
    // flight recorder's dump trigger, which snapshots this very ring.
    ScopedLogTraceId scope(trace->id());
    CF_LOG(kWarning) << "slow request: " << trace->ToString()
                     << LogKV("threshold_ms", slow_threshold_ * 1e3)
                     << LogKV("total_ms", trace->DurationSeconds() * 1e3);
    std::function<void(const Trace&)> hook;
    {
      std::lock_guard<std::mutex> lock(hook_mu_);
      hook = slow_hook_;
    }
    if (hook) hook(*trace);
  }
}

void TraceRing::SetSlowTraceHook(std::function<void(const Trace&)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  slow_hook_ = std::move(hook);
}

std::vector<std::shared_ptr<const Trace>> TraceRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::shared_ptr<const Trace>>(ring_.begin(),
                                                   ring_.end());
}

uint64_t TraceRing::total_added() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_added_;
}

// ---- PhaseCollector ---------------------------------------------------------

PhaseCollector::PhaseCollector(Clock clock) : clock_(std::move(clock)) {}

PhaseCollector* PhaseCollector::Current() { return t_collector; }

void PhaseCollector::Add(const char* name, double seconds) {
  AddPhaseTo(&phases_, name, seconds);
}

ScopedPhaseCollector::ScopedPhaseCollector(PhaseCollector* collector)
    : previous_(t_collector) {
  t_collector = collector;
}

ScopedPhaseCollector::~ScopedPhaseCollector() { t_collector = previous_; }

}  // namespace obs
}  // namespace causalformer
