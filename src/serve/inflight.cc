#include "serve/inflight.h"

#include <utility>

namespace causalformer {
namespace serve {

namespace {

// The response a follower receives: the leader's outcome with the dedup
// markers set. The shared result pointer is copied, not cloned, so every
// follower reads the exact bytes the leader computed; the latency is the
// leader's (submit-to-completion of the work that actually ran).
DiscoveryResponse FollowerResponse(const DiscoveryResponse& leader) {
  DiscoveryResponse response = leader;
  response.deduped = true;
  response.cache_hit = false;
  return response;
}

}  // namespace

InFlightTable::~InFlightTable() {
  // Every leader resolves its entry through Complete() on success, rejection
  // and shutdown alike, so this loop is a failsafe: if an entry is somehow
  // still open, failing its followers beats never calling them.
  std::vector<DiscoveryCallback> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, entry] : index_) {
      entry->completed = true;
      for (auto& follower : entry->followers) {
        orphans.push_back(std::move(follower));
      }
      entry->followers.clear();
    }
    index_.clear();
  }
  DiscoveryResponse failure;
  failure.status = Status::FailedPrecondition("engine shutting down");
  failure.deduped = true;
  for (auto& orphan : orphans) orphan(failure);
}

std::shared_ptr<InFlightEntry> InFlightTable::Join(const CacheKey& key,
                                                   DiscoveryCallback* done,
                                                   obs::Trace* trace) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    auto entry = std::make_shared<InFlightEntry>();
    entry->key = key;
    entry->leader_trace_id = trace != nullptr ? trace->id() : 0;
    index_.emplace(key, entry);
    ++leaders_;
    return entry;
  }
  ++hits_;
  if (trace != nullptr) {
    // The follower's wait is the leader's remaining work; link the trace so
    // a slow deduped response names the run that actually executed. Marked
    // here, not by the caller, because the leader may resolve the follower
    // the moment the lock drops.
    trace->SetLeader(it->second->leader_trace_id);
    trace->StartSpan("dedup_wait");
  }
  it->second->followers.push_back(std::move(*done));
  return nullptr;
}

void InFlightTable::Complete(const std::shared_ptr<InFlightEntry>& entry,
                             const DiscoveryResponse& response) {
  if (entry == nullptr) return;
  std::vector<DiscoveryCallback> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->completed) return;
    entry->completed = true;
    followers = std::move(entry->followers);
    entry->followers.clear();
    // Erase by key only if this entry still owns the slot (it always does
    // today — completion is the only eraser — but a stale shared_ptr must
    // never evict a successor leader's entry).
    const auto it = index_.find(entry->key);
    if (it != index_.end() && it->second == entry) index_.erase(it);
    if (!response.status.ok()) {
      failed_fanins_ += static_cast<uint64_t>(followers.size());
    }
  }
  // Call outside the lock: a follower's callback may submit new work, which
  // joins this table again.
  if (followers.empty()) return;
  const DiscoveryResponse fanned = FollowerResponse(response);
  for (auto& follower : followers) follower(fanned);
}

InFlightTable::Stats InFlightTable::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.leaders = leaders_;
  s.hits = hits_;
  s.failed_fanins = failed_fanins_;
  s.in_flight = index_.size();
  return s;
}

}  // namespace serve
}  // namespace causalformer
