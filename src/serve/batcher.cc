#include "serve/batcher.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "obs/profiler.h"
#include "util/logging.h"

namespace causalformer {
namespace serve {

namespace {

DiscoveryResponse Rejection(Status status) {
  DiscoveryResponse response;
  response.status = std::move(status);
  return response;
}

}  // namespace

size_t MicroBatcher::ShapeKeyHash::operator()(const ShapeKey& key) const {
  size_t h = std::hash<const void*>()(key.model);
  h ^= std::hash<int64_t>()(key.n) + 0x9E3779B97F4A7C15ULL + (h << 6);
  h ^= std::hash<int64_t>()(key.t) + 0x9E3779B97F4A7C15ULL + (h << 6);
  h ^= std::hash<std::string>()(key.name) + (h >> 2);
  h ^= std::hash<std::string_view>()(key.options.view()) + (h << 3);
  return h;
}

MicroBatcher::MicroBatcher(const BatcherOptions& options, ExecuteFn execute)
    : options_(options), execute_(std::move(execute)) {
  CF_CHECK_GT(options_.max_batch_requests, 0);
  CF_CHECK_GT(options_.max_batch_windows, 0);
  CF_CHECK_GT(options_.max_in_flight_batches, 0);
  CF_CHECK(execute_ != nullptr);
  stats_.in_flight_limit = options_.max_in_flight_batches;
  executors_.reserve(options_.max_in_flight_batches);
  for (int i = 0; i < options_.max_in_flight_batches; ++i) {
    const std::string name = "cf-exec-" + std::to_string(i);
    executors_.emplace_back([this, name] {
      obs::RegisterProfilingThread(name.c_str());
      ExecutorLoop();
    });
  }
}

MicroBatcher::~MicroBatcher() {
  std::vector<BatchItem> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    orphans.reserve(queued_);
    for (auto& [shape, bucket] : buckets_) {
      while (!bucket.empty()) {
        orphans.push_back(std::move(bucket.front()));
        bucket.pop_front();
      }
    }
    buckets_.clear();
    queued_ = 0;
  }
  work_cv_.notify_all();
  // Joining the executors is the in-flight barrier: each finishes its current
  // batch (resolving its items) before exiting.
  for (auto& executor : executors_) executor.join();
  for (auto& item : orphans) {
    item.done(Rejection(Status::FailedPrecondition("batcher shutting down")));
  }
}

void MicroBatcher::Submit(DiscoveryRequest request, CacheKey key,
                          std::shared_ptr<const core::CausalityTransformer> model,
                          DiscoveryCallback done) {
  BatchItem item;
  item.request = std::move(request);
  item.key = std::move(key);
  item.model = std::move(model);
  item.done = std::move(done);
  Status rejection;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      ++stats_.rejected;
      rejection = Status::FailedPrecondition("batcher shutting down");
    } else if (queued_ >= options_.max_queue) {
      ++stats_.rejected;
      rejection = Status::FailedPrecondition(
          "request queue full (" + std::to_string(options_.max_queue) + ")");
    } else {
      ++stats_.requests;
      item.seq = next_seq_++;
      ShapeKey shape;
      shape.model = item.model.get();
      shape.n = item.request.windows.dim(1);
      shape.t = item.request.windows.dim(2);
      shape.name = item.request.model;
      shape.options = item.key.options;
      buckets_[std::move(shape)].push_back(std::move(item));
      ++queued_;
    }
  }
  if (!rejection.ok()) {
    // Overload evidence, throttled so a rejection storm costs one line per
    // second instead of one per dropped request.
    CF_LOG_THROTTLED(kWarning, 1.0, 5.0)
        << "batcher rejected request: " << rejection.message()
        << LogKV("model", item.request.model.c_str())
        << LogKV("max_queue", static_cast<unsigned long long>(
                     options_.max_queue));
    // Call back outside mu_ (matching the destructor's orphan drain): the
    // callbacks of the caller and any parked dedup followers may submit
    // again, and none of them should serialise against Submit/Collect.
    item.done(Rejection(std::move(rejection)));
    return;
  }
  work_cv_.notify_one();
}

void MicroBatcher::CollectBatchLocked(std::vector<BatchItem>* batch) {
  // Serve the bucket whose head request has waited longest: cross-bucket
  // FIFO, so a hot shape cannot starve a lone request of another shape.
  auto best = buckets_.end();
  for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
    if (best == buckets_.end() ||
        it->second.front().seq < best->second.front().seq) {
      best = it;
    }
  }
  CF_CHECK(best != buckets_.end());
  std::deque<BatchItem>& bucket = best->second;

  batch->push_back(std::move(bucket.front()));
  bucket.pop_front();
  int64_t windows_taken =
      std::min<int64_t>(batch->front().request.windows.dim(0),
                        batch->front().request.options.max_windows);
  // Every bucket entry is compatible by construction, so riders come
  // straight off the front — no compatibility scan over unrelated traffic.
  while (!bucket.empty() &&
         static_cast<int>(batch->size()) < options_.max_batch_requests) {
    const int64_t cost =
        std::min<int64_t>(bucket.front().request.windows.dim(0),
                          bucket.front().request.options.max_windows);
    if (windows_taken + cost > options_.max_batch_windows) break;
    batch->push_back(std::move(bucket.front()));
    bucket.pop_front();
    windows_taken += cost;
  }
  if (bucket.empty()) buckets_.erase(best);
  queued_ -= batch->size();

  ++stats_.batches;
  stats_.max_batch =
      std::max(stats_.max_batch, static_cast<int>(batch->size()));
  if (batch->size() > 1) stats_.coalesced += batch->size();
}

void MicroBatcher::ExecutorLoop() {
  // One batch vector for the executor's life, sized once outside mu_: a
  // dispatch under the lock only moves items into it.
  std::vector<BatchItem> batch;
  batch.reserve(static_cast<size_t>(options_.max_batch_requests));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      // While every executor is inside execute_, requests pile into their
      // buckets — that is the coalescing lever.
      work_cv_.wait(lock, [this] { return shutdown_ || queued_ > 0; });
      if (shutdown_) return;
      CollectBatchLocked(&batch);
    }
    execute_(batch);
    batch.clear();  // the items die here, on the executor thread
  }
}

MicroBatcher::Stats MicroBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.shape_buckets = static_cast<int>(buckets_.size());
  return s;
}

}  // namespace serve
}  // namespace causalformer
