#include "serve/inference_engine.h"

#include <utility>

#include "core/detector.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace causalformer {
namespace serve {

namespace {

std::future<DiscoveryResponse> Ready(DiscoveryResponse response) {
  std::promise<DiscoveryResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

DiscoveryResponse ErrorResponse(Status status) {
  DiscoveryResponse response;
  response.status = std::move(status);
  return response;
}

}  // namespace

namespace {

ScoreCacheOptions CacheOptions(const EngineOptions& options) {
  ScoreCacheOptions cache;
  cache.capacity = options.cache_capacity;
  cache.ttl_seconds = options.cache_ttl_seconds;
  cache.clock_for_testing = options.cache_clock_for_testing;
  // One injected time source for everything: when the bundle carries a
  // scripted clock and no cache-specific hook was given, the TTL reads the
  // bundle's clock too (the real clock stays on the cheaper direct path).
  if (!cache.clock_for_testing && options.obs != nullptr &&
      options.obs->clock().is_scripted()) {
    obs::Observability* obs = options.obs;
    cache.clock_for_testing = [obs] { return obs->clock().Now(); };
  }
  return cache;
}

// The executor threads spawn inside the MicroBatcher's constructor, so the
// shard label must ride into BatcherOptions before the member initializer
// runs; profiles then attribute samples to `cf-exec-<shard>-<i>` lanes.
BatcherOptions BatcherOptionsFor(const EngineOptions& options) {
  BatcherOptions batcher = options.batcher;
  if (batcher.thread_label.empty()) {
    batcher.thread_label = options.metrics_shard_label;
  }
  return batcher;
}

}  // namespace

InferenceEngine::InferenceEngine(ModelRegistry* registry,
                                 const EngineOptions& options)
    : registry_(registry),
      options_(options),
      cache_(CacheOptions(options)),
      batcher_(BatcherOptionsFor(options),
               [this](std::vector<BatchItem> items) {
                 ExecuteBatch(std::move(items));
               }) {
  CF_CHECK(registry != nullptr);
  if (options_.obs != nullptr) {
    obs::MetricsRegistry& metrics = options_.obs->metrics();
    // A sharded engine splices its slot label into every series it owns, so
    // N shards sharing one bundle stay separable; unsharded engines (empty
    // label) keep the historical names byte-for-byte.
    const std::string& shard = options_.metrics_shard_label;
    const auto series = [&shard](const char* base) {
      return shard.empty() ? std::string(base)
                           : std::string(base) + "{shard=\"" + shard + "\"}";
    };
    const auto labeled = [&shard](std::string base_with_labels) {
      if (shard.empty()) return base_with_labels;
      base_with_labels.insert(base_with_labels.size() - 1,
                              ",shard=\"" + shard + "\"");
      return base_with_labels;
    };
    obs_.requests = metrics.GetCounter(series("serve_requests_total"));
    obs_.cache_hits = metrics.GetCounter(series("serve_cache_hits_total"));
    obs_.dedup_followers =
        metrics.GetCounter(series("serve_dedup_followers_total"));
    obs_.batches = metrics.GetCounter(series("serve_batches_total"));
    obs_.request_latency =
        metrics.GetHistogram(series("serve_request_latency_seconds"));
    obs_.queue_wait = metrics.GetHistogram(series("serve_queue_wait_seconds"));
    obs::HistogramOptions occupancy;
    occupancy.min_value = 1.0;  // batch sizes, not seconds
    occupancy.growth = 2.0;
    occupancy.num_buckets = 12;
    obs_.batch_occupancy =
        metrics.GetHistogram(series("serve_batch_occupancy"), occupancy);
    for (const char* phase : {"forward", "backward", "relevance", "cluster"}) {
      obs_.phase_hists.emplace_back(
          phase,
          metrics.GetHistogram(labeled(std::string("detect_phase_seconds{"
                                                   "phase=\"") +
                                       phase + "\"}")));
    }
    for (const char* kernel : {"matmul", "softmax"}) {
      obs_.phase_hists.emplace_back(
          std::string("kernel.") + kernel,
          metrics.GetHistogram(labeled(
              std::string("kernel_seconds{kernel=\"") + kernel + "\"}")));
    }
  }
}

EngineStats InferenceEngine::stats() const {
  EngineStats s;
  s.cache = cache_.stats();
  s.batcher = batcher_.stats();
  s.dedup = inflight_.stats();
  return s;
}

std::future<DiscoveryResponse> InferenceEngine::SubmitAsync(
    DiscoveryRequest request) {
  Stopwatch latency;
  // Any CF_LOG on the submit path below carries this request's trace id.
  ScopedLogTraceId log_trace(
      request.trace != nullptr ? request.trace->id() : 0);
  if (obs_.requests != nullptr) obs_.requests->Increment();
  if (!request.windows.defined() || request.windows.ndim() != 3 ||
      request.windows.dim(0) < 1) {
    return Ready(ErrorResponse(
        Status::InvalidArgument("windows must be a [B, N, T] batch, B >= 1")));
  }
  uint64_t generation = 0;
  const auto model = registry_->Get(request.model, &generation);
  if (model == nullptr) {
    return Ready(ErrorResponse(
        Status::NotFound("model '" + request.model + "' is not registered")));
  }
  const core::ModelOptions& mopt = model->options();
  if (request.windows.dim(1) != mopt.num_series ||
      request.windows.dim(2) != mopt.window) {
    return Ready(ErrorResponse(Status::InvalidArgument(
        "window geometry [" + std::to_string(request.windows.dim(1)) + ", " +
        std::to_string(request.windows.dim(2)) + "] does not match model [" +
        std::to_string(mopt.num_series) + ", " + std::to_string(mopt.window) +
        "]")));
  }
  // Detector options come from the wire too; anything the detector would
  // CF_CHECK must be rejected here, or one bad request aborts the service.
  const core::DetectorOptions& dopt = request.options;
  if (dopt.max_windows < 1 || dopt.num_clusters < 1 || dopt.top_clusters < 1 ||
      dopt.top_clusters > dopt.num_clusters || !(dopt.epsilon > 0.0f)) {
    return Ready(ErrorResponse(Status::InvalidArgument(
        "invalid detector options: require max_windows >= 1, "
        "1 <= top_clusters <= num_clusters, epsilon > 0")));
  }

  CacheKey key;
  key.model = request.model;
  // A streaming caller that hashed the window incrementally (per-column
  // digests) hands the hash in; everyone else pays the full content hash.
  key.windows = request.has_window_hash ? request.window_hash
                                        : HashWindows(request.windows);
  key.options = EncodeDetectorOptions(request.options);
  key.generation = generation;

  if (auto cached = cache_.Get(key)) {
    if (request.trace != nullptr) request.trace->StartSpan("cache_hit");
    DiscoveryResponse response;
    response.result = std::move(cached);
    response.cache_hit = true;
    response.latency_seconds = latency.ElapsedSeconds();
    if (obs_.cache_hits != nullptr) obs_.cache_hits->Increment();
    if (obs_.request_latency != nullptr) {
      obs_.request_latency->Record(response.latency_seconds);
    }
    return Ready(std::move(response));
  }
  if (options_.dedup_in_flight) {
    // An identical query (same generation, window hash, options) already in
    // flight makes this caller a follower: park on the leader's entry and
    // share its result — error, cancellation and hot-swap outcomes included.
    InFlightTicket ticket = inflight_.Join(
        key, request.trace != nullptr ? request.trace->id() : 0);
    if (!ticket.leader) {
      if (obs_.dedup_followers != nullptr) obs_.dedup_followers->Increment();
      if (request.trace != nullptr) {
        // The follower's wait is the leader's remaining work; link the trace
        // so a slow deduped response names the run that actually executed.
        request.trace->SetLeader(ticket.leader_trace_id);
        request.trace->StartSpan("dedup_wait");
      }
      return std::move(ticket.follower);
    }
    if (request.trace != nullptr) request.trace->StartSpan("enqueue");
    return batcher_.Submit(std::move(request), std::move(key), model,
                           &inflight_, std::move(ticket.entry));
  }
  if (request.trace != nullptr) request.trace->StartSpan("enqueue");
  return batcher_.Submit(std::move(request), std::move(key), model);
}

Status InferenceEngine::UnloadModel(const std::string& name) {
  CF_RETURN_IF_ERROR(registry_->Unload(name));
  cache_.EraseModel(name);
  return Status::Ok();
}

void InferenceEngine::ExecuteBatch(std::vector<BatchItem> items) {
  CF_CHECK(!items.empty());
  // Run on the handle pinned at submit, never a by-name re-resolve: a
  // same-name hot-swap to a different architecture while requests were queued
  // must not reach the detector's geometry CF_CHECKs (one mismatched batch
  // would abort the whole service), and an unload must not fail queries that
  // were already validated.
  const auto model = items.front().model;
  CF_CHECK(model != nullptr);

  bool any_trace = false;
  uint64_t leader_trace_id = 0;
  for (auto& item : items) {
    if (item.request.trace != nullptr) {
      item.request.trace->StartSpan("execute");
      if (leader_trace_id == 0) leader_trace_id = item.request.trace->id();
      any_trace = true;
    }
    if (obs_.queue_wait != nullptr) {
      obs_.queue_wait->Record(item.since_submit.ElapsedSeconds());
    }
  }
  // Logs emitted while the batch executes (detector internals, CF_CHECK
  // context) attribute to the batch's first traced request.
  ScopedLogTraceId log_trace(leader_trace_id);

  // Before the detect, so a test hook can hold this batch mid-execution.
  if (options_.detect_observer_for_testing) {
    for (const auto& item : items) {
      options_.detect_observer_for_testing(item.key);
    }
  }

  std::vector<Tensor> window_batches;
  window_batches.reserve(items.size());
  for (const auto& item : items) window_batches.push_back(item.request.windows);

  // Collect per-phase detector/kernel timings only when someone will read
  // them; with no collector installed every ScopedPhaseTimer below the
  // detector is one thread-local read and zero clock accesses.
  const bool collect_phases = options_.obs != nullptr || any_trace;
  obs::PhaseCollector collector(options_.obs != nullptr ? options_.obs->clock()
                                                        : obs::Clock());
  // Kernel timers fire per tensor op — sample them (kKernelSampleStride)
  // so most batches skip those clock reads entirely. Phase timers (four per
  // batch) stay always-on, keeping trace attribution exact. Traces never
  // carry kernel entries, so a trace-only batch needs no kernel collection.
  collector.set_collect_kernels(
      options_.obs != nullptr &&
      kernel_sample_seq_.fetch_add(1, std::memory_order_relaxed) %
              kKernelSampleStride ==
          0);
  std::vector<core::DetectionResult> results;
  {
    obs::ScopedPhaseCollector install(collect_phases ? &collector : nullptr);
    results = core::DetectCausalGraphBatched(*model, window_batches,
                                             items.front().request.options);
  }
  CF_CHECK_EQ(results.size(), items.size());

  if (collect_phases) {
    for (const auto& [name, seconds] : collector.phases()) {
      // Kernel timers ("kernel.matmul") nest inside detector phases; they go
      // to histograms only, never into traces, so a trace's phase totals stay
      // a disjoint decomposition of its execute span.
      const bool is_kernel = name.rfind("kernel.", 0) == 0;
      if (options_.obs != nullptr) {
        obs::Histogram* hist = nullptr;
        for (const auto& [known, handle] : obs_.phase_hists) {
          if (known == name) {
            hist = handle;
            break;
          }
        }
        if (hist == nullptr) {  // a phase the catalog doesn't pre-resolve
          const std::string series =
              is_kernel
                  ? "kernel_seconds{kernel=\"" + name.substr(7) + "\"}"
                  : "detect_phase_seconds{phase=\"" + name + "\"}";
          hist = options_.obs->metrics().GetHistogram(series);
        }
        hist->Record(seconds);
      }
      if (is_kernel) continue;
      for (auto& item : items) {
        if (item.request.trace != nullptr) {
          item.request.trace->AddPhase(name, seconds);
        }
      }
    }
  }

  if (obs_.batches != nullptr) obs_.batches->Increment();
  if (obs_.batch_occupancy != nullptr) {
    obs_.batch_occupancy->Record(static_cast<double>(items.size()));
  }

  for (size_t i = 0; i < items.size(); ++i) {
    auto shared =
        std::make_shared<const core::DetectionResult>(std::move(results[i]));
    // Cache fill before Resolve: once followers (and the leader) see the
    // result, any brand-new identical query must already find it cached.
    cache_.Put(items[i].key, shared);
    DiscoveryResponse response;
    response.result = std::move(shared);
    response.batch_size = static_cast<int>(items.size());
    response.latency_seconds = items[i].since_submit.ElapsedSeconds();
    if (obs_.request_latency != nullptr) {
      obs_.request_latency->Record(response.latency_seconds);
    }
    items[i].Resolve(std::move(response));
  }
}

}  // namespace serve
}  // namespace causalformer
