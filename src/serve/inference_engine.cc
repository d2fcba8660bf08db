#include "serve/inference_engine.h"

#include <utility>

#include "core/detector.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace causalformer {
namespace serve {

namespace {

DiscoveryResponse ErrorResponse(Status status) {
  DiscoveryResponse response;
  response.status = std::move(status);
  return response;
}

ScoreCacheOptions CacheOptions(const EngineOptions& options) {
  ScoreCacheOptions cache;
  cache.capacity = options.cache_capacity;
  cache.ttl_seconds = options.cache_ttl_seconds;
  if (options.obs != nullptr) cache.clock = options.obs->clock();
  return cache;
}

}  // namespace

InferenceEngine::InferenceEngine(ModelRegistry* registry,
                                 const EngineOptions& options)
    : registry_(registry),
      options_(options),
      cache_(CacheOptions(options)),
      batcher_(options.batcher,
               [this](std::vector<BatchItem>& items) { ExecuteBatch(items); }) {
  CF_CHECK(registry != nullptr);
  if (options_.obs != nullptr) {
    obs::MetricsRegistry& metrics = options_.obs->metrics();
    obs_.requests = metrics.GetCounter("serve_requests_total");
    obs_.cache_hits = metrics.GetCounter("serve_cache_hits_total");
    obs_.dedup_followers = metrics.GetCounter("serve_dedup_followers_total");
    obs_.batches = metrics.GetCounter("serve_batches_total");
    obs_.request_latency =
        metrics.GetHistogram("serve_request_latency_seconds");
    obs_.queue_wait = metrics.GetHistogram("serve_queue_wait_seconds");
    obs::HistogramOptions occupancy;
    occupancy.min_value = 1.0;  // batch sizes, not seconds
    occupancy.growth = 2.0;
    occupancy.num_buckets = 12;
    obs_.batch_occupancy =
        metrics.GetHistogram("serve_batch_occupancy", occupancy);
    for (const char* phase : {"forward", "backward", "relevance", "cluster"}) {
      const std::string series =
          std::string("detect_phase_seconds{phase=\"") + phase + "\"}";
      obs_.phase_hists.emplace_back(phase, metrics.GetHistogram(series));
    }
    for (const char* kernel : {"matmul", "softmax"}) {
      const std::string series =
          std::string("kernel_seconds{kernel=\"") + kernel + "\"}";
      obs_.phase_hists.emplace_back(std::string("kernel.") + kernel,
                                    metrics.GetHistogram(series));
    }
  }
}

EngineStats InferenceEngine::stats() const {
  EngineStats s;
  s.cache = cache_.stats();
  s.batcher = batcher_.stats();
  return s;
}

std::future<DiscoveryResponse> InferenceEngine::SubmitAsync(
    DiscoveryRequest request) {
  auto promise = std::make_shared<std::promise<DiscoveryResponse>>();
  std::future<DiscoveryResponse> future = promise->get_future();
  Submit(std::move(request), [promise](DiscoveryResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void InferenceEngine::Submit(DiscoveryRequest request, DiscoveryCallback done) {
  Stopwatch latency;
  // Any CF_LOG on the submit path below carries this request's trace id.
  ScopedLogTraceId log_trace(
      request.trace != nullptr ? request.trace->id() : 0);
  if (obs_.requests != nullptr) obs_.requests->Increment();
  if (!request.windows.defined() || request.windows.ndim() != 3 ||
      request.windows.dim(0) < 1) {
    done(ErrorResponse(
        Status::InvalidArgument("windows must be a [B, N, T] batch, B >= 1")));
    return;
  }
  uint64_t generation = 0;
  const auto model = registry_->Get(request.model, &generation);
  if (model == nullptr) {
    done(ErrorResponse(
        Status::NotFound("model '" + request.model + "' is not registered")));
    return;
  }
  const core::ModelOptions& mopt = model->options();
  if (request.windows.dim(1) != mopt.num_series ||
      request.windows.dim(2) != mopt.window) {
    done(ErrorResponse(Status::InvalidArgument(
        "window geometry [" + std::to_string(request.windows.dim(1)) + ", " +
        std::to_string(request.windows.dim(2)) + "] does not match model [" +
        std::to_string(mopt.num_series) + ", " + std::to_string(mopt.window) +
        "]")));
    return;
  }
  // Detector options come from the wire too; anything the detector would
  // CF_CHECK must be rejected here, or one bad request aborts the service.
  const core::DetectorOptions& dopt = request.options;
  if (dopt.max_windows < 1 || dopt.num_clusters < 1 || dopt.top_clusters < 1 ||
      dopt.top_clusters > dopt.num_clusters || !(dopt.epsilon > 0.0f)) {
    done(ErrorResponse(Status::InvalidArgument(
        "invalid detector options: require max_windows >= 1, "
        "1 <= top_clusters <= num_clusters, epsilon > 0")));
    return;
  }

  CacheKey key;
  key.model = request.model;
  // A streaming caller that hashed the window incrementally (per-column
  // digests) hands the hash in; everyone else pays the full content hash.
  key.windows = request.has_window_hash ? request.window_hash
                                        : HashWindows(request.windows);
  key.options = EncodeDetectorOptions(request.options);
  key.generation = generation;

  // One lookup decides the query's role: answered from a cached result, a
  // follower parked on an identical running query (sharing its result —
  // error, cancellation and hot-swap outcomes included), or the leader.
  ScoreCache::Joined joined = cache_.Join(key, &done, request.trace.get());
  if (joined.cached != nullptr) {
    if (request.trace != nullptr) request.trace->StartSpan("cache_hit");
    DiscoveryResponse response;
    response.result = std::move(joined.cached);
    response.cache_hit = true;
    response.latency_seconds = latency.ElapsedSeconds();
    if (obs_.cache_hits != nullptr) obs_.cache_hits->Increment();
    if (obs_.request_latency != nullptr) {
      obs_.request_latency->Record(response.latency_seconds);
    }
    done(std::move(response));
    return;
  }
  if (joined.lead == 0) {
    if (obs_.dedup_followers != nullptr) obs_.dedup_followers->Increment();
    return;
  }
  // Whoever resolves the leader (executor, rejection, shutdown drain)
  // completes its entry first, caching the result and calling the parked
  // followers: a follower must never observe its leader done while the entry
  // is still running.
  done = [this, key, lead = joined.lead,
          done = std::move(done)](DiscoveryResponse response) {
    cache_.Complete(key, lead, response);
    done(std::move(response));
  };
  if (request.trace != nullptr) request.trace->StartSpan("enqueue");
  batcher_.Submit(std::move(request), std::move(key), model, std::move(done));
}

Status InferenceEngine::UnloadModel(const std::string& name) {
  CF_RETURN_IF_ERROR(registry_->Unload(name));
  cache_.EraseModel(name);
  return Status::Ok();
}

void InferenceEngine::ExecuteBatch(std::vector<BatchItem>& items) {
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
    // The leader's callback caches the result before anyone sees it.
    DiscoveryResponse response;
    response.result =
        std::make_shared<const core::DetectionResult>(std::move(results[i]));
    response.batch_size = static_cast<int>(items.size());
    response.latency_seconds = items[i].since_submit.ElapsedSeconds();
    if (obs_.request_latency != nullptr) {
      obs_.request_latency->Record(response.latency_seconds);
    }
    items[i].done(std::move(response));
  }
}

}  // namespace serve
}  // namespace causalformer
