#include "core/detector.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "interpret/gradient_modulation.h"
#include "interpret/relevance.h"
#include "obs/trace.h"
#include "tensor/allocator.h"
#include "util/logging.h"

namespace causalformer {
namespace core {

namespace {

// Which of the two walks the ablation switches read: the gradient feeds every
// variant with use_gradient, relevance every variant but "w/o relevance".
bool NeedsGradient(const DetectorOptions& opts) { return opts.use_gradient; }
bool NeedsRelevance(const DetectorOptions& opts) {
  return opts.use_relevance || !opts.use_gradient;
}

// Combines relevance and gradient into a causal score tensor according to the
// ablation switches. Only the inputs the variant needs are read; an undefined
// one (the walk never reached the tensor) is treated as all-zero.
Tensor CombineScores(const Tensor& relevance, const Tensor& gradient,
                     const Shape& shape, const DetectorOptions& opts) {
  auto or_zeros = [&shape](const Tensor& t) {
    return t.defined() ? t : Tensor::Zeros(shape);
  };
  if (!NeedsRelevance(opts)) {
    return interpret::AbsGradientScore(or_zeros(gradient));
  }
  if (!NeedsGradient(opts)) {
    return interpret::RectifiedRelevanceScore(or_zeros(relevance));
  }
  return interpret::ModulateByGradient(or_zeros(relevance),
                                       or_zeros(gradient));
}

// Mean over batch rows [begin, end) of a [B, N, N] tensor -> out[N * N].
// Rows are summed in ascending order from zero so the result for a
// sub-range matches a standalone run over exactly those rows.
void BatchMeanMatrixRange(const Tensor& t, int64_t begin, int64_t end,
                          std::vector<double>* out) {
  const int64_t n = t.dim(1);
  out->assign(static_cast<size_t>(n) * n, 0.0);
  double* acc = out->data();
  const float* p = t.data();
  for (int64_t bi = begin; bi < end; ++bi) {
    for (int64_t k = 0; k < n * n; ++k) acc[k] += p[bi * n * n + k];
  }
  const double rows = static_cast<double>(end - begin);
  for (int64_t k = 0; k < n * n; ++k) acc[k] /= rows;
}

// Kernel tap index (0-based argmax over taps) -> delay (Eq. 20).
int DelayFromTap(int64_t window, int64_t tap, bool self_loop) {
  // Tap T-1-l multiplies lag l; self channels are right-shifted one slot.
  int delay = static_cast<int>(window - 1 - tap);
  if (self_loop) delay += 1;
  return delay;
}

}  // namespace

DetectionResult DetectCausalGraph(const CausalityTransformer& model,
                                  const Tensor& windows,
                                  const DetectorOptions& options) {
  // Single-request case of the batched detector: one implementation of the
  // Section-4.2 scoring, and this entry point inherits its re-entrancy (no
  // shared .grad buffers are touched).
  std::vector<DetectionResult> results =
      DetectCausalGraphBatched(model, {windows}, options);
  CF_CHECK_EQ(results.size(), 1u);
  return std::move(results[0]);
}

std::vector<DetectionResult> DetectCausalGraphBatched(
    const CausalityTransformer& model,
    const std::vector<Tensor>& window_batches,
    const DetectorOptions& options) {
  std::vector<DetectionResult> results;
  if (window_batches.empty()) return results;

  // Per-request tensors recur with the same geometries, so draw them from the
  // thread's arena: after the first request warms the size-class pools,
  // steady-state detection takes no tensor buffer from the heap. The tensor
  // objects come from the thread's tensor pool, and the walks keep their
  // values by plan step, so a warm detect allocates only per-batch
  // bookkeeping and the results (tests/alloc_budget_test.cc).
  ScopedAllocator arena_guard(DetectArena());

  const ModelOptions& mopt = model.options();
  const int n = static_cast<int>(mopt.num_series);
  const int64_t t_window = mopt.window;
  const int num_requests = static_cast<int>(window_batches.size());

  // Per request: truncate to the interpretation budget, then stack all
  // requests into one batch with a row -> request map.
  std::vector<int64_t> offsets(num_requests, 0);
  std::vector<int64_t> counts(num_requests, 0);
  int64_t total_rows = 0;
  for (int r = 0; r < num_requests; ++r) {
    const Tensor& w = window_batches[r];
    CF_CHECK_EQ(w.ndim(), 3) << "expected [B, N, T]";
    CF_CHECK_EQ(w.dim(1), n);
    CF_CHECK_EQ(w.dim(2), t_window);
    const int64_t use = std::min<int64_t>(w.dim(0), options.max_windows);
    CF_CHECK_GT(use, 0);
    offsets[r] = total_rows;
    counts[r] = use;
    total_rows += use;
  }
  std::vector<int> row_groups(static_cast<size_t>(total_rows));
  for (int r = 0; r < num_requests; ++r) {
    std::fill_n(row_groups.begin() + offsets[r], counts[r], r);
  }
  // Each request's first `use` windows, copied once into the batch.
  const int64_t window_floats = n * t_window;
  Tensor x = Tensor::Empty(Shape{total_rows, n, t_window});
  for (int r = 0; r < num_requests; ++r) {
    std::memcpy(x.data() + offsets[r] * window_floats,
                window_batches[r].data(),
                static_cast<size_t>(counts[r] * window_floats) * sizeof(float));
  }

  results.reserve(num_requests);
  for (int r = 0; r < num_requests; ++r) results.emplace_back(n);

  const ForwardResult fwd = [&] {
    obs::ScopedPhaseTimer timer("forward");
    return model.ForwardGrouped(x, row_groups, num_requests);
  }();

  // Causal scores per head S(A) ([B, N, N]) and for the kernels S(K)
  // ([G, N, N, T]); target i reads row i of each S(A) and column i of S(K).
  const size_t heads = fwd.attention.size();
  std::vector<double> mean;  // one request's batch mean of one head's S(A)
  auto add_head_scores = [&](const Tensor& s) {
    for (int r = 0; r < num_requests; ++r) {
      BatchMeanMatrixRange(s, offsets[r], offsets[r] + counts[r], &mean);
      for (int to = 0; to < n; ++to) {
        for (int from = 0; from < n; ++from) {
          results[r].scores.add(from, to,
                                mean[static_cast<size_t>(to) * n + from] /
                                    static_cast<double>(heads));
        }
      }
    }
  };
  Tensor score_k;
  if (!options.use_interpretation) {
    // Ablation "w/o interpretation": attention weights and raw |K| scores.
    for (const Tensor& a : fwd.attention) add_head_scores(a);
    score_k = interpret::AbsGradientScore(fwd.kernel_groups);
  } else {
    // Full detector: one all-ones seed stands for the one-hot seed of every
    // target at once. No live tape node mixes target series, so the walk
    // computes each target's row of A and column of K with the same
    // arithmetic as a walk seeded for that target alone. Each walk is skipped
    // when the ablation variant discards it; both read only A and K, so they
    // share one plan of the tape's live part.
    std::vector<Tensor> wanted;
    wanted.reserve(heads + 1);
    wanted.assign(fwd.attention.begin(), fwd.attention.end());
    wanted.push_back(fwd.kernel_groups);
    const WalkPlan plan = PlanWalk(fwd.prediction, wanted);
    const Tensor seed = Tensor::Ones(fwd.prediction.shape());
    GradientMap grads;
    if (NeedsGradient(options)) {
      obs::ScopedPhaseTimer timer("backward");
      grads = ComputeGradients(plan, seed);
    }
    interpret::RelevanceMap relevance;
    if (NeedsRelevance(options)) {
      obs::ScopedPhaseTimer timer("relevance");
      interpret::RelevanceOptions ropts;
      ropts.epsilon = options.epsilon;
      ropts.bias_absorption = options.bias_absorption;
      relevance = interpret::PropagateRelevance(plan, seed, ropts);
    }
    for (const Tensor& a : fwd.attention) {
      add_head_scores(CombineScores(interpret::RelevanceOf(relevance, a),
                                    GradientOf(grads, a), a.shape(),
                                    options));
    }
    score_k = CombineScores(
        interpret::RelevanceOf(relevance, fwd.kernel_groups),
        GradientOf(grads, fwd.kernel_groups), fwd.kernel_groups.shape(),
        options);
  }

  // Delays (Eq. 20) from the argmax tap of each request's kernel group.
  for (int r = 0; r < num_requests; ++r) {
    for (int from = 0; from < n; ++from) {
      for (int to = 0; to < n; ++to) {
        const float* taps =
            score_k.data() + ((static_cast<int64_t>(r) * n + from) * n + to) *
                                 t_window;
        int64_t best = 0;
        for (int64_t k = 1; k < t_window; ++k) {
          if (taps[k] > taps[best]) best = k;
        }
        results[r].delays[from][to] = DelayFromTap(t_window, best, from == to);
      }
    }
  }

  const ClusterSelectOptions copts{options.num_clusters, options.top_clusters};
  {
    obs::ScopedPhaseTimer timer("cluster");
    for (int r = 0; r < num_requests; ++r) {
      results[r].graph =
          GraphFromScores(results[r].scores, copts, &results[r].delays);
    }
  }
  return results;
}

}  // namespace core
}  // namespace causalformer
