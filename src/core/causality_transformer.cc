#include "core/causality_transformer.h"

#include <cmath>

#include "core/causal_attention.h"
#include "core/causal_conv.h"
#include "nn/init.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace causalformer {
namespace core {

CausalityTransformer::CausalityTransformer(const ModelOptions& options,
                                           Rng* rng)
    : options_(options),
      ffn1_(options.window, options.d_ffn, rng),
      ffn2_(options.d_ffn, options.window, rng),
      output_(options.window, options.window, rng) {
  CF_CHECK_GT(options_.num_series, 0);
  CF_CHECK_GT(options_.window, 1);
  CF_CHECK_GT(options_.heads, 0);
  CF_CHECK_GT(options_.tau, 0.0f);
  const int64_t n = options_.num_series;
  const int64_t t = options_.window;
  const int64_t d = options_.d_model;

  w_emb_ = RegisterParameter("w_emb", nn::HeNormal(Shape{t, d}, t, rng));
  b_emb_ = RegisterParameter("b_emb", Tensor::Zeros(Shape{d}));
  for (int64_t h = 0; h < options_.heads; ++h) {
    const std::string suffix = std::to_string(h);
    w_q_.push_back(RegisterParameter(
        "w_q" + suffix, nn::HeNormal(Shape{d, options_.d_qk}, d, rng)));
    b_q_.push_back(
        RegisterParameter("b_q" + suffix, Tensor::Zeros(Shape{options_.d_qk})));
    w_k_.push_back(RegisterParameter(
        "w_k" + suffix, nn::HeNormal(Shape{d, options_.d_qk}, d, rng)));
    b_k_.push_back(
        RegisterParameter("b_k" + suffix, Tensor::Zeros(Shape{options_.d_qk})));
  }
  mask_ = RegisterParameter("mask", Tensor::Ones(Shape{n, n}));
  const int64_t kernel_targets = options_.multi_kernel ? n : 1;
  kernel_ = RegisterParameter(
      "kernel", nn::HeNormal(Shape{n, kernel_targets, t}, t, rng));
  w_o_ = RegisterParameter(
      "w_o", Tensor::Full(Shape{options_.heads},
                          1.0f / static_cast<float>(options_.heads)));
  RegisterModule("ffn1", &ffn1_);
  RegisterModule("ffn2", &ffn2_);
  RegisterModule("output", &output_);
}

ForwardResult CausalityTransformer::Forward(const Tensor& x) const {
  CF_CHECK_EQ(x.ndim(), 3) << "expected [B, N, T]";
  CF_CHECK_EQ(x.dim(1), options_.num_series);
  CF_CHECK_EQ(x.dim(2), options_.window);

  // Multi-kernel causal convolution (Eq. 3) + self right-shift (Eq. 4).
  Tensor conv = MultiKernelCausalConv(x, kernel_, !options_.multi_kernel);
  return ForwardFromConv(x, ShiftRightDiagonal(conv));
}

ForwardResult CausalityTransformer::ForwardGrouped(
    const Tensor& x, const std::vector<int>& row_groups,
    int num_groups) const {
  CF_CHECK_EQ(x.ndim(), 3) << "expected [B, N, T]";
  CF_CHECK_EQ(x.dim(1), options_.num_series);
  CF_CHECK_EQ(x.dim(2), options_.window);
  CF_CHECK_GT(num_groups, 0);

  // A shared [N, 1, T] kernel is broadcast across targets first, so each
  // target's kernel cotangent gets its own column instead of summing into
  // column 0. x * 1 keeps every bit of x (-0.0 included), so the convolution
  // sees the same values.
  Tensor kernel = kernel_;
  if (!options_.multi_kernel) {
    const int64_t n = options_.num_series;
    kernel = Mul(kernel_, Tensor::Ones(Shape{n, n, options_.window}));
  }
  const Tensor kernel_groups = TileBatch(kernel, num_groups);
  Tensor conv = GroupedMultiKernelCausalConv(x, kernel_groups, row_groups);
  ForwardResult result = ForwardFromConv(x, ShiftRightDiagonal(conv));
  result.kernel_groups = kernel_groups;
  return result;
}

ForwardResult CausalityTransformer::ForwardFromConv(const Tensor& x,
                                                    Tensor conv) const {
  ForwardResult result;
  result.conv = conv;

  // Time-series embedding (Eq. 2): X_emb = X W_emb + b_emb, used by Q/K only.
  const Tensor x_emb = Add(MatMul(x, w_emb_), b_emb_);  // [B, N, d]

  // Multi-variate causal attention (Eq. 5-6), h heads (Eq. 7).
  const float inv_scale =
      1.0f / (options_.tau * std::sqrt(static_cast<float>(options_.d_qk)));
  Tensor att;  // aggregated [B, N, T]
  result.attention.reserve(static_cast<size_t>(options_.heads));
  for (int64_t h = 0; h < options_.heads; ++h) {
    const Tensor q = Add(MatMul(x_emb, w_q_[h]), b_q_[h]);  // [B, N, d_qk]
    const Tensor k = Add(MatMul(x_emb, w_k_[h]), b_k_[h]);
    Tensor logits = Scale(MatMul(q, Transpose(k, 1, 2)), inv_scale);
    logits = Mul(logits, mask_);  // learnable mask M, broadcast over batch
    const Tensor a = Softmax(logits, /*axis=*/2);  // [B, N, N]
    result.attention.push_back(a);
    const Tensor head = AttentionCombine(a, conv);  // [B, N, T]
    const Tensor weighted = Mul(head, Slice(w_o_, 0, h, h + 1));
    att = att.defined() ? Add(att, weighted) : weighted;
  }

  // Feed-forward (Eq. 8) and output layer over the T axis.
  const Tensor ffn =
      ffn2_.Forward(LeakyRelu(ffn1_.Forward(att), options_.leaky_slope));
  result.prediction = output_.Forward(ffn);  // [B, N, T]
  return result;
}

Tensor CausalityTransformer::Loss(const ForwardResult& result, const Tensor& x,
                                  float lambda_k, float lambda_m) const {
  const int64_t t = options_.window;
  // Eq. (9): ignore the first slot (self-convolution shift makes it unfair).
  const Tensor pred = Slice(result.prediction, 2, 1, t);
  const Tensor target = Slice(x.requires_grad() ? x.Detach() : x, 2, 1, t);
  const Tensor mse =
      Scale(Sum(Square(Sub(pred, target))),
            1.0f / static_cast<float>(x.dim(0) * x.dim(1) * t));
  Tensor loss = mse;
  if (lambda_k > 0.0f) {
    if (options_.lag_penalty > 0.0f) {
      // Lag-weighted L1 (future-work extension): taps further in the past
      // (small tap index) cost more, nudging kernel mass toward short lags.
      Tensor weights = Tensor::Zeros(kernel_.shape());
      float* pw = weights.data();
      const int64_t per_pair = t;
      for (int64_t idx = 0; idx < weights.numel(); ++idx) {
        const int64_t tap = idx % per_pair;
        const float lag = static_cast<float>(t - 1 - tap);
        pw[idx] = 1.0f + options_.lag_penalty * lag;
      }
      loss = Add(loss, Scale(Sum(Mul(Abs(kernel_), weights)), lambda_k));
    } else {
      loss = Add(loss, Scale(L1Norm(kernel_), lambda_k));
    }
  }
  if (lambda_m > 0.0f) {
    loss = Add(loss, Scale(L1Norm(mask_), lambda_m));
  }
  return loss;
}

}  // namespace core
}  // namespace causalformer
