#include "interpret/gradient_modulation.h"

#include <cmath>

#include "util/logging.h"

namespace causalformer {
namespace interpret {

Tensor ModulateByGradient(const Tensor& relevance, const Tensor& gradient) {
  CF_CHECK(relevance.defined());
  CF_CHECK(gradient.defined());
  CF_CHECK(relevance.shape() == gradient.shape())
      << "relevance " << relevance.shape().ToString() << " vs gradient "
      << gradient.shape().ToString();
  Tensor out = Tensor::Zeros(relevance.shape());
  const float* pr = relevance.data();
  const float* pg = gradient.data();
  float* po = out.data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) {
    const float v = std::fabs(pg[i]) * pr[i];
    po[i] = v > 0.0f ? v : 0.0f;
  }
  return out;
}

Tensor AbsGradientScore(const Tensor& gradient) {
  CF_CHECK(gradient.defined());
  Tensor out = Tensor::Zeros(gradient.shape());
  const float* pg = gradient.data();
  float* po = out.data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = std::fabs(pg[i]);
  return out;
}

Tensor RectifiedRelevanceScore(const Tensor& relevance) {
  CF_CHECK(relevance.defined());
  Tensor out = Tensor::Zeros(relevance.shape());
  const float* pr = relevance.data();
  float* po = out.data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) {
    po[i] = pr[i] > 0.0f ? pr[i] : 0.0f;
  }
  return out;
}

}  // namespace interpret
}  // namespace causalformer
