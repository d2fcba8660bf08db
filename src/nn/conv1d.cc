#include "nn/conv1d.h"

#include "nn/init.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {
namespace nn {

Tensor CausalConv1d(const Tensor& x, const Tensor& weight, const Tensor& bias,
                    int64_t dilation, int64_t groups, bool shift_right) {
  CF_CHECK_EQ(x.ndim(), 3) << "CausalConv1d expects [B, C, T]";
  CF_CHECK_EQ(weight.ndim(), 3);
  const int64_t batch = x.dim(0);
  const int64_t c_in = x.dim(1);
  const int64_t steps = x.dim(2);
  const int64_t c_out = weight.dim(0);
  const int64_t c_in_per_group = weight.dim(1);
  const int64_t kernel = weight.dim(2);
  CF_CHECK_EQ(c_in % groups, 0);
  CF_CHECK_EQ(c_out % groups, 0);
  CF_CHECK_EQ(c_in / groups, c_in_per_group);
  const int64_t out_per_group = c_out / groups;
  // Total look-back of the most recent tap; 1 extra with shift_right.
  const int64_t shift = shift_right ? 1 : 0;

  Tensor out = Tensor::Zeros(Shape{batch, c_out, steps});
  {
    const float* px = x.data();
    const float* pw = weight.data();
    float* po = out.data();
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t oc = 0; oc < c_out; ++oc) {
        const int64_t g = oc / out_per_group;
        float* orow = po + (b * c_out + oc) * steps;
        for (int64_t icl = 0; icl < c_in_per_group; ++icl) {
          const int64_t ic = g * c_in_per_group + icl;
          const float* xrow = px + (b * c_in + ic) * steps;
          const float* wrow = pw + (oc * c_in_per_group + icl) * kernel;
          for (int64_t k = 0; k < kernel; ++k) {
            const int64_t back = (kernel - 1 - k) * dilation + shift;
            const float w = wrow[k];
            if (w == 0.0f || back >= steps) continue;
            // Each tap is one shifted axpy over the time axis.
            simd::Active().axpy(w, xrow, orow + back, steps - back);
          }
        }
        if (bias.defined()) {
          simd::Active().add_scalar(bias.data()[oc], orow, orow, steps);
        }
      }
    }
  }

  struct Attrs {
    int64_t dilation, groups, shift;
  };
  const Tensor inputs[] = {x, weight, bias};
  const Attrs attrs{dilation, groups, shift};
  const VjpFn vjp = [](const Node& node, const Tensor&, const Tensor& cot,
                       InputMask, Tensor* grads) {
    const Attrs at = node.attr<Attrs>();
    const Tensor& x = node.inputs[0];
    const Tensor& weight = node.inputs[1];
    const int64_t batch = x.dim(0);
    const int64_t c_in = x.dim(1);
    const int64_t steps = x.dim(2);
    const int64_t c_out = weight.dim(0);
    const int64_t c_in_per_group = weight.dim(1);
    const int64_t kernel = weight.dim(2);
    const int64_t out_per_group = c_out / at.groups;

    Tensor gx = Tensor::Zeros(x.shape());
    Tensor gw = Tensor::Zeros(weight.shape());
    const float* px = x.data();
    const float* pw = weight.data();
    const float* pc = cot.data();
    float* pgx = gx.data();
    float* pgw = gw.data();
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t oc = 0; oc < c_out; ++oc) {
        const int64_t g = oc / out_per_group;
        const float* crow = pc + (b * c_out + oc) * steps;
        for (int64_t icl = 0; icl < c_in_per_group; ++icl) {
          const int64_t ic = g * c_in_per_group + icl;
          const float* xrow = px + (b * c_in + ic) * steps;
          float* gxrow = pgx + (b * c_in + ic) * steps;
          const float* wrow = pw + (oc * c_in_per_group + icl) * kernel;
          float* gwrow = pgw + (oc * c_in_per_group + icl) * kernel;
          for (int64_t k = 0; k < kernel; ++k) {
            const int64_t back = (kernel - 1 - k) * at.dilation + at.shift;
            if (back >= steps) continue;
            // Fused: gx accumulation and the weight-grad dot share one
            // pass over the cotangent row.
            gwrow[k] += simd::Active().axpy_dot(wrow[k], crow + back, gxrow,
                                                xrow, steps - back);
          }
        }
      }
    }
    grads[0] = std::move(gx);
    grads[1] = std::move(gw);
    if (node.num_inputs == 3) {
      const Tensor& bias = node.inputs[2];
      Tensor gb = Tensor::Zeros(bias.shape());
      float* pgb = gb.data();
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t oc = 0; oc < c_out; ++oc) {
          const float* crow = pc + (b * c_out + oc) * steps;
          pgb[oc] += simd::Active().sum(crow, steps);
        }
      }
      grads[2] = std::move(gb);
    }
  };
  return MakeOp("causal_conv1d", inputs, bias.defined() ? 3 : 2,
                std::move(out), vjp, &attrs, sizeof(attrs), Tensor());
}

Conv1dCausal::Conv1dCausal(int64_t in_channels, int64_t out_channels,
                           int64_t kernel_size, int64_t dilation,
                           int64_t groups, Rng* rng, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      dilation_(dilation),
      groups_(groups) {
  CF_CHECK_EQ(in_channels % groups, 0);
  CF_CHECK_EQ(out_channels % groups, 0);
  const int64_t fan_in = (in_channels / groups) * kernel_size;
  weight_ = RegisterParameter(
      "weight",
      HeNormal(Shape{out_channels, in_channels / groups, kernel_size}, fan_in,
               rng));
  if (bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros(Shape{out_channels}));
  }
}

Tensor Conv1dCausal::Forward(const Tensor& x, bool shift_right) const {
  CF_CHECK_EQ(x.dim(1), in_channels_);
  return CausalConv1d(x, weight_, bias_, dilation_, groups_, shift_right);
}

}  // namespace nn
}  // namespace causalformer
