#ifndef CAUSALFORMER_CORE_CAUSAL_CONV_H_
#define CAUSALFORMER_CORE_CAUSAL_CONV_H_

#include "tensor/ops.h"

/// \file
/// The multi-kernel causal convolution (Section 4.1.2, Fig. 3c).
///
/// A learnable kernel K ∈ R^{N x N x T} holds one length-T kernel per
/// (source series i, target series j) pair. The input window X ∈ R^{B x N x T}
/// is left-padded with T zeros and convolved so that (Eq. 3, 0-based)
///
///   X̂[b,i,j,t] = (1/(t+1)) * Σ_{τ=0..t} K[i, j, T-1-(t-τ)] * X[b,i,τ]
///
/// i.e. kernel tap T-1-ℓ multiplies the observation at lag ℓ, and the 1/(t+1)
/// factor rescales by the number of non-padding entries. Output at time t
/// never touches X[·, >t] — the temporal priority constraint.
///
/// The instantaneous self-contribution is removed by ShiftRightDiagonal
/// (Eq. 4): X̂[b,i,i,:] is shifted one slot right so a series' current value
/// cannot predict itself.

namespace causalformer {
namespace core {

/// X: [B, N, T]; kernel: [N, N, T] (or [N, 1, T] when `shared_kernel`, the
/// "w/o multi conv kernel" ablation: one kernel per source shared across all
/// targets). Returns X̂: [B, N, N, T] where axis 1 = source, axis 2 = target.
Tensor MultiKernelCausalConv(const Tensor& x, const Tensor& kernel,
                             bool shared_kernel = false);

/// Grouped variant for batched serving: `kernel` is [G, N, N, T] (a TileBatch
/// of the learned kernel; a shared kernel is broadcast across targets first)
/// and `row_groups[b]` names the kernel group of batch row b. Forward values
/// equal the ungrouped op row for row; the point is the tape: the VJP yields
/// a *per-group*, per-target kernel cotangent — output target column j feeds
/// kernel column j alone — so one batched backward pass recovers, for every
/// request and target, exactly the kernel gradient (and relevance) a
/// standalone run seeded for that target would produce.
Tensor GroupedMultiKernelCausalConv(const Tensor& x, const Tensor& kernel,
                                    const std::vector<int>& row_groups);

/// Right-shifts the diagonal slices X̂[b,i,i,:] by one time slot (Eq. 4).
Tensor ShiftRightDiagonal(const Tensor& conv);

}  // namespace core
}  // namespace causalformer

#endif  // CAUSALFORMER_CORE_CAUSAL_CONV_H_
