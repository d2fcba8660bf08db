#ifndef CAUSALFORMER_TENSOR_SIMD_TABLES_H_
#define CAUSALFORMER_TENSOR_SIMD_TABLES_H_

#include "tensor/simd.h"

/// \file
/// Internal: the kernel tables each backend translation unit exports to the
/// dispatcher (simd.cc). Backends other than scalar exist only when the
/// matching CF_HAVE_* macro is defined by the build (CMake CF_SIMD option).

namespace causalformer {
namespace simd {

/// The reference table; always built.
const KernelTable& ScalarKernelTable();

#ifdef CF_HAVE_AVX2
/// AVX2+FMA table (simd_avx2.cc, compiled with -mavx2 -mfma). Only call the
/// kernels after __builtin_cpu_supports confirms the ISA.
const KernelTable& Avx2KernelTable();
#endif

}  // namespace simd
}  // namespace causalformer

#endif  // CAUSALFORMER_TENSOR_SIMD_TABLES_H_
