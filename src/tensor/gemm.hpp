// Host-side GEMM kernels: C = alpha * A(+T) x B(+T) + beta * C.
//
// Three tiers:
//   gemm_naive    — triple loop, the reference every other kernel is tested
//                   against; also the "SecureML baseline" compute path.
//   gemm_blocked  — packed panels + register-blocked microkernel (6x16 f32),
//                   runtime-dispatched AVX2/FMA with a portable scalar
//                   fallback, single-threaded.
//   gemm_parallel — the same packed engine with the MCxNC tile grid
//                   partitioned 2-D across the global thread pool; the CPU
//                   side of the adaptive dispatcher. The device side,
//                   sgpu::k_gemm, runs the same engine on the device pool
//                   and returns the same bits.
//
// Numeric contract (all tiers, see docs/ANALYSIS.md "Packed GEMM engine"):
//   - no value-based work skipping: NaN/Inf anywhere in A or B propagates;
//   - beta == 0 overwrites C (BLAS semantics), other betas multiply;
//   - for a fixed tile plan, gemm_blocked and gemm_parallel are bit-identical
//     at every thread count (each C element has one owner tile and a fixed
//     k-block accumulation order).
#pragma once

#include <cstddef>

#include "tensor/matrix.hpp"

namespace psml::tensor {

enum class Trans { kNo, kYes };

struct GemmDims {
  std::size_t m, n, k;
};

// Validates shapes and returns (m, n, k) for C(m,n) = A op x B op.
GemmDims gemm_dims(const MatrixF& a, Trans ta, const MatrixF& b, Trans tb,
                   const MatrixF& c);

void gemm_naive(float alpha, const MatrixF& a, Trans ta, const MatrixF& b,
                Trans tb, float beta, MatrixF& c);

void gemm_blocked(float alpha, const MatrixF& a, Trans ta, const MatrixF& b,
                  Trans tb, float beta, MatrixF& c);

void gemm_parallel(float alpha, const MatrixF& a, Trans ta, const MatrixF& b,
                   Trans tb, float beta, MatrixF& c);

// Convenience: C = A x B with a fresh output, parallel kernel.
MatrixF matmul(const MatrixF& a, const MatrixF& b);

// Convenience: C = A x B with the naive kernel (baseline mode).
MatrixF matmul_naive(const MatrixF& a, const MatrixF& b);

// ---- kernel selection -------------------------------------------------------
//
// kAuto picks AVX2/FMA when the CPU has it, scalar otherwise. kSimd/kScalar
// force a path (kSimd silently degrades to scalar on CPUs without AVX2/FMA);
// tests use the forced modes to cross-check both codegens, benchmarks to
// price them. Selection is process-global and cheap to read.

enum class GemmIsa { kAuto, kScalar, kSimd };

void set_gemm_isa(GemmIsa isa);
GemmIsa gemm_isa();

// True when the running CPU supports the AVX2/FMA microkernel.
bool gemm_simd_available();

// Human-readable name of the kernel the current selection resolves to,
// e.g. "avx2fma-6x16" or "scalar-6x16".
const char* gemm_kernel_name();

// Monotonic counter bumped by every set_gemm_isa() call. Cost models
// calibrated against the CPU kernel (profile::AdaptiveDispatch) stamp the
// revision they saw and treat a mismatch as "calibration is stale".
std::size_t gemm_kernel_revision();

}  // namespace psml::tensor
