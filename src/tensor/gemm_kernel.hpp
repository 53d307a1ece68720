// Internal packed-GEMM engine shared by every matmul kernel in the repo: the
// f32 kernels behind tensor::gemm_blocked / gemm_parallel, the simulated
// device's sgpu::k_gemm, and the u64 ring kernel behind mpc::ring_matmul.
//
// Structure (BLIS-style):
//   - operands are described by (pointer, row stride, col stride), so all four
//     transpose combinations are handled by the packing routines for free —
//     no transpose copies on the way in;
//   - A is packed into MR-row micro-panels ([kc][MR] column-major within the
//     panel), B into NR-column micro-panels ([kc][NR]); ragged edges are
//     zero-padded so the microkernel always runs full tiles;
//   - a register-blocked microkernel contracts one MRxNR tile over kc;
//   - the macro loop walks fixed MCxNC tiles of C. Parallelism is a 2-D
//     partition of that tile grid on whichever pool the caller names; the
//     per-element update order (k blocks in ascending order, one owner tile
//     per C element) is therefore identical for every pool and thread count,
//     which makes f32 results bit-identical between gemm_blocked,
//     gemm_parallel and the device GEMM for a fixed tile plan.
//
// Numeric semantics (shared with gemm_naive, documented in docs/ANALYSIS.md):
//   - branch-free accumulation: there is no value-based work skipping, so
//     NaN/Inf in either operand propagates exactly as written (the seed
//     kernels skipped `a == 0` terms and silently dropped 0*NaN = NaN);
//   - beta == 0 overwrites C (BLAS semantics: existing garbage, including
//     NaN, does not propagate); any other beta multiplies.
//
// The engine is a template so the scalar fallback and the SIMD build share
// one implementation: gemm_kernels_scalar.cpp instantiates it with baseline
// codegen, gemm_kernels_avx2.cpp with -mavx2 -mfma (plus a hand-written
// AVX2/FMA f32 microkernel). Runtime dispatch lives in gemm.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/thread_pool.hpp"

namespace psml::tensor::detail {

// One GEMM problem: C(m,n) = alpha * A(m,k) x B(k,n) + beta * C, with A/B
// given as strided views (row stride = step between op-rows, col stride =
// step between op-columns) and C dense row-major with leading dimension ldc.
template <typename T>
struct GemmArgs {
  std::size_t m = 0, n = 0, k = 0;
  T alpha{};
  T beta{};
  const T* a = nullptr;
  std::size_t a_rs = 0, a_cs = 0;
  const T* b = nullptr;
  std::size_t b_rs = 0, b_cs = 0;
  T* c = nullptr;
  std::size_t ldc = 0;
  ThreadPool* pool = nullptr;  // pool for the 2-D tile partition; null = serial
};

// The pool a problem of m*n*k multiply-adds should partition on: below 2^18
// a pool launch costs more than it saves, so small problems run serially.
// The engine is bit-identical either way, so the cutoff is invisible to
// results.
inline ThreadPool* partition_pool(ThreadPool& pool, std::size_t m,
                                  std::size_t n, std::size_t k) {
  return m * n * k >= (std::size_t{1} << 18) ? &pool : nullptr;
}

using GemmArgsF32 = GemmArgs<float>;
using GemmArgsU64 = GemmArgs<std::uint64_t>;

// Cache-tile plan. MR/NR are the register tile; MC/KC/NC the cache blocks.
// These are compile-time constants on purpose: the tile plan must not depend
// on runtime state (thread count, pool size) or the bit-consistency guarantee
// above evaporates.
template <typename T>
struct TilePlan;

template <>
struct TilePlan<float> {
  static constexpr std::size_t MR = 6;    // micro rows (broadcast operand)
  static constexpr std::size_t NR = 16;   // micro cols (two 8-lane vectors)
  static constexpr std::size_t MC = 72;   // A block rows   (multiple of MR)
  static constexpr std::size_t KC = 256;  // shared k block
  static constexpr std::size_t NC = 512;  // B block cols   (multiple of NR)
};

template <>
struct TilePlan<std::uint64_t> {
  static constexpr std::size_t MR = 4;
  static constexpr std::size_t NR = 8;
  static constexpr std::size_t MC = 64;
  static constexpr std::size_t KC = 192;  // u64 panels are 8 bytes/elem
  static constexpr std::size_t NC = 256;
};

// Packs the mc x kc block starting at `a` (strided view) into MR-row
// micro-panels: panel q holds rows [q*MR, q*MR+MR) laid out [kc][MR] so the
// microkernel reads MR contiguous values per k step. Short final panels are
// zero-padded — padded lanes contribute to accumulators that writeback
// discards, so the padding is never observable.
template <typename T, std::size_t MR>
void pack_a(const T* a, std::size_t rs, std::size_t cs, std::size_t mc,
            std::size_t kc, T* out) {
  for (std::size_t ir = 0; ir < mc; ir += MR) {
    const std::size_t mr = mc - ir < MR ? mc - ir : MR;
    for (std::size_t p = 0; p < kc; ++p) {
      const T* col = a + ir * rs + p * cs;
      std::size_t i = 0;
      for (; i < mr; ++i) out[i] = col[i * rs];
      for (; i < MR; ++i) out[i] = T{};
      out += MR;
    }
  }
}

// Packs the kc x nc block starting at `b` into NR-column micro-panels laid
// out [kc][NR]; same zero-padding contract as pack_a.
template <typename T, std::size_t NR>
void pack_b(const T* b, std::size_t rs, std::size_t cs, std::size_t kc,
            std::size_t nc, T* out) {
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = nc - jr < NR ? nc - jr : NR;
    for (std::size_t p = 0; p < kc; ++p) {
      const T* row = b + p * rs + jr * cs;
      std::size_t j = 0;
      for (; j < nr; ++j) out[j] = row[j * cs];
      for (; j < NR; ++j) out[j] = T{};
      out += NR;
    }
  }
}

// Portable register-blocked microkernel: acc[MR][NR] += Ap x Bp over kc,
// then C[0..mr)[0..nr) = alpha*acc + beta*C (beta == 0 overwrites). The
// fixed-bound loops unroll fully; built with vector ISA flags the compiler
// keeps `acc` in registers and vectorizes the j dimension.
template <typename T, std::size_t MR, std::size_t NR>
void micro_kernel_generic(std::size_t kc, const T* ap, const T* bp, T* c,
                          std::size_t ldc, std::size_t mr, std::size_t nr,
                          T alpha, T beta) {
  T acc[MR][NR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const T* a = ap + p * MR;
    const T* b = bp + p * NR;
    for (std::size_t i = 0; i < MR; ++i) {
      const T av = a[i];
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] += av * b[j];
    }
  }
  if (mr == MR && nr == NR) {
    if (beta == T{}) {
      for (std::size_t i = 0; i < MR; ++i)
        for (std::size_t j = 0; j < NR; ++j) c[i * ldc + j] = alpha * acc[i][j];
    } else {
      for (std::size_t i = 0; i < MR; ++i)
        for (std::size_t j = 0; j < NR; ++j)
          c[i * ldc + j] = alpha * acc[i][j] + beta * c[i * ldc + j];
    }
    return;
  }
  for (std::size_t i = 0; i < mr; ++i) {
    for (std::size_t j = 0; j < nr; ++j) {
      T& out = c[i * ldc + j];
      out = beta == T{} ? alpha * acc[i][j] : alpha * acc[i][j] + beta * out;
    }
  }
}

// Scales one C tile by beta without touching A/B — the k == 0 degenerate
// case, where the macro loop would otherwise never apply beta.
template <typename T>
void scale_tile(T* c, std::size_t ldc, std::size_t mc, std::size_t nc, T beta) {
  for (std::size_t i = 0; i < mc; ++i) {
    T* row = c + i * ldc;
    if (beta == T{}) {
      for (std::size_t j = 0; j < nc; ++j) row[j] = T{};
    } else {
      for (std::size_t j = 0; j < nc; ++j) row[j] *= beta;
    }
  }
}

// Runs tiles [t0, t1) of the MCxNC grid. `micro` has the signature of
// micro_kernel_generic. Pack buffers are reused across the tiles of one call
// (one call == one thread-pool chunk, or the whole grid single-threaded).
template <typename T, typename Micro>
void run_tile_range(const GemmArgs<T>& g, std::size_t t0, std::size_t t1,
                    Micro micro) {
  using Plan = TilePlan<T>;
  constexpr std::size_t MR = Plan::MR, NR = Plan::NR;
  constexpr std::size_t MC = Plan::MC, KC = Plan::KC, NC = Plan::NC;
  const std::size_t nbj = (g.n + NC - 1) / NC;

  // Pack buffers are sized to this problem's largest block, not the full
  // tile plan: every pool thread that runs a chunk allocates (and zeroes)
  // its own pair, and that memory stays resident in its malloc arena.
  const std::size_t kmax = g.k < KC ? g.k : KC;
  const std::size_t mmax = g.m < MC ? (g.m + MR - 1) / MR * MR : MC;
  const std::size_t nmax = g.n < NC ? (g.n + NR - 1) / NR * NR : NC;
  std::vector<T, AlignedAllocator<T>> apack(mmax * kmax);
  std::vector<T, AlignedAllocator<T>> bpack(kmax * nmax);

  for (std::size_t t = t0; t < t1; ++t) {
    const std::size_t ic = (t / nbj) * MC;
    const std::size_t jc = (t % nbj) * NC;
    const std::size_t mc = g.m - ic < MC ? g.m - ic : MC;
    const std::size_t nc = g.n - jc < NC ? g.n - jc : NC;
    T* ctile = g.c + ic * g.ldc + jc;

    if (g.k == 0) {
      scale_tile(ctile, g.ldc, mc, nc, g.beta);
      continue;
    }
    for (std::size_t pc = 0; pc < g.k; pc += KC) {
      const std::size_t kc = g.k - pc < KC ? g.k - pc : KC;
      // First k block applies the caller's beta; later blocks accumulate.
      const T beta_eff = pc == 0 ? g.beta : T{1};
      pack_b<T, NR>(g.b + pc * g.b_rs + jc * g.b_cs, g.b_rs, g.b_cs, kc, nc,
                    bpack.data());
      pack_a<T, MR>(g.a + ic * g.a_rs + pc * g.a_cs, g.a_rs, g.a_cs, mc, kc,
                    apack.data());
      for (std::size_t jr = 0; jr < nc; jr += NR) {
        const std::size_t nr = nc - jr < NR ? nc - jr : NR;
        const T* bp = bpack.data() + (jr / NR) * (NR * kc);
        for (std::size_t ir = 0; ir < mc; ir += MR) {
          const std::size_t mr = mc - ir < MR ? mc - ir : MR;
          const T* ap = apack.data() + (ir / MR) * (MR * kc);
          micro(kc, ap, bp, ctile + ir * g.ldc + jr, g.ldc, mr, nr, g.alpha,
                beta_eff);
        }
      }
    }
  }
}

// Full engine: partitions the MCxNC tile grid, serially or across g.pool.
// Tiles own disjoint C regions and each runs its k loop in-order, so serial
// and parallel execution produce identical bits.
template <typename T, typename Micro>
void packed_gemm(const GemmArgs<T>& g, Micro micro) {
  using Plan = TilePlan<T>;
  if (g.m == 0 || g.n == 0) return;
  const std::size_t nbi = (g.m + Plan::MC - 1) / Plan::MC;
  const std::size_t nbj = (g.n + Plan::NC - 1) / Plan::NC;
  const std::size_t tiles = nbi * nbj;
  if (g.pool != nullptr && tiles > 1) {
    g.pool->parallel_for(
        0, tiles,
        [&g, micro](std::size_t lo, std::size_t hi) {
          run_tile_range<T>(g, lo, hi, micro);
        },
        /*grain=*/1);
  } else {
    run_tile_range<T>(g, 0, tiles, micro);
  }
}

// Entry points exported by the two kernel TUs. The *_simd variants are built
// with -mavx2 -mfma and must only be called when cpu_has_avx2_fma() is true;
// dispatch is centralized in gemm.cpp.
void gemm_f32_scalar(const GemmArgsF32& g);
void gemm_u64_scalar(const GemmArgsU64& g);
void gemm_f32_simd(const GemmArgsF32& g);
void gemm_u64_simd(const GemmArgsU64& g);
// AVX-512DQ tier (vpmullq 64-bit multiply), u64 only; call only when
// cpu_has_avx512dq() is true.
void gemm_u64_avx512(const GemmArgsU64& g);
bool cpu_has_avx2_fma();
bool cpu_has_avx512dq();

// Entries honoring the process-wide GemmIsa selection (defined in gemm.cpp).
// The tensor:: f32 kernels and sgpu::k_gemm call the f32 one,
// mpc::ring_matmul the u64 one.
void gemm_f32_auto(const GemmArgsF32& g);
void gemm_u64_auto(const GemmArgsU64& g);

}  // namespace psml::tensor::detail
