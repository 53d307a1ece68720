// Microbenchmarks (google-benchmark): GEMM kernel tiers, device GEMM,
// RNG engines, CSR codec, channel throughput.
//
// Besides the google-benchmark suites, this binary owns the machine-readable
// kernel baseline:
//
//   bench_micro_kernels --emit-kernel-baseline[=PATH] [--smoke]
//
// times the seed (pre-packing) f32/u64 kernels — preserved verbatim below —
// against the packed engine across paper-relevant shapes and writes a JSON
// report (default BENCH_kernels.json). --smoke shrinks shapes/reps so CI can
// run it per-push and upload the artifact; the full run is the perf gate for
// kernel changes (packed f32 >= 3x seed blocked at 512^3 single-threaded,
// packed u64 >= 2x the seed ring kernel).
#include <benchmark/benchmark.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "mpc/ring.hpp"
#include "net/local_channel.hpp"
#include "net/serialize.hpp"
#include "profile/adaptive.hpp"
#include "rng/philox.hpp"
#include "rng/rng.hpp"
#include "sgpu/ops.hpp"
#include "sparse/csr.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace psml;

MatrixF rand_mat(std::size_t r, std::size_t c, std::uint64_t seed) {
  MatrixF m(r, c);
  rng::fill_uniform_par(m, -1.0f, 1.0f, seed);
  return m;
}

// ---- seed kernels (pre-PR4 state), kept as the baseline under test --------
namespace seed {

// The seed gemm_blocked inner kernel: cache-blocked ikj with a per-element
// zero skip, no packing, no explicit SIMD.
void gemm_rows(float alpha, const float* a, const float* b, float beta,
               float* c, std::size_t r0, std::size_t r1, std::size_t n,
               std::size_t k) {
  constexpr std::size_t kKB = 256;
  constexpr std::size_t kJB = 512;
  for (std::size_t i = r0; i < r1; ++i) {
    float* ci = c + i * n;
    if (beta == 0.0f) {
      std::fill(ci, ci + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) ci[j] *= beta;
    }
  }
  for (std::size_t kb = 0; kb < k; kb += kKB) {
    const std::size_t kmax = std::min(kb + kKB, k);
    for (std::size_t jb = 0; jb < n; jb += kJB) {
      const std::size_t jmax = std::min(jb + kJB, n);
      for (std::size_t i = r0; i < r1; ++i) {
        const float* ai = a + i * k;
        float* ci = c + i * n;
        for (std::size_t kk = kb; kk < kmax; ++kk) {
          const float av = alpha * ai[kk];
          if (av == 0.0f) continue;
          const float* bk = b + kk * n;
          for (std::size_t j = jb; j < jmax; ++j) {
            ci[j] += av * bk[j];
          }
        }
      }
    }
  }
}

void gemm_blocked(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  gemm_rows(1.0f, a.data(), b.data(), 0.0f, c.data(), 0, a.rows(), b.cols(),
            a.cols());
}

// The seed ring_matmul: blocked ikj with the zero skip.
MatrixU64 ring_matmul(const MatrixU64& a, const MatrixU64& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  MatrixU64 c(m, n, 0);
  constexpr std::size_t kKB = 128;
  for (std::size_t kb = 0; kb < k; kb += kKB) {
    const std::size_t kmax = std::min(kb + kKB, k);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t* ai = a.data() + i * k;
      std::uint64_t* ci = c.data() + i * n;
      for (std::size_t kk = kb; kk < kmax; ++kk) {
        const std::uint64_t av = ai[kk];
        if (av == 0) continue;
        const std::uint64_t* bk = b.data() + kk * n;
        for (std::size_t j = 0; j < n; ++j) ci[j] += av * bk[j];
      }
    }
  }
  return c;
}

}  // namespace seed

// ---- JSON baseline emitter -------------------------------------------------

struct KernelShape {
  std::size_t m, k, n;
};

template <typename F>
double best_of(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

double gflops(const KernelShape& s, double sec) {
  return 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
         static_cast<double>(s.n) / sec / 1e9;
}

int emit_kernel_baseline(const std::string& path, bool smoke) {
  const std::vector<KernelShape> f32_shapes =
      smoke ? std::vector<KernelShape>{{64, 64, 64}, {128, 128, 128}}
            : std::vector<KernelShape>{{64, 64, 64},
                                       {128, 128, 128},
                                       {256, 256, 256},
                                       {512, 512, 512},
                                       {256, 784, 128}};  // MNIST MLP layer
  const std::vector<KernelShape> u64_shapes =
      smoke ? std::vector<KernelShape>{{64, 64, 64}, {128, 128, 128}}
            : std::vector<KernelShape>{{128, 128, 128},
                                       {256, 256, 256},
                                       {512, 512, 512}};
  const int reps = smoke ? 2 : 3;

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"psml-kernel-baseline-v1\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"kernel\": \"%s\",\n", tensor::gemm_kernel_name());
  std::fprintf(out, "  \"simd_available\": %s,\n",
               tensor::gemm_simd_available() ? "true" : "false");
  std::fprintf(out, "  \"f32\": [\n");

  for (std::size_t si = 0; si < f32_shapes.size(); ++si) {
    const KernelShape& s = f32_shapes[si];
    const MatrixF a = rand_mat(s.m, s.k, 1);
    const MatrixF b = rand_mat(s.k, s.n, 2);
    MatrixF c(s.m, s.n);

    const double naive_s = best_of(reps, [&] {
      tensor::gemm_naive(1.0f, a, tensor::Trans::kNo, b, tensor::Trans::kNo,
                         0.0f, c);
    });
    const double seed_s = best_of(reps, [&] { seed::gemm_blocked(a, b, c); });
    // Packed engine, forced scalar codegen (single-threaded).
    tensor::set_gemm_isa(tensor::GemmIsa::kScalar);
    const double packed_scalar_s = best_of(reps, [&] {
      tensor::gemm_blocked(1.0f, a, tensor::Trans::kNo, b, tensor::Trans::kNo,
                           0.0f, c);
    });
    // Packed engine, auto ISA (AVX2/FMA where available), single-threaded
    // and thread-pool-tiled.
    tensor::set_gemm_isa(tensor::GemmIsa::kAuto);
    const double packed_st_s = best_of(reps, [&] {
      tensor::gemm_blocked(1.0f, a, tensor::Trans::kNo, b, tensor::Trans::kNo,
                           0.0f, c);
    });
    const double packed_mt_s = best_of(reps, [&] {
      tensor::gemm_parallel(1.0f, a, tensor::Trans::kNo, b, tensor::Trans::kNo,
                            0.0f, c);
    });

    std::fprintf(
        out,
        "    {\"m\": %zu, \"k\": %zu, \"n\": %zu,\n"
        "     \"naive_s\": %.6e, \"seed_blocked_s\": %.6e,\n"
        "     \"packed_scalar_st_s\": %.6e, \"packed_st_s\": %.6e,\n"
        "     \"packed_mt_s\": %.6e,\n"
        "     \"packed_st_gflops\": %.3f,\n"
        "     \"speedup_packed_vs_seed_blocked\": %.3f,\n"
        "     \"speedup_packed_vs_naive\": %.3f}%s\n",
        s.m, s.k, s.n, naive_s, seed_s, packed_scalar_s, packed_st_s,
        packed_mt_s, gflops(s, packed_st_s), seed_s / packed_st_s,
        naive_s / packed_st_s, si + 1 < f32_shapes.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"u64\": [\n");

  for (std::size_t si = 0; si < u64_shapes.size(); ++si) {
    const KernelShape& s = u64_shapes[si];
    MatrixU64 a(s.m, s.k), b(s.k, s.n);
    rng::fill_uniform_u64_par(a, 11);
    rng::fill_uniform_u64_par(b, 12);

    const double seed_s = best_of(reps, [&] {
      auto c = seed::ring_matmul(a, b);
      benchmark::DoNotOptimize(c.data());
    });
    const double packed_s = best_of(reps, [&] {
      auto c = mpc::ring_matmul(a, b);
      benchmark::DoNotOptimize(c.data());
    });
    std::fprintf(out,
                 "    {\"m\": %zu, \"k\": %zu, \"n\": %zu,\n"
                 "     \"seed_ring_s\": %.6e, \"packed_ring_s\": %.6e,\n"
                 "     \"speedup_packed_vs_seed\": %.3f}%s\n",
                 s.m, s.k, s.n, seed_s, packed_s, seed_s / packed_s,
                 si + 1 < u64_shapes.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  // Kernel selection flipped above — refit the CPU/GPU crossover model so a
  // process embedding this (or a copy-pasted flow) ends with honest
  // decisions. This is the recalibration hook from profile::AdaptiveDispatch.
  profile::AdaptiveDispatch::global().recalibrate(sgpu::Device::global());

  std::printf("wrote %s (kernel: %s)\n", path.c_str(),
              tensor::gemm_kernel_name());
  return 0;
}

// ---- google-benchmark suites ----------------------------------------------

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const MatrixF a = rand_mat(n, n, 1), b = rand_mat(n, n, 2);
  MatrixF c(n, n);
  for (auto _ : state) {
    tensor::gemm_naive(1.0f, a, tensor::Trans::kNo, b, tensor::Trans::kNo,
                       0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmSeedBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const MatrixF a = rand_mat(n, n, 1), b = rand_mat(n, n, 2);
  MatrixF c(n, n);
  for (auto _ : state) {
    seed::gemm_blocked(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmSeedBlocked)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const MatrixF a = rand_mat(n, n, 1), b = rand_mat(n, n, 2);
  MatrixF c(n, n);
  for (auto _ : state) {
    tensor::gemm_blocked(1.0f, a, tensor::Trans::kNo, b, tensor::Trans::kNo,
                         0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const MatrixF a = rand_mat(n, n, 1), b = rand_mat(n, n, 2);
  MatrixF c(n, n);
  for (auto _ : state) {
    tensor::gemm_parallel(1.0f, a, tensor::Trans::kNo, b, tensor::Trans::kNo,
                          0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmParallel)->Arg(128)->Arg(256)->Arg(512);

void BM_RingMatmulSeed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  MatrixU64 a(n, n), b(n, n);
  rng::fill_uniform_u64_par(a, 11);
  rng::fill_uniform_u64_par(b, 12);
  for (auto _ : state) {
    auto c = seed::ring_matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_RingMatmulSeed)->Arg(128)->Arg(256);

void BM_RingMatmulPacked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  MatrixU64 a(n, n), b(n, n);
  rng::fill_uniform_u64_par(a, 11);
  rng::fill_uniform_u64_par(b, 12);
  for (auto _ : state) {
    auto c = mpc::ring_matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_RingMatmulPacked)->Arg(128)->Arg(256);

void BM_DeviceGemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const MatrixF a = rand_mat(n, n, 1), b = rand_mat(n, n, 2);
  for (auto _ : state) {
    auto c = sgpu::device_matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_DeviceGemm)->Arg(128)->Arg(512);

void BM_RngMt19937Serial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  MatrixF m(n, n);
  for (auto _ : state) {
    rng::fill_uniform(m, -1.0f, 1.0f);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_RngMt19937Serial)->Arg(256)->Arg(1024);

void BM_RngMt19937Parallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  MatrixF m(n, n);
  for (auto _ : state) {
    rng::fill_uniform_par(m, -1.0f, 1.0f, 42);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_RngMt19937Parallel)->Arg(256)->Arg(1024);

void BM_RngPhilox(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  MatrixF m(n, n);
  for (auto _ : state) {
    rng::philox_fill_uniform_par(m, -1.0f, 1.0f, 42);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_RngPhilox)->Arg(256)->Arg(1024);

void BM_CsrEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  MatrixF m = rand_mat(n, n, 3);
  MatrixF mask(n, n);
  rng::fill_uniform_par(mask, 0.0f, 1.0f, 4);
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (mask.data()[i] > density) m.data()[i] = 0.0f;
  }
  for (auto _ : state) {
    auto csr = sparse::Csr::from_dense(m);
    auto bytes = csr.serialize();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() * m.bytes());
}
BENCHMARK(BM_CsrEncode)->Args({512, 5})->Args({512, 25})->Args({512, 75});

void BM_LocalChannelThroughput(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  auto pair = net::LocalChannel::make_pair();
  std::vector<std::uint8_t> payload(bytes, 7);
  for (auto _ : state) {
    pair.a->send(1, payload);
    auto msg = pair.b->recv(1);
    benchmark::DoNotOptimize(msg.payload.data());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_LocalChannelThroughput)->Arg(1 << 10)->Arg(1 << 20);

void BM_Im2col(benchmark::State& state) {
  const auto hw = static_cast<std::size_t>(state.range(0));
  tensor::ConvShape s;
  s.in_h = hw;
  s.in_w = hw;
  s.kernel = 5;
  s.out_c = 8;
  const MatrixF x = rand_mat(4, hw * hw, 5);
  for (auto _ : state) {
    auto p = tensor::im2col(x, s);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_Im2col)->Arg(28)->Arg(64);

}  // namespace

// Custom main so --emit-kernel-baseline can bypass google-benchmark.
int main(int argc, char** argv) {
  std::string baseline_path;
  bool emit = false, smoke = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--emit-kernel-baseline") == 0) {
      emit = true;
      baseline_path = "BENCH_kernels.json";
    } else if (std::strncmp(arg, "--emit-kernel-baseline=", 23) == 0) {
      emit = true;
      baseline_path = arg + 23;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (emit) return emit_kernel_baseline(baseline_path, smoke);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
