// Raw device kernels. These run *inside* a stream task (see Device::launch)
// and parallelize internally over the device compute pool — they are the
// simulated equivalents of the CUDA kernels / cuBLAS calls ParSecureML uses.
#pragma once

#include <cstddef>
#include <cstdint>

namespace psml::sgpu {

class Device;

// C = alpha * A(mxk) * B(kxn) + beta * C, row-major, FP32 ("cublasSgemm").
// Runs the host's packed engine (tensor/gemm_kernel.hpp) with its tile grid
// partitioned on the device compute pool, so it returns the same bits as
// tensor::gemm_parallel and keeps the same numeric contract (NaN/Inf
// propagate; beta == 0 overwrites C).
void k_gemm(Device& dev, const float* a, const float* b, float* c,
            std::size_t m, std::size_t n, std::size_t k, float alpha,
            float beta);

// out[i] = alpha * x[i] + y[i]  (the "D = (-i)*E + A_i" step of Eq. 8).
void k_axpby(Device& dev, float alpha, const float* x, const float* y,
             float* out, std::size_t n);

// out[i] += x[i]
void k_add_inplace(Device& dev, const float* x, float* out, std::size_t n);

// Piecewise-linear activation of Eq. 9:
//   f(x) = 0 for x < -1/2;  x + 1/2 on [-1/2, 1/2];  1 for x > 1/2.
void k_activation_piecewise(Device& dev, const float* x, float* out,
                            std::size_t n);

// Derivative mask of Eq. 9: 1 on (-1/2, 1/2), else 0.
void k_activation_piecewise_grad(Device& dev, const float* x, float* out,
                                 std::size_t n);

// Philox4x32-10 uniform fill ("curandGenerateUniform").
void k_philox_uniform(Device& dev, float* out, std::size_t n, float lo,
                      float hi, std::uint64_t seed);

}  // namespace psml::sgpu
