// Host-facing typed operations on the simulated device: device-resident
// matrices, async upload/download, and kernel wrappers that enqueue on
// streams. This is the layer the MPC online phase and the double pipeline
// build on.
#pragma once

#include <cstdint>
#include <memory>

#include "sgpu/device.hpp"
#include "sgpu/kernels.hpp"
#include "tensor/matrix.hpp"

namespace psml::sgpu {

// A device-resident row-major FP32 matrix.
class DeviceMatrix {
 public:
  DeviceMatrix() = default;
  DeviceMatrix(Device& dev, std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), buf_(dev.alloc(rows * cols * sizeof(float))) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }
  std::size_t bytes() const { return size() * sizeof(float); }
  bool valid() const { return buf_.valid(); }

  DeviceBuffer& buffer() { return buf_; }
  const DeviceBuffer& buffer() const { return buf_; }
  float* data() { return buf_.f32(); }
  const float* data() const { return buf_.f32(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  DeviceBuffer buf_;
};

// ---- async transfers ------------------------------------------------------

// Enqueue host->device copy of `src` into `dst` (shapes must match).
void upload_async(Device& dev, Stream& stream, DeviceMatrix& dst,
                  const MatrixF& src);

// Enqueue device->host copy of `src` into `dst`.
void download_async(Device& dev, Stream& stream, MatrixF& dst,
                    const DeviceMatrix& src);

// Allocate + upload in one step (synchronous allocation, async copy).
DeviceMatrix to_device_async(Device& dev, Stream& stream, const MatrixF& src);

// ---- async kernels ---------------------------------------------------------

// C = alpha * A * B + beta * C.
void gemm_async(Device& dev, Stream& stream, const DeviceMatrix& a,
                const DeviceMatrix& b, DeviceMatrix& c, float alpha = 1.0f,
                float beta = 0.0f);

// out = alpha * x + y, elementwise.
void axpby_async(Device& dev, Stream& stream, float alpha,
                 const DeviceMatrix& x, const DeviceMatrix& y,
                 DeviceMatrix& out);

// out += x
void add_inplace_async(Device& dev, Stream& stream, const DeviceMatrix& x,
                       DeviceMatrix& out);

// Eq. 9 activation and its derivative mask.
void activation_async(Device& dev, Stream& stream, const DeviceMatrix& x,
                      DeviceMatrix& out);
void activation_grad_async(Device& dev, Stream& stream, const DeviceMatrix& x,
                           DeviceMatrix& out);

// Uniform fill via the device Philox generator ("curandGenerateUniform").
void philox_uniform_async(Device& dev, Stream& stream, DeviceMatrix& out,
                          float lo, float hi, std::uint64_t seed);

// ---- synchronous conveniences ----------------------------------------------

// Full round trip on the default stream: upload A and B, multiply, download.
// The workhorse of the offline phase (Z = U x V) and the non-pipelined
// online fallback.
MatrixF device_matmul(const MatrixF& a, const MatrixF& b);
MatrixF device_matmul(Device& dev, const MatrixF& a, const MatrixF& b);

}  // namespace psml::sgpu
