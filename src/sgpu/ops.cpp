#include "sgpu/ops.hpp"

namespace psml::sgpu {

void upload_async(Device& dev, Stream& stream, DeviceMatrix& dst,
                  const MatrixF& src) {
  PSML_REQUIRE(dst.rows() == src.rows() && dst.cols() == src.cols(),
               "upload_async: shape mismatch");
  dev.memcpy_h2d(stream, dst.buffer(), src.data(), src.bytes());
}

void download_async(Device& dev, Stream& stream, MatrixF& dst,
                    const DeviceMatrix& src) {
  PSML_REQUIRE(dst.rows() == src.rows() && dst.cols() == src.cols(),
               "download_async: shape mismatch");
  dev.memcpy_d2h(stream, dst.data(), src.buffer(), src.bytes());
}

DeviceMatrix to_device_async(Device& dev, Stream& stream, const MatrixF& src) {
  DeviceMatrix d(dev, src.rows(), src.cols());
  upload_async(dev, stream, d, src);
  return d;
}

void gemm_async(Device& dev, Stream& stream, const DeviceMatrix& a,
                const DeviceMatrix& b, DeviceMatrix& c, float alpha,
                float beta) {
  PSML_REQUIRE(a.cols() == b.rows(), "gemm_async: inner dimensions disagree");
  PSML_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
               "gemm_async: output shape mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const std::size_t m = a.rows(), n = b.cols(), k = a.cols();
  dev.launch(stream, "gemm", [&dev, pa, pb, pc, m, n, k, alpha, beta] {
    k_gemm(dev, pa, pb, pc, m, n, k, alpha, beta);
  });
}

void axpby_async(Device& dev, Stream& stream, float alpha,
                 const DeviceMatrix& x, const DeviceMatrix& y,
                 DeviceMatrix& out) {
  PSML_REQUIRE(x.size() == y.size() && x.size() == out.size(),
               "axpby_async: size mismatch");
  const float* px = x.data();
  const float* py = y.data();
  float* po = out.data();
  const std::size_t n = x.size();
  dev.launch(stream, "axpby", [&dev, alpha, px, py, po, n] {
    k_axpby(dev, alpha, px, py, po, n);
  });
}

void add_inplace_async(Device& dev, Stream& stream, const DeviceMatrix& x,
                       DeviceMatrix& out) {
  PSML_REQUIRE(x.size() == out.size(), "add_inplace_async: size mismatch");
  const float* px = x.data();
  float* po = out.data();
  const std::size_t n = x.size();
  dev.launch(stream, "add",
             [&dev, px, po, n] { k_add_inplace(dev, px, po, n); });
}

void activation_async(Device& dev, Stream& stream, const DeviceMatrix& x,
                      DeviceMatrix& out) {
  PSML_REQUIRE(x.size() == out.size(), "activation_async: size mismatch");
  const float* px = x.data();
  float* po = out.data();
  const std::size_t n = x.size();
  dev.launch(stream, "activation",
             [&dev, px, po, n] { k_activation_piecewise(dev, px, po, n); });
}

void activation_grad_async(Device& dev, Stream& stream, const DeviceMatrix& x,
                           DeviceMatrix& out) {
  PSML_REQUIRE(x.size() == out.size(), "activation_grad_async: size mismatch");
  const float* px = x.data();
  float* po = out.data();
  const std::size_t n = x.size();
  dev.launch(stream, "activation_grad", [&dev, px, po, n] {
    k_activation_piecewise_grad(dev, px, po, n);
  });
}

void philox_uniform_async(Device& dev, Stream& stream, DeviceMatrix& out,
                          float lo, float hi, std::uint64_t seed) {
  float* po = out.data();
  const std::size_t n = out.size();
  dev.launch(stream, "philox_uniform", [&dev, po, n, lo, hi, seed] {
    k_philox_uniform(dev, po, n, lo, hi, seed);
  });
}

MatrixF device_matmul(Device& dev, const MatrixF& a, const MatrixF& b) {
  PSML_REQUIRE(a.cols() == b.rows(),
               "device_matmul: inner dimensions disagree");
  Stream& s = dev.default_stream();
  DeviceMatrix da = to_device_async(dev, s, a);
  DeviceMatrix db = to_device_async(dev, s, b);
  DeviceMatrix dc(dev, a.rows(), b.cols());
  gemm_async(dev, s, da, db, dc, 1.0f, 0.0f);
  MatrixF c(a.rows(), b.cols());
  download_async(dev, s, c, dc);
  s.synchronize();
  return c;
}

MatrixF device_matmul(const MatrixF& a, const MatrixF& b) {
  return device_matmul(Device::global(), a, b);
}

}  // namespace psml::sgpu
