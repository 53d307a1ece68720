// Simulated-device tests: memory accounting, stream ordering, events,
// copies, kernel correctness (gemm bit-identical to the host engine, axpby,
// activation, philox), transfer throttling, and the activity trace.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/timer.hpp"
#include "mpc/secure_matmul.hpp"
#include "mpc/share.hpp"
#include "mpc/triplet.hpp"
#include "rng/philox.hpp"
#include "sgpu/device.hpp"
#include "sgpu/kernels.hpp"
#include "sgpu/ops.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml::sgpu {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;
using psml::test::run_parties;

Device::Config small_config() {
  Device::Config cfg;
  cfg.compute_threads = 2;
  cfg.memory_bytes = 8 << 20;  // 8 MiB
  return cfg;
}

TEST(Device, MemoryAccounting) {
  Device dev(small_config());
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  {
    DeviceBuffer b1 = dev.alloc(1 << 20);
    EXPECT_EQ(dev.allocated_bytes(), std::size_t{1} << 20);
    DeviceBuffer b2 = dev.alloc(2 << 20);
    EXPECT_EQ(dev.allocated_bytes(), std::size_t{3} << 20);
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);  // RAII release
}

TEST(Device, OutOfMemoryThrows) {
  Device dev(small_config());
  EXPECT_THROW(dev.alloc(16 << 20), DeviceError);
  // A failed alloc must not leak accounting.
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(Device, BufferMoveSemantics) {
  Device dev(small_config());
  DeviceBuffer a = dev.alloc(1024);
  void* p = a.raw();
  DeviceBuffer b = std::move(a);
  EXPECT_EQ(b.raw(), p);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(dev.allocated_bytes(), 1024u);
}

TEST(Stream, ExecutesInOrder) {
  Stream s;
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 100; ++i) {
    s.enqueue([&, i] {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(i);
    });
  }
  s.synchronize();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Stream, EventOrdersAcrossStreams) {
  Stream producer, consumer;
  std::atomic<int> value{0};
  producer.enqueue([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    value.store(42);
  });
  Event e = producer.record_event();
  consumer.wait_event(e);
  std::atomic<int> seen{-1};
  consumer.enqueue([&] { seen.store(value.load()); });
  consumer.synchronize();
  EXPECT_EQ(seen.load(), 42);
}

TEST(Stream, HostWaitOnEvent) {
  Stream s;
  s.enqueue([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  Event e = s.record_event();
  EXPECT_FALSE(e.ready());
  e.wait();
  EXPECT_TRUE(e.ready());
}

TEST(Device, CopyRoundTrip) {
  Device dev(small_config());
  const MatrixF src = random_matrix(64, 64, 81);
  Stream& s = dev.default_stream();
  DeviceMatrix d(dev, 64, 64);
  upload_async(dev, s, d, src);
  MatrixF dst(64, 64);
  download_async(dev, s, dst, d);
  s.synchronize();
  expect_near(src, dst, 0.0, "h2d/d2h round trip");
}

TEST(Device, CopyBoundsChecked) {
  Device dev(small_config());
  DeviceBuffer buf = dev.alloc(64);
  std::vector<float> host(1000);
  EXPECT_THROW(
      dev.memcpy_h2d(dev.default_stream(), buf, host.data(), 4000),
      InvalidArgument);
}

// Bit-for-bit equality. max_abs_diff cannot say this: it calls two NaNs
// unequal and +0 / -0 equal.
void expect_bitwise(const MatrixF& got, const MatrixF& want,
                    const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what << ": shape mismatch";
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t g = 0, w = 0;
    std::memcpy(&g, got.data() + i, sizeof(g));
    std::memcpy(&w, want.data() + i, sizeof(w));
    ASSERT_EQ(g, w) << what << ": element " << i << " is " << got.data()[i]
                    << ", want " << want.data()[i];
  }
}

// C = alpha * A x B + beta * C on the device through gemm_async, starting
// from `c`.
MatrixF device_gemm(Device& dev, float alpha, const MatrixF& a,
                    const MatrixF& b, float beta, const MatrixF& c) {
  Stream& s = dev.default_stream();
  DeviceMatrix da = to_device_async(dev, s, a);
  DeviceMatrix db = to_device_async(dev, s, b);
  DeviceMatrix dc = to_device_async(dev, s, c);
  gemm_async(dev, s, da, db, dc, alpha, beta);
  MatrixF out(c.rows(), c.cols());
  download_async(dev, s, out, dc);
  s.synchronize();
  return out;
}

// The same product on the host engine.
MatrixF host_gemm(float alpha, const MatrixF& a, const MatrixF& b, float beta,
                  MatrixF c) {
  tensor::gemm_parallel(alpha, a, tensor::Trans::kNo, b, tensor::Trans::kNo,
                        beta, c);
  return c;
}

struct GemmShape {
  std::size_t m, k, n;
};

std::string shape_name(const GemmShape& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
         std::to_string(s.n);
}

// Shapes on both sides of the 2^18 multiply-add pool cutoff and across the
// 6x16 register tile and the 72x256x512 (MC x KC x NC) cache tiles.
const GemmShape kEdgeShapes[] = {
    {1, 1, 1}, {7, 300, 13}, {73, 257, 513}, {200, 205, 202}};

class DeviceGemm : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeviceGemm, MatchesCpu) {
  const std::size_t n = GetParam();
  const MatrixF a = random_matrix(n, n + 5, 82);
  const MatrixF b = random_matrix(n + 5, n + 2, 83);
  expect_bitwise(device_matmul(a, b), tensor::matmul(a, b), "device gemm");
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeviceGemm,
                         ::testing::Values(4, 17, 64, 128, 200));

TEST(DeviceGemmBitwise, TileEdgeShapes) {
  Device dev(small_config());
  for (const GemmShape& s : kEdgeShapes) {
    const MatrixF a = random_matrix(s.m, s.k, 84);
    const MatrixF b = random_matrix(s.k, s.n, 85);
    expect_bitwise(device_matmul(dev, a, b), tensor::matmul(a, b),
                   shape_name(s));
  }
}

TEST(DeviceGemmBitwise, BetaZeroOverwritesNaN) {
  Device dev(small_config());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const GemmShape& s : kEdgeShapes) {
    const MatrixF a = random_matrix(s.m, s.k, 86);
    const MatrixF b = random_matrix(s.k, s.n, 87);
    const MatrixF c(s.m, s.n, nan);
    const MatrixF got = device_gemm(dev, 0.75f, a, b, 0.0f, c);
    expect_bitwise(got, host_gemm(0.75f, a, b, 0.0f, c), shape_name(s));
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_FALSE(std::isnan(got.data()[i])) << shape_name(s) << " " << i;
    }
  }
}

TEST(DeviceGemmBitwise, BetaOneAccumulates) {
  Device dev(small_config());
  for (const GemmShape& s : kEdgeShapes) {
    const MatrixF a = random_matrix(s.m, s.k, 88);
    const MatrixF b = random_matrix(s.k, s.n, 89);
    const MatrixF c = random_matrix(s.m, s.n, 90);
    expect_bitwise(device_gemm(dev, -1.0f, a, b, 1.0f, c),
                   host_gemm(-1.0f, a, b, 1.0f, c), shape_name(s));
  }
}

TEST(DeviceGemmBitwise, NaNInfAndSignedZeroOperands) {
  Device dev(small_config());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {nan, inf, -inf, 0.0f, -0.0f};
  for (const GemmShape& s : kEdgeShapes) {
    MatrixF a = random_matrix(s.m, s.k, 91);
    MatrixF b = random_matrix(s.k, s.n, 92);
    // Sprinkle the specials over both operands at co-prime strides.
    for (std::size_t i = 0; i < a.size(); i += 7) a.data()[i] = specials[i % 5];
    for (std::size_t i = 0; i < b.size(); i += 11) b.data()[i] = specials[i % 5];
    const MatrixF c(s.m, s.n, -0.0f);
    expect_bitwise(device_gemm(dev, 1.0f, a, b, 0.0f, c),
                   host_gemm(1.0f, a, b, 0.0f, c), shape_name(s));
    expect_bitwise(device_gemm(dev, -1.0f, a, b, 1.0f, c),
                   host_gemm(-1.0f, a, b, 1.0f, c), shape_name(s));
  }
}

TEST(DeviceGemmBitwise, ZeroTimesNaNIsNaN) {
  // A = 0 with B(0,0) = NaN: every C(i,0) has a 0 * NaN term, so it is NaN.
  // A kernel that skips zero A terms returns 0 here.
  Device dev(small_config());
  for (const GemmShape& s : kEdgeShapes) {
    const MatrixF a(s.m, s.k, 0.0f);
    MatrixF b = random_matrix(s.k, s.n, 93);
    b(0, 0) = std::numeric_limits<float>::quiet_NaN();
    const MatrixF c(s.m, s.n, 0.0f);
    const MatrixF got = device_gemm(dev, 1.0f, a, b, 0.0f, c);
    for (std::size_t i = 0; i < s.m; ++i) {
      ASSERT_TRUE(std::isnan(got(i, 0))) << shape_name(s) << " row " << i;
    }
    expect_bitwise(got, host_gemm(1.0f, a, b, 0.0f, c), shape_name(s));
  }
}

TEST(DeviceGemmBitwise, FusedEq8OnDeviceMatchesCpu) {
  // m*n*k above the pool cutoff and m over one 72-row tile, so the device
  // run partitions the tile grid on its pool.
  const std::size_t m = 100, k = 64, n = 48;
  const MatrixF a = random_matrix(m, k, 94);
  const MatrixF b = random_matrix(k, n, 95);
  mpc::TripletDealer dealer(nullptr, {false, false, 96});
  auto [t0, t1] = dealer.make_matmul(m, k, n);
  const auto sa = mpc::share_float(a, 97);
  const auto sb = mpc::share_float(b, 98);

  auto run = [&](bool on_device) {
    mpc::PartyOptions opts = mpc::PartyOptions::parsecureml();
    opts.use_gpu = on_device;
    opts.adaptive = false;  // no dispatcher: the flag alone picks the engine
    std::pair<MatrixF, MatrixF> c;
    run_parties(
        opts,
        [&](mpc::PartyContext& ctx) {
          c.first = mpc::secure_matmul(ctx, sa.s0, sb.s0, t0);
        },
        [&](mpc::PartyContext& ctx) {
          c.second = mpc::secure_matmul(ctx, sa.s1, sb.s1, t1);
        });
    return c;
  };
  const auto dev = run(true);
  const auto cpu = run(false);
  expect_bitwise(dev.first, cpu.first, "party 0 share");
  expect_bitwise(dev.second, cpu.second, "party 1 share");
}

TEST(Kernels, Axpby) {
  Device dev(small_config());
  const MatrixF x = random_matrix(10, 10, 88);
  const MatrixF y = random_matrix(10, 10, 89);
  MatrixF out(10, 10);
  k_axpby(dev, -1.0f, x.data(), y.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_FLOAT_EQ(out.data()[i], -x.data()[i] + y.data()[i]);
  }
}

TEST(Kernels, ActivationPiecewise) {
  Device dev(small_config());
  const MatrixF x{{-2.0f, -0.5f, -0.2f, 0.0f, 0.49f, 0.5f, 3.0f}};
  MatrixF out(1, 7), grad(1, 7);
  k_activation_piecewise(dev, x.data(), out.data(), 7);
  k_activation_piecewise_grad(dev, x.data(), grad.data(), 7);
  const float expect_v[] = {0.0f, 0.0f, 0.3f, 0.5f, 0.99f, 1.0f, 1.0f};
  const float expect_g[] = {0.0f, 0.0f, 1.0f, 1.0f, 1.0f, 0.0f, 0.0f};
  for (int i = 0; i < 7; ++i) {
    EXPECT_NEAR(out.data()[i], expect_v[i], 1e-6) << i;
    EXPECT_FLOAT_EQ(grad.data()[i], expect_g[i]) << i;
  }
}

TEST(Kernels, PhiloxKernelMatchesHostPhilox) {
  Device dev(small_config());
  MatrixF dev_out(33, 17), host_out(33, 17);
  k_philox_uniform(dev, dev_out.data(), dev_out.size(), -1.0f, 1.0f, 4242);
  rng::philox_fill_uniform(host_out, -1.0f, 1.0f, 4242);
  expect_near(dev_out, host_out, 0.0, "philox kernel");
}

TEST(Device, PipelineOverlapsCopiesAndCompute) {
  // With a throttled copy engine, two streams (copy || compute) must finish
  // faster than the same work serialized on one stream.
  Device::Config cfg = small_config();
  cfg.pcie_gbps = 0.5;  // slow PCIe so copies dominate
  Device dev(cfg);
  const std::size_t n = 256;
  const MatrixF a = random_matrix(n, n, 90);

  auto run = [&](bool overlapped) {
    auto copy_s = dev.create_stream();
    auto comp_s = dev.create_stream();
    Stream& cs = overlapped ? *copy_s : *comp_s;
    Timer t;
    std::vector<DeviceMatrix> bufs;
    for (int i = 0; i < 4; ++i) {
      bufs.emplace_back(dev, n, n);
      upload_async(dev, cs, bufs.back(), a);
      Event e = cs.record_event();
      comp_s->wait_event(e);
      dev.launch(*comp_s, "spin", [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
      });
    }
    comp_s->synchronize();
    copy_s->synchronize();
    return t.seconds();
  };

  // Best-of-3 per mode: wall-clock under ctest -j load is noisy.
  double serial = 1e100, overlapped = 1e100;
  for (int i = 0; i < 3; ++i) {
    serial = std::min(serial, run(false));
    overlapped = std::min(overlapped, run(true));
  }
  EXPECT_LT(overlapped, serial);
}

TEST(Trace, RecordsActivities) {
  Device dev(small_config());
  dev.trace().clear();
  const MatrixF a = random_matrix(32, 32, 91);
  (void)device_matmul(dev, a, a);
  const auto summary = dev.trace().summary();
  EXPECT_EQ(summary.at("memcpy_h2d").count, 2u);
  EXPECT_EQ(summary.at("memcpy_d2h").count, 1u);
  EXPECT_EQ(summary.at("kernel:gemm").count, 1u);
  EXPECT_GT(summary.at("kernel:gemm").total_sec, 0.0);
  EXPECT_EQ(summary.at("memcpy_h2d").bytes, 2 * a.bytes());
}

TEST(Trace, DisableStopsRecording) {
  Device dev(small_config());
  dev.trace().clear();
  dev.trace().set_enabled(false);
  const MatrixF a = random_matrix(8, 8, 92);
  (void)device_matmul(dev, a, a);
  EXPECT_TRUE(dev.trace().snapshot().empty());
  dev.trace().set_enabled(true);
}

TEST(Device, ThrottleEnforcesBandwidth) {
  Device::Config cfg = small_config();
  cfg.pcie_gbps = 1.0;  // 1 GB/s
  Device dev(cfg);
  const std::size_t bytes = 4 << 20;  // 4 MiB -> >= 4 ms at 1 GB/s
  DeviceBuffer buf = dev.alloc(bytes);
  std::vector<float> host(bytes / sizeof(float), 1.0f);
  Timer t;
  dev.memcpy_h2d(dev.default_stream(), buf, host.data(), bytes);
  dev.default_stream().synchronize();
  EXPECT_GE(t.seconds(), 0.003);
}

TEST(Device, GlobalDeviceIsSingleton) {
  EXPECT_EQ(&Device::global(), &Device::global());
}

}  // namespace
}  // namespace psml::sgpu
