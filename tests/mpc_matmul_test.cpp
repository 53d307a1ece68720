// Two-party secure matmul tests: correctness of the triplet protocol across
// every execution mode (Eq. 6 naive, Eq. 8 CPU, Eq. 8 GPU pipelined,
// compression on/off) and the elementwise protocol.
#include <gtest/gtest.h>

#include <array>
#include <functional>

#include "mpc/activation.hpp"
#include "mpc/ring_protocol.hpp"
#include "mpc/secure_matmul.hpp"
#include "mpc/secure_mul.hpp"
#include "mpc/share.hpp"
#include "mpc/triplet.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml::mpc {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;
using psml::test::run_parties;

// Tolerance: float shares carry mask radius ~16, so reconstruction noise is
// ~16 * k * eps per output element.
double tol(std::size_t k) { return 2e-4 * static_cast<double>(k) + 1e-4; }

struct ModeCase {
  const char* name;
  PartyOptions opts;
};

// gtest would otherwise print the case as a raw byte dump: the name pointer
// (moved by ASLR on every run) plus PartyOptions' padding bytes, so the
// discovered test names changed from one build to the next.
void PrintTo(const ModeCase& mode, std::ostream* os) { *os << mode.name; }

std::vector<ModeCase> all_modes() {
  std::vector<ModeCase> modes;
  modes.push_back({"secureml_baseline", PartyOptions::secureml_baseline()});
  modes.push_back({"parsecureml_full", PartyOptions::parsecureml()});

  PartyOptions cpu_eq8 = PartyOptions::parsecureml();
  cpu_eq8.use_gpu = false;
  cpu_eq8.adaptive = false;
  modes.push_back({"cpu_eq8", cpu_eq8});

  PartyOptions gpu_nopipe = PartyOptions::parsecureml();
  gpu_nopipe.use_pipeline = false;
  gpu_nopipe.adaptive = false;
  modes.push_back({"gpu_no_pipeline", gpu_nopipe});

  PartyOptions gpu_pipe = PartyOptions::parsecureml();
  gpu_pipe.adaptive = false;  // force GPU even for small matrices
  modes.push_back({"gpu_pipelined", gpu_pipe});

  PartyOptions no_comp = PartyOptions::parsecureml();
  no_comp.use_compression = false;
  modes.push_back({"no_compression", no_comp});

  PartyOptions eq6_parallel = PartyOptions::parsecureml();
  eq6_parallel.use_gpu = false;
  eq6_parallel.adaptive = false;
  eq6_parallel.fuse_eq8 = false;
  modes.push_back({"cpu_eq6", eq6_parallel});
  return modes;
}

class SecureMatmulModes : public ::testing::TestWithParam<ModeCase> {};

TEST_P(SecureMatmulModes, ReconstructsToPlainProduct) {
  const auto& mode = GetParam();
  const std::size_t m = 24, k = 40, n = 16;
  const MatrixF a = random_matrix(m, k, 201);
  const MatrixF b = random_matrix(k, n, 202);
  const MatrixF expected = tensor::matmul(a, b);

  sgpu::Device* dev =
      mode.opts.use_gpu ? &sgpu::Device::global() : nullptr;
  TripletDealer dealer(dev, {mode.opts.use_gpu, false, 77});
  auto [t0, t1] = dealer.make_matmul(m, k, n);
  const auto sa = share_float(a, 11);
  const auto sb = share_float(b, 12);

  MatrixF c0, c1;
  run_parties(
      mode.opts,
      [&](PartyContext& ctx) { c0 = secure_matmul(ctx, sa.s0, sb.s0, t0); },
      [&](PartyContext& ctx) { c1 = secure_matmul(ctx, sa.s1, sb.s1, t1); });

  expect_near(reconstruct_float(c0, c1), expected, tol(k), mode.name);
}

TEST_P(SecureMatmulModes, SequenceOfMultiplications) {
  // Chained products (the shape of a forward pass) stay correct.
  const auto& mode = GetParam();
  const std::size_t n = 12;
  const MatrixF a = random_matrix(n, n, 203);
  const MatrixF b = random_matrix(n, n, 204);
  const MatrixF c = random_matrix(n, n, 205);
  const MatrixF expected = tensor::matmul(tensor::matmul(a, b), c);

  sgpu::Device* dev =
      mode.opts.use_gpu ? &sgpu::Device::global() : nullptr;
  TripletDealer dealer(dev, {mode.opts.use_gpu, false, 78});
  auto [t0a, t1a] = dealer.make_matmul(n, n, n);
  auto [t0b, t1b] = dealer.make_matmul(n, n, n);
  const auto sa = share_float(a, 13);
  const auto sb = share_float(b, 14);
  const auto sc = share_float(c, 15);

  MatrixF r0, r1;
  run_parties(
      mode.opts,
      [&](PartyContext& ctx) {
        MatrixF ab = secure_matmul(ctx, sa.s0, sb.s0, t0a);
        r0 = secure_matmul(ctx, ab, sc.s0, t0b);
      },
      [&](PartyContext& ctx) {
        MatrixF ab = secure_matmul(ctx, sa.s1, sb.s1, t1a);
        r1 = secure_matmul(ctx, ab, sc.s1, t1b);
      });

  expect_near(reconstruct_float(r0, r1), expected, 10 * tol(n), mode.name);
}

INSTANTIATE_TEST_SUITE_P(Modes, SecureMatmulModes,
                         ::testing::ValuesIn(all_modes()),
                         [](const auto& info) { return info.param.name; });

// ---- Exact wire cost of every secure product kind -------------------------
//
// Each protocol op runs once per party over a LocalChannel pair; the table
// pins the messages and payload bytes each party sends and checks that the
// outputs reconstruct. Payload sizes follow the wire formats: a dense matrix
// is a 12-byte header plus its elements (net/serialize.hpp), the compression
// endpoint prefixes one subkind byte per body, and a coalesced E/F pair adds
// a 5-byte [kPair][u32 len_a] prefix (compress/compressed_channel.hpp).

std::uint64_t dense_f32(std::size_t r, std::size_t c) { return 12 + 4 * r * c; }
std::uint64_t dense_u64(std::size_t r, std::size_t c) { return 12 + 8 * r * c; }
std::uint64_t body_bytes(std::size_t r, std::size_t c) { return 1 + dense_f32(r, c); }
std::uint64_t pair_bytes(std::uint64_t a, std::uint64_t b) { return 5 + a + b; }

struct WireCount {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  bool operator==(const WireCount&) const = default;
};
void PrintTo(const WireCount& w, std::ostream* os) {
  *os << w.messages << " msg / " << w.bytes << " B";
}
using Sent = std::array<WireCount, 2>;

constexpr std::size_t kM = 4, kK = 6, kN = 5;

// Runs `op` as both parties (it picks its shares by ctx.id()) and returns
// what each party put on the wire.
Sent run_counted(const std::function<void(PartyContext&)>& op) {
  PartyOptions opts = PartyOptions::parsecureml();
  opts.use_gpu = false;
  opts.adaptive = false;
  Sent sent;
  const auto counted = [&](PartyContext& ctx) {
    op(ctx);
    const auto& s = ctx.peer().stats();
    sent[static_cast<std::size_t>(ctx.id())] = {s.messages_sent.load(),
                                                s.bytes_sent.load()};
  };
  run_parties(opts, counted, counted);
  return sent;
}

template <typename T>
const Matrix<T>& half(const SharePair<T>& p, int i) {
  return i == 0 ? p.s0 : p.s1;
}
template <typename T>
const T& half(const std::pair<T, T>& p, int i) {
  return i == 0 ? p.first : p.second;
}

Sent wire_secure_matmul() {
  const MatrixF a = random_matrix(kM, kK, 301);
  const MatrixF b = random_matrix(kK, kN, 302);
  TripletDealer dealer(nullptr, {false, false, 77});
  const auto t = dealer.make_matmul(kM, kK, kN);
  const auto sa = share_float(a, 21);
  const auto sb = share_float(b, 22);
  MatrixF c[2];
  const Sent sent = run_counted([&](PartyContext& ctx) {
    const int i = ctx.id();
    c[i] = secure_matmul(ctx, half(sa, i), half(sb, i), half(t, i));
  });
  expect_near(reconstruct_float(c[0], c[1]), tensor::matmul(a, b), tol(kK));
  return sent;
}

Sent wire_secure_mul() {
  const MatrixF x = random_matrix(kM, kN, 303);
  const MatrixF y = random_matrix(kM, kN, 304);
  TripletDealer dealer(nullptr, {false, false, 78});
  const auto t = dealer.make_elementwise(kM, kN);
  const auto sx = share_float(x, 23);
  const auto sy = share_float(y, 24);
  MatrixF c[2];
  const Sent sent = run_counted([&](PartyContext& ctx) {
    const int i = ctx.id();
    c[i] = secure_mul(ctx, half(sx, i), half(sy, i), half(t, i));
  });
  MatrixF expected;
  tensor::hadamard(x, y, expected);
  expect_near(reconstruct_float(c[0], c[1]), expected, 1e-3);
  return sent;
}

Sent wire_secure_activation() {
  const MatrixF x = random_matrix(kM, kN, 305, -2.0f, 2.0f);
  TripletDealer dealer(nullptr, {false, false, 79});
  const auto mat = dealer.make_activation(kM, kN);
  const auto sx = share_float(x, 25);
  ActivationResult r[2];
  const Sent sent = run_counted([&](PartyContext& ctx) {
    const int i = ctx.id();
    r[i] = secure_activation(ctx, half(sx, i), half(mat, i));
  });
  expect_near(reconstruct_float(r[0].value_share, r[1].value_share),
              activation_ref(x), 2e-3, "activation value");
  expect_near(r[0].grad_mask, activation_grad_ref(x), 0.0, "p0 mask");
  expect_near(r[1].grad_mask, activation_grad_ref(x), 0.0, "p1 mask");
  return sent;
}

Sent wire_secure_less_than() {
  const MatrixF x = random_matrix(kM, kN, 306, -2.0f, 2.0f);
  TripletDealer dealer(nullptr, {false, false, 80});
  const auto mat = dealer.make_activation(kM, kN);
  const auto sx = share_float(x, 26);
  MatrixF mask[2];
  const Sent sent = run_counted([&](PartyContext& ctx) {
    const int i = ctx.id();
    mask[i] = secure_less_than(ctx, half(sx, i), 0.25f, half(mat, i));
  });
  MatrixF expected(kM, kN);
  for (std::size_t idx = 0; idx < x.size(); ++idx) {
    expected.data()[idx] = x.data()[idx] < 0.25f ? 1.0f : 0.0f;
  }
  expect_near(mask[0], expected, 0.0, "p0 mask");
  expect_near(mask[1], expected, 0.0, "p1 mask");
  return sent;
}

Sent wire_open_operand() {
  const MatrixF x = random_matrix(kM, kK, 307);
  TripletDealer dealer(nullptr, {false, false, 81});
  const auto t = dealer.make_matmul(kM, kK, kN);
  const auto sx = share_float(x, 27);
  MatrixF opened[2];
  const Sent sent = run_counted([&](PartyContext& ctx) {
    const int i = ctx.id();
    const net::Tag tag = tags::kExchangeE + ctx.next_seq();
    opened[i] = open_operand(ctx, half(sx, i), half(t, i).u, tag, 4243);
  });
  MatrixF expected;
  tensor::sub(x, reconstruct_float(t.first.u, t.second.u), expected);
  expect_near(opened[0], expected, 1e-4, "p0 open");
  expect_near(opened[1], opened[0], 0.0, "both parties open the same value");
  return sent;
}

Sent wire_refresh_share() {
  const MatrixF x = random_matrix(kM, kN, 308);
  const auto sx = share_float(x, 28);
  MatrixF r[2];
  const Sent sent = run_counted([&](PartyContext& ctx) {
    const int i = ctx.id();
    r[i] = refresh_share(ctx, half(sx, i));
  });
  expect_near(reconstruct_float(r[0], r[1]), x, 1e-4);
  return sent;
}

Sent wire_secure_matmul_ring() {
  const MatrixF a = random_matrix(kM, kK, 309);
  const MatrixF b = random_matrix(kK, kN, 310);
  const auto sa = share_ring(encode_fixed(a), 29);
  const auto sb = share_ring(encode_fixed(b), 30);
  const auto t = make_ring_matmul_triplet(kM, kK, kN, 31);
  MatrixU64 c[2];
  const Sent sent = run_counted([&](PartyContext& ctx) {
    const int i = ctx.id();
    c[i] = secure_matmul_ring(ctx, half(sa, i), half(sb, i), half(t, i));
  });
  expect_near(decode_fixed(reconstruct_ring(c[0], c[1])), tensor::matmul(a, b),
              static_cast<double>(kK + 4) * 2.0 / kFixedScale);
  return sent;
}

struct WireCase {
  const char* name;
  Sent (*run)();
  Sent expected;
};
void PrintTo(const WireCase& c, std::ostream* os) { *os << c.name; }

std::vector<WireCase> wire_cases() {
  // One coalesced E/F frame per product; activation and less-than add raw
  // dense opens of the masked products; refresh is one-way.
  const WireCount mm{1, pair_bytes(body_bytes(kM, kK), body_bytes(kK, kN))};
  const WireCount mul{1, pair_bytes(body_bytes(kM, kN), body_bytes(kM, kN))};
  const WireCount open{1, dense_f32(kM, kN)};
  return {
      {"secure_matmul", wire_secure_matmul, {mm, mm}},
      {"secure_mul", wire_secure_mul, {mul, mul}},
      {"secure_activation",
       wire_secure_activation,
       {WireCount{4, 2 * (mul.bytes + open.bytes)},
        WireCount{4, 2 * (mul.bytes + open.bytes)}}},
      {"secure_less_than",
       wire_secure_less_than,
       {WireCount{2, mul.bytes + open.bytes},
        WireCount{2, mul.bytes + open.bytes}}},
      {"open_operand",
       wire_open_operand,
       {WireCount{1, body_bytes(kM, kK)}, WireCount{1, body_bytes(kM, kK)}}},
      {"refresh_share", wire_refresh_share, {open, WireCount{0, 0}}},
      {"secure_matmul_ring",
       wire_secure_matmul_ring,
       {WireCount{2, dense_u64(kM, kK) + dense_u64(kK, kN)},
        WireCount{2, dense_u64(kM, kK) + dense_u64(kK, kN)}}},
  };
}

class ProtocolWire : public ::testing::TestWithParam<WireCase> {};

TEST_P(ProtocolWire, ExactMessagesAndBytesPerParty) {
  const WireCase& c = GetParam();
  const Sent sent = c.run();
  EXPECT_EQ(sent[0], c.expected[0]) << "party 0";
  EXPECT_EQ(sent[1], c.expected[1]) << "party 1";
}

INSTANTIATE_TEST_SUITE_P(Ops, ProtocolWire, ::testing::ValuesIn(wire_cases()),
                         [](const auto& info) { return info.param.name; });

TEST(SecureMatmul, LargeProductOnDeviceKeepsFloatAccuracy) {
  // 2 * 128 * 256 * 256 = 2^24 flops, forced onto the device. Float shares
  // are masked at radius ~16, so any operand rounding coarser than f32 shows
  // here: binary16 operands put the reconstruction ~0.2 off, over tol(k).
  const std::size_t m = 128, k = 256, n = 256;
  const MatrixF a = random_matrix(m, k, 210);
  const MatrixF b = random_matrix(k, n, 211);
  PartyOptions opts = PartyOptions::parsecureml();
  opts.adaptive = false;
  TripletDealer dealer(&sgpu::Device::global(), {true, false, 81});
  auto [t0, t1] = dealer.make_matmul(m, k, n);
  const auto sa = share_float(a, 18);
  const auto sb = share_float(b, 19);
  MatrixF c0, c1;
  run_parties(
      opts,
      [&](PartyContext& ctx) { c0 = secure_matmul(ctx, sa.s0, sb.s0, t0); },
      [&](PartyContext& ctx) { c1 = secure_matmul(ctx, sa.s1, sb.s1, t1); });
  expect_near(reconstruct_float(c0, c1), tensor::matmul(a, b), tol(k),
              "128x256x256 on the device");
}

TEST(SecureMatmul, NonSquareShapes) {
  const std::size_t m = 3, k = 57, n = 21;
  const MatrixF a = random_matrix(m, k, 206);
  const MatrixF b = random_matrix(k, n, 207);
  TripletDealer dealer(nullptr, {false, false, 79});
  auto [t0, t1] = dealer.make_matmul(m, k, n);
  const auto sa = share_float(a, 16);
  const auto sb = share_float(b, 17);
  PartyOptions opts = PartyOptions::parsecureml();
  opts.use_gpu = false;
  opts.adaptive = false;
  MatrixF c0, c1;
  run_parties(
      opts,
      [&](PartyContext& ctx) { c0 = secure_matmul(ctx, sa.s0, sb.s0, t0); },
      [&](PartyContext& ctx) { c1 = secure_matmul(ctx, sa.s1, sb.s1, t1); });
  expect_near(reconstruct_float(c0, c1), tensor::matmul(a, b), tol(k),
              "non-square");
}

TEST(SecureMatmul, TripletShapeMismatchThrows) {
  TripletDealer dealer(nullptr, {false, false, 80});
  auto [t0, t1] = dealer.make_matmul(4, 4, 4);
  PartyOptions opts = PartyOptions::secureml_baseline();
  const MatrixF wrong = random_matrix(5, 4, 208);
  const MatrixF b = random_matrix(4, 4, 209);
  EXPECT_THROW(
      run_parties(
          opts,
          [&](PartyContext& ctx) { secure_matmul(ctx, wrong, b, t0); },
          [&](PartyContext& ctx) { secure_matmul(ctx, wrong, b, t1); }),
      InvalidArgument);
}

TEST(SecureMatmul, StorePopsInOrder) {
  TripletDealer dealer(nullptr, {false, false, 81});
  auto [st0, st1] = dealer.generate({{TripletKind::kMatMul, 4, 6, 5},
                                     {TripletKind::kMatMul, 2, 3, 2}});
  EXPECT_EQ(st0.matmul_size(), 2u);
  const TripletShare first = st0.pop_matmul();
  EXPECT_EQ(first.u.rows(), 4u);
  EXPECT_EQ(first.u.cols(), 6u);
  const TripletShare second = st0.pop_matmul();
  EXPECT_EQ(second.u.rows(), 2u);
  EXPECT_THROW(st0.pop_matmul(), Error);
}

TEST(SecureMatmul, DealerTripletsAreConsistent) {
  // U, V, Z reconstruct to a valid Beaver triple: Z = U x V.
  sgpu::Device& dev = sgpu::Device::global();
  TripletDealer dealer(&dev, {true, false, 82});
  auto [t0, t1] = dealer.make_matmul(13, 9, 7);
  const MatrixF u = reconstruct_float(t0.u, t1.u);
  const MatrixF v = reconstruct_float(t0.v, t1.v);
  const MatrixF z = reconstruct_float(t0.z, t1.z);
  expect_near(z, tensor::matmul(u, v), tol(9), "dealer invariant");
}

TEST(SecureMul, ElementwiseReconstructs) {
  const std::size_t m = 15, n = 33;
  const MatrixF x = random_matrix(m, n, 210);
  const MatrixF y = random_matrix(m, n, 211);
  MatrixF expected;
  tensor::hadamard(x, y, expected);

  TripletDealer dealer(nullptr, {false, false, 83});
  auto [t0, t1] = dealer.make_elementwise(m, n);
  const auto sx = share_float(x, 18);
  const auto sy = share_float(y, 19);
  PartyOptions opts = PartyOptions::parsecureml();
  opts.use_gpu = false;
  MatrixF c0, c1;
  run_parties(
      opts,
      [&](PartyContext& ctx) { c0 = secure_mul(ctx, sx.s0, sy.s0, t0); },
      [&](PartyContext& ctx) { c1 = secure_mul(ctx, sx.s1, sy.s1, t1); });
  expect_near(reconstruct_float(c0, c1), expected, 1e-3, "secure_mul");
}

TEST(SecureMul, ShapeMismatchThrows) {
  TripletDealer dealer(nullptr, {false, false, 84});
  auto [t0, t1] = dealer.make_elementwise(3, 3);
  PartyOptions opts = PartyOptions::secureml_baseline();
  const MatrixF x = random_matrix(3, 3, 212);
  const MatrixF y = random_matrix(3, 4, 213);
  EXPECT_THROW(
      run_parties(
          opts, [&](PartyContext& ctx) { secure_mul(ctx, x, y, t0); },
          [&](PartyContext& ctx) { secure_mul(ctx, x, y, t1); }),
      InvalidArgument);
}

TEST(SecureMatmul, CompressionAcrossEpochsReducesTraffic) {
  // Same operands re-multiplied epoch after epoch (stable comm keys): the
  // E/F deltas are zero, so compressed mode sends far fewer bytes.
  const std::size_t n = 48;
  const MatrixF a = random_matrix(n, n, 214);
  const MatrixF b = random_matrix(n, n, 215);
  const auto sa = share_float(a, 20);
  const auto sb = share_float(b, 21);

  auto run_epochs = [&](bool compression) {
    PartyOptions opts = PartyOptions::parsecureml();
    opts.use_gpu = false;
    opts.adaptive = false;
    opts.use_compression = compression;
    TripletDealer dealer(nullptr, {false, false, 85});
    constexpr int kEpochs = 5;
    std::vector<std::pair<TripletShare, TripletShare>> triplets;
    for (int e = 0; e < kEpochs; ++e) triplets.push_back(dealer.make_matmul(n, n, n));
    std::uint64_t total_sent = 0;
    run_parties(
        opts,
        [&](PartyContext& ctx) {
          for (int e = 0; e < kEpochs; ++e) {
            // NOTE: the triplet changes per epoch, so E/F change too; but
            // re-using the *same* triplet each epoch models the all-zero
            // delta case. Use triplets[0] deliberately.
            (void)secure_matmul(ctx, sa.s0, sb.s0, triplets[0].first, 4242);
          }
          total_sent = ctx.peer().stats().bytes_sent.load();
        },
        [&](PartyContext& ctx) {
          for (int e = 0; e < kEpochs; ++e) {
            (void)secure_matmul(ctx, sa.s1, sb.s1, triplets[0].second, 4242);
          }
        });
    return total_sent;
  };

  const std::uint64_t with = run_epochs(true);
  const std::uint64_t without = run_epochs(false);
  EXPECT_LT(with, without / 2);
}

}  // namespace
}  // namespace psml::mpc
