// Compressed-transmission tests: dense/delta round trips, the 75 % sparsity
// threshold, byte accounting, baselines, and failure injection.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "compress/compressed_channel.hpp"
#include "net/local_channel.hpp"
#include "net/serialize.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml::compress {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;

struct Pair {
  net::ChannelPair chans;
  std::unique_ptr<Endpoint> a, b;

  explicit Pair(Config cfg = Config()) {
    chans = net::LocalChannel::make_pair();
    a = std::make_unique<Endpoint>(*chans.a, cfg);
    b = std::make_unique<Endpoint>(*chans.b, cfg);
  }
};

// Applies a sparse delta: flips `changes` entries by +1.
MatrixF apply_sparse_delta(MatrixF m, std::size_t changes) {
  for (std::size_t i = 0; i < changes; ++i) {
    m.data()[(i * 97) % m.size()] += 1.0f;
  }
  return m;
}

TEST(Compress, FirstSendIsDense) {
  Pair p;
  const MatrixF m = random_matrix(20, 20, 51);
  p.a->send(1, 100, m);
  expect_near(p.b->recv(1, 100), m, 0.0, "first send");
  EXPECT_EQ(p.a->stats().compressed_messages, 0u);
}

TEST(Compress, SparseDeltaIsCompressed) {
  Pair p;
  const MatrixF m1 = random_matrix(64, 64, 52);
  const MatrixF m2 = apply_sparse_delta(m1, 10);  // 10/4096 changed
  p.a->send(1, 100, m1);
  (void)p.b->recv(1, 100);
  p.a->send(1, 100, m2);
  expect_near(p.b->recv(1, 100), m2, 0.0, "delta recv");
  EXPECT_EQ(p.a->stats().compressed_messages, 1u);
  EXPECT_LT(p.a->stats().sent_bytes, p.a->stats().dense_bytes);
}

TEST(Compress, DenseDeltaFallsBack) {
  Pair p;
  const MatrixF m1 = random_matrix(32, 32, 53);
  const MatrixF m2 = random_matrix(32, 32, 54);  // totally different
  p.a->send(1, 100, m1);
  (void)p.b->recv(1, 100);
  p.a->send(1, 100, m2);
  expect_near(p.b->recv(1, 100), m2, 0.0, "dense fallback");
  EXPECT_EQ(p.a->stats().compressed_messages, 0u);
}

TEST(Compress, IdenticalResendCostsAlmostNothing) {
  Pair p;
  const MatrixF m = random_matrix(128, 128, 55);
  p.a->send(1, 100, m);
  (void)p.b->recv(1, 100);
  const auto before = p.a->stats().sent_bytes;
  p.a->send(1, 100, m);  // delta is all zeros
  expect_near(p.b->recv(1, 100), m, 0.0, "identical resend");
  const auto delta_bytes = p.a->stats().sent_bytes - before;
  EXPECT_LT(delta_bytes, m.bytes() / 50);
}

TEST(Compress, LongChainOfDeltasStaysExact) {
  Pair p;
  MatrixF m = random_matrix(48, 48, 56);
  p.a->send(1, 7, m);
  (void)p.b->recv(1, 7);
  for (int epoch = 0; epoch < 20; ++epoch) {
    m = apply_sparse_delta(m, 5);
    p.a->send(1, 7, m);
    expect_near(p.b->recv(1, 7), m, 0.0, "chain");
  }
  EXPECT_EQ(p.a->stats().compressed_messages, 20u);
}

TEST(Compress, IndependentKeysKeepIndependentBaselines) {
  Pair p;
  const MatrixF ma = random_matrix(16, 16, 57);
  const MatrixF mb = random_matrix(16, 16, 58);
  p.a->send(1, 1, ma);
  p.a->send(2, 2, mb);
  expect_near(p.b->recv(1, 1), ma, 0.0, "key 1");
  expect_near(p.b->recv(2, 2), mb, 0.0, "key 2");
  // Sparse update to key 1 only.
  const MatrixF ma2 = apply_sparse_delta(ma, 3);
  p.a->send(1, 1, ma2);
  expect_near(p.b->recv(1, 1), ma2, 0.0, "key 1 delta");
  EXPECT_EQ(p.a->stats().compressed_messages, 1u);
}

TEST(Compress, DisabledNeverCompresses) {
  Config cfg;
  cfg.enabled = false;
  Pair p(cfg);
  const MatrixF m = random_matrix(32, 32, 59);
  p.a->send(1, 1, m);
  (void)p.b->recv(1, 1);
  p.a->send(1, 1, m);  // identical: would compress if enabled
  (void)p.b->recv(1, 1);
  EXPECT_EQ(p.a->stats().compressed_messages, 0u);
}

class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, ThresholdGovernsCompression) {
  Config cfg;
  cfg.sparsity_threshold = GetParam();
  Pair p(cfg);
  // Delta with exactly 80 % zeros (CSR clearly smaller than dense).
  MatrixF m1(20, 20, 1.0f);
  MatrixF m2 = m1;
  for (std::size_t i = 0; i < m2.size(); i += 5) m2.data()[i] += 1.0f;
  p.a->send(1, 1, m1);
  (void)p.b->recv(1, 1);
  p.a->send(1, 1, m2);
  expect_near(p.b->recv(1, 1), m2, 0.0, "threshold");
  const bool compressed = p.a->stats().compressed_messages == 1;
  EXPECT_EQ(compressed, GetParam() <= 0.8);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(0.10, 0.50, 0.75, 0.95));

TEST(Compress, ShapeChangeResetsBaseline) {
  Pair p;
  p.a->send(1, 1, random_matrix(8, 8, 60));
  (void)p.b->recv(1, 1);
  const MatrixF bigger = random_matrix(16, 16, 61);
  p.a->send(1, 1, bigger);
  expect_near(p.b->recv(1, 1), bigger, 0.0, "shape change");
}

TEST(Compress, SavingsMetric) {
  Stats s;
  EXPECT_DOUBLE_EQ(s.savings(), 0.0);
  s.dense_bytes = 100;
  s.sent_bytes = 25;
  EXPECT_DOUBLE_EQ(s.savings(), 0.75);
}

TEST(Compress, DeltaWithoutBaselineThrows) {
  // Receiver with no baseline must reject a delta payload. Simulate by
  // sending a compressed delta through one endpoint and receiving with a
  // *fresh* endpoint on the same channel (no recv baseline).
  auto chans = net::LocalChannel::make_pair();
  Endpoint sender(*chans.a);
  Endpoint thrower(*chans.b);
  const MatrixF m1 = random_matrix(32, 32, 62);
  sender.send(1, 9, m1);
  {
    Endpoint receiver(*chans.b);
    expect_near(receiver.recv(1, 9), m1, 0.0, "setup");
  }
  sender.send(1, 9, m1);  // compressed (identical)
  EXPECT_THROW(thrower.recv(1, 9), ProtocolError);
}

TEST(Compress, ForgedCsrDeltaThrowsBeforeAllocating) {
  // A 32-byte CSR delta claiming rows=1, cols=2^32-1 against a 4x4 baseline:
  // densifying it would take 16 GiB, so the receiver must reject its dims
  // against the baseline before anything is allocated.
  auto chans = net::LocalChannel::make_pair();
  Endpoint sender(*chans.a);
  Endpoint receiver(*chans.b);
  const MatrixF m = random_matrix(4, 4, 63);
  sender.send(1, 9, m);
  expect_near(receiver.recv(1, 9), m, 0.0, "baseline");

  // [subkind 1 = CSR delta] + 12-byte matrix header {kind, pad, rows, cols}
  // + CSR body {rows, cols, nnz = 0, row_ptr = {0, 0}}.
  const std::uint32_t rows = 1, cols = 0xFFFFFFFFu;
  const std::uint32_t words[] = {rows, cols, rows, cols, 0, 0, 0};
  std::vector<std::uint8_t> frame(1 + 4 + sizeof(words), 0);
  frame[0] = 1;
  frame[1] = static_cast<std::uint8_t>(net::PayloadKind::kCsrF32);
  std::memcpy(frame.data() + 5, words, sizeof(words));
  ASSERT_EQ(frame.size() - 1, 32u);
  chans.a->send(2, frame);
  try {
    (void)receiver.recv(2, 9);
    ADD_FAILURE() << "forged delta accepted";
  } catch (const ProtocolError& e) {
    // Well-formed CSR, so it is the dims check against the baseline that
    // rejects it.
    EXPECT_NE(std::string(e.what()).find("shape drifted"), std::string::npos)
        << e.what();
  }
  // The baseline is untouched: the next identical send still reconstructs.
  sender.send(3, 9, m);
  expect_near(receiver.recv(3, 9), m, 0.0, "after the forged delta");
}

TEST(Compress, ConcurrentBidirectionalTraffic) {
  Pair p;
  constexpr int kRounds = 50;
  std::exception_ptr err;
  std::thread peer([&] {
    try {
      MatrixF m = random_matrix(24, 24, 63);
      for (int i = 0; i < kRounds; ++i) {
        p.b->send(2, 5, m);
        (void)p.b->recv(1, 5);
        m = apply_sparse_delta(m, 2);
      }
    } catch (...) {
      err = std::current_exception();
    }
  });
  MatrixF m = random_matrix(24, 24, 64);
  for (int i = 0; i < kRounds; ++i) {
    p.a->send(1, 5, m);
    (void)p.a->recv(2, 5);
    m = apply_sparse_delta(m, 2);
  }
  peer.join();
  ASSERT_FALSE(err);
}

TEST(Compress, PairRoundTripIsOneChannelMessage) {
  Pair p;
  const MatrixF e = random_matrix(16, 12, 7);
  const MatrixF f = random_matrix(12, 10, 8);

  const auto msgs_before = p.chans.a->stats().messages_sent.load();
  p.a->send_pair(5, 1, e, 2, f);
  auto [re, rf] = p.b->recv_pair(5, 1, 2);

  expect_near(re, e, 0.0, "pair first half");
  expect_near(rf, f, 0.0, "pair second half");
  // The whole point of the pair frame: both halves ride one channel message.
  EXPECT_EQ(p.chans.a->stats().messages_sent.load() - msgs_before, 1u);
  // Stats still count each half as a logical message.
  EXPECT_EQ(p.a->stats().messages, 2u);
}

TEST(Compress, PairHalvesKeepIndependentDeltaBaselines) {
  Pair p;
  MatrixF e = random_matrix(32, 32, 7);
  MatrixF f = random_matrix(32, 32, 8);
  p.a->send_pair(5, 1, e, 2, f);
  (void)p.b->recv_pair(5, 1, 2);
  EXPECT_EQ(p.a->stats().compressed_messages, 0u);

  // Sparse per-half deltas: both halves must compress against the baselines
  // established by the first pair, exactly as two single sends would.
  const MatrixF e2 = apply_sparse_delta(e, 3);
  const MatrixF f2 = apply_sparse_delta(f, 3);
  p.a->send_pair(5, 1, e2, 2, f2);
  auto [re2, rf2] = p.b->recv_pair(5, 1, 2);

  expect_near(re2, e2, 0.0, "pair delta first half");
  expect_near(rf2, f2, 0.0, "pair delta second half");
  EXPECT_EQ(p.a->stats().compressed_messages, 2u);
  EXPECT_LT(p.a->stats().sent_bytes, p.a->stats().dense_bytes);
}

TEST(Compress, PairAndSingleSendsShareBaselinesPerKey) {
  // A key's baseline is the same whether the matrix travels alone or as a
  // pair half; mixing the two paths must stay exact and keep compressing.
  Pair p;
  MatrixF e = random_matrix(24, 24, 9);
  p.a->send(3, 1, e);
  (void)p.b->recv(3, 1);

  const MatrixF e2 = apply_sparse_delta(e, 2);
  const MatrixF f = random_matrix(24, 24, 10);
  p.a->send_pair(5, 1, e2, 2, f);
  auto [re2, rf] = p.b->recv_pair(5, 1, 2);

  expect_near(re2, e2, 0.0, "delta via pair after single send");
  expect_near(rf, f, 0.0, "fresh pair half");
  // The first half compressed against the single-send baseline; the second
  // half had no baseline yet and went dense.
  EXPECT_EQ(p.a->stats().compressed_messages, 1u);
}

}  // namespace
}  // namespace psml::compress
