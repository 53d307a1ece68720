// Residual block tests: plaintext gradient correctness and secure/plain
// equivalence (the ResNet-style extension of Sec. 7.7).
#include <gtest/gtest.h>

#include "ml/plain/residual.hpp"
#include "ml/secure/secure_residual.hpp"
#include "ml/models.hpp"
#include "test_util.hpp"

namespace psml::ml {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;
using psml::test::run_parties;

std::unique_ptr<ResidualBlock> make_plain_block(std::size_t width,
                                                std::uint64_t seed) {
  std::vector<std::unique_ptr<Layer>> inner;
  inner.push_back(
      std::make_unique<Dense>(width, width, Engine::kCpuParallel, seed));
  return std::make_unique<ResidualBlock>(std::move(inner));
}

TEST(ResidualBlock, ForwardIsInnerPlusSkipThenActivation) {
  const std::size_t width = 6, batch = 4;
  auto block = make_plain_block(width, 601);
  Dense same(width, width, Engine::kCpuParallel, 601);
  const MatrixF x = random_matrix(batch, width, 602, -0.2f, 0.2f);

  MatrixF z;
  tensor::add(same.forward(x), x, z);
  PiecewiseActivation act;
  const MatrixF expected = act.forward(z);
  expect_near(block->forward(x), expected, 1e-6, "residual forward");
}

TEST(ResidualBlock, WidthMismatchRejected) {
  std::vector<std::unique_ptr<Layer>> inner;
  inner.push_back(std::make_unique<Dense>(6, 7, Engine::kCpuParallel, 603));
  ResidualBlock block(std::move(inner));
  EXPECT_THROW(block.forward(random_matrix(2, 6, 604)), InvalidArgument);
  EXPECT_THROW(ResidualBlock({}), InvalidArgument);
}

TEST(ResidualBlock, GradientCheck) {
  const std::size_t width = 5, batch = 3;
  auto block = make_plain_block(width, 605);
  MatrixF x = random_matrix(batch, width, 606, -0.2f, 0.2f);
  const MatrixF target = random_matrix(batch, width, 607);

  const MatrixF pred = block->forward(x);
  const auto lr_res = compute_loss(LossKind::kMse, pred, target);
  const MatrixF dx = block->backward(lr_res.grad);

  const float eps = 1e-3f;
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      auto probe = make_plain_block(width, 605);
      MatrixF xp = x, xm = x;
      xp(r, c) += eps;
      xm(r, c) -= eps;
      const float lp =
          compute_loss(LossKind::kMse, probe->forward(xp), target).value;
      auto probe2 = make_plain_block(width, 605);
      const float lm =
          compute_loss(LossKind::kMse, probe2->forward(xm), target).value;
      const float numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(numeric, dx(r, c), 5e-2 * std::abs(numeric) + 2e-3);
    }
  }
}

// Runs one secure forward/backward of a single-Dense residual block against
// its plaintext twin, standalone or, with `as_model_input`, as the first
// layer of a SecureSequential. There it is the model's input layer, but its
// inner layers are not, so the block must still return a dX that matches
// plaintext.
void check_secure_block_matches_plain(bool as_model_input) {
  const std::size_t width = 8, batch = 6;
  const MatrixF w = xavier_init(width, width, 608);
  const MatrixF x = random_matrix(batch, width, 609, -0.2f, 0.2f);
  const MatrixF dy = random_matrix(batch, width, 610, -0.1f, 0.1f);

  // Plaintext reference.
  std::vector<std::unique_ptr<Layer>> pinner;
  auto pdense = std::make_unique<Dense>(width, width, Engine::kCpuParallel, 1);
  pdense->weights() = w;
  pinner.push_back(std::move(pdense));
  ResidualBlock plain(std::move(pinner));
  const MatrixF y_ref = plain.forward(x);
  const MatrixF dx_ref = plain.backward(dy);

  // Secure twin.
  auto ws = mpc::share_float(w, 611);
  auto bs = mpc::share_float(MatrixF(1, width, 0.0f), 612);
  auto make_secure = [&](int party) -> std::unique_ptr<SecureLayer> {
    std::vector<std::unique_ptr<SecureLayer>> inner;
    inner.push_back(std::make_unique<SecureDense>(
        party == 0 ? ws.s0 : ws.s1, party == 0 ? bs.s0 : bs.s1));
    auto block =
        std::make_unique<SecureResidualBlock>(std::move(inner), width);
    block->set_layer_id(3);
    return block;
  };
  std::unique_ptr<SecureLayer> own0 = make_secure(0), own1 = make_secure(1);
  SecureLayer& b0 = *own0;
  SecureLayer& b1 = *own1;
  SecureSequential m0, m1;
  if (as_model_input) {
    m0.add(std::move(own0));
    m1.add(std::move(own1));
  }
  auto& inner0 = dynamic_cast<SecureResidualBlock&>(b0).inner_layer(0);
  EXPECT_EQ(b0.input_layer(), as_model_input);
  EXPECT_FALSE(inner0.input_layer());

  std::vector<mpc::TripletSpec> plan;
  b0.plan(plan, batch, /*training=*/true);
  // Inner Dense: forward, dW and dX; then the block activation.
  ASSERT_EQ(plan.size(), 4u);
  mpc::TripletDealer dealer(nullptr, {false, false, 613});
  auto [st0, st1] = dealer.generate(plan);
  auto xs = mpc::share_float(x, 614);
  auto dys = mpc::share_float(dy, 615);

  mpc::PartyOptions opts = mpc::PartyOptions::parsecureml();
  opts.use_gpu = false;
  opts.adaptive = false;
  MatrixF y0, y1, dx0, dx1;
  run_parties(
      opts,
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true, nullptr};
        y0 = b0.forward(env, xs.s0);
        dx0 = b0.backward(env, dys.s0);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true, nullptr};
        y1 = b1.forward(env, xs.s1);
        dx1 = b1.backward(env, dys.s1);
      });

  expect_near(mpc::reconstruct_float(y0, y1), y_ref, 5e-3,
              "secure residual forward");
  expect_near(mpc::reconstruct_float(dx0, dx1), dx_ref, 5e-3,
              "secure residual backward");
}

TEST(SecureResidualBlock, MatchesPlainForwardBackward) {
  check_secure_block_matches_plain(/*as_model_input=*/false);
}

TEST(SecureResidualBlock, InnerLayersKeepDxWhenBlockIsModelInput) {
  check_secure_block_matches_plain(/*as_model_input=*/true);
}

TEST(SecureResidualBlock, NestsInSecureSequential) {
  // Residual block inside a SecureSequential model trains end to end.
  const std::size_t width = 8, batch = 8;
  const MatrixF w_in = xavier_init(width, width, 620);
  auto make_model = [&](int party, const mpc::SharePair<float>& ws,
                        const mpc::SharePair<float>& bs) {
    SecureSequential model;
    std::vector<std::unique_ptr<SecureLayer>> inner;
    inner.push_back(std::make_unique<SecureDense>(
        party == 0 ? ws.s0 : ws.s1, party == 0 ? bs.s0 : bs.s1));
    model.add(std::make_unique<SecureResidualBlock>(std::move(inner), width));
    return model;
  };
  auto ws = mpc::share_float(w_in, 621);
  auto bs = mpc::share_float(MatrixF(1, width, 0.0f), 622);
  auto m0 = make_model(0, ws, bs);
  auto m1 = make_model(1, ws, bs);

  std::vector<mpc::TripletSpec> plan;
  m0.plan_batch(plan, batch, LossKind::kMse, width, true);
  mpc::TripletDealer dealer(nullptr, {false, false, 623});
  auto [st0, st1] = dealer.generate(plan);
  const MatrixF x = random_matrix(batch, width, 624, -0.2f, 0.2f);
  const MatrixF y = random_matrix(batch, width, 625, 0.0f, 1.0f);
  auto xs = mpc::share_float(x, 626);
  auto ys = mpc::share_float(y, 627);

  mpc::PartyOptions opts = mpc::PartyOptions::parsecureml();
  opts.use_gpu = false;
  opts.adaptive = false;
  run_parties(
      opts,
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true, nullptr};
        secure_train_batch(env, m0, LossKind::kMse, xs.s0, ys.s0, 0.1f);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true, nullptr};
        secure_train_batch(env, m1, LossKind::kMse, xs.s1, ys.s1, 0.1f);
      });
  // Weights moved and remain reconstructible.
  auto& d0 = dynamic_cast<SecureResidualBlock&>(m0.layer(0));
  auto& d1 = dynamic_cast<SecureResidualBlock&>(m1.layer(0));
  auto& sd0 = dynamic_cast<SecureDense&>(d0.inner_layer(0));
  auto& sd1 = dynamic_cast<SecureDense&>(d1.inner_layer(0));
  const MatrixF w_after =
      mpc::reconstruct_float(sd0.weight_share(), sd1.weight_share());
  EXPECT_GT(tensor::max_abs_diff(w_after, w_in), 1e-6);
  EXPECT_LT(tensor::fro_norm(w_after), 10 * tensor::fro_norm(w_in) + 10);
}

}  // namespace
}  // namespace psml::ml
