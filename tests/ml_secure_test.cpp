// Secure ML stack tests: secure layers reconstruct to the plaintext
// computation, secure training matches plaintext training, pipeline on/off
// equivalence, secure RNN.
#include <gtest/gtest.h>

#include "data/datasets.hpp"
#include "tensor/gemm.hpp"
#include "ml/models.hpp"
#include "ml/secure/secure_model.hpp"
#include "ml/secure/secure_rnn.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace psml::ml {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;
using psml::test::run_parties;

mpc::PartyOptions cpu_opts(bool pipeline = false) {
  mpc::PartyOptions opts = mpc::PartyOptions::parsecureml();
  opts.use_gpu = false;
  opts.adaptive = false;
  opts.use_pipeline = pipeline;
  return opts;
}

// Generates the offline stores for one plan on both parties.
std::pair<mpc::TripletStore, mpc::TripletStore> gen_stores(
    const std::vector<mpc::TripletSpec>& plan, std::uint64_t seed) {
  mpc::TripletDealer dealer(nullptr, {false, false, seed});
  return dealer.generate(plan);
}

TEST(SecureDense, ForwardMatchesPlain) {
  const std::size_t batch = 8, in = 12, out = 6;
  const MatrixF w = xavier_init(in, out, 71);
  const MatrixF x = random_matrix(batch, in, 601);
  const MatrixF expected = tensor::matmul(x, w);

  auto ws = mpc::share_float(w, 72);
  auto xs = mpc::share_float(x, 73);
  auto bs = mpc::share_float(MatrixF(1, out, 0.0f), 74);
  SecureDense l0(ws.s0, bs.s0), l1(ws.s1, bs.s1);
  l0.set_layer_id(1);
  l1.set_layer_id(1);
  std::vector<mpc::TripletSpec> plan;
  l0.plan(plan, batch, /*training=*/false);
  auto [st0, st1] = gen_stores(plan, 74);

  MatrixF y0, y1;
  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, false, nullptr};
        y0 = l0.forward(env, xs.s0);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, false, nullptr};
        y1 = l1.forward(env, xs.s1);
      });
  expect_near(mpc::reconstruct_float(y0, y1), expected, 1e-2,
              "secure dense forward");
}

// Full train-batch equivalence: run one SGD step securely and in plaintext
// from identical weights; the reconstructed secure weights must match the
// plaintext weights.
class SecureVsPlain : public ::testing::TestWithParam<bool> {};

TEST_P(SecureVsPlain, OneSgdStepMatchesPlaintext) {
  const bool pipeline = GetParam();
  const std::size_t batch = 16;
  const auto ds = data::make_dataset(data::DatasetKind::kMnist,
                                     data::LabelScheme::kOneHot10, batch, 75);
  ModelConfig mc;
  mc.kind = ModelKind::kMlp;
  mc.input_dim = ds.geometry.features();
  mc.classes = 10;
  mc.seed = 76;

  // Plaintext step.
  auto plain = build_plain(mc);
  train_batch(plain, LossKind::kMse, ds.x, ds.y, 0.25f);

  // Secure step from the same init.
  auto pair = build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, batch, LossKind::kMse, 10, true);
  auto [st0, st1] = gen_stores(plan, 77);
  auto xs = mpc::share_float(ds.x, 78);
  auto ys = mpc::share_float(ds.y, 79);

  run_parties(
      cpu_opts(pipeline),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true, pipeline ? &ctx.engine() : nullptr};
        secure_train_batch(env, pair.m0, LossKind::kMse, xs.s0, ys.s0, 0.25f);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true, pipeline ? &ctx.engine() : nullptr};
        secure_train_batch(env, pair.m1, LossKind::kMse, xs.s1, ys.s1, 0.25f);
      });

  auto secure_as_plain = reconstruct_plain(mc, pair.m0, pair.m1);
  // Compare layer-by-layer weights. The activation-region mask can differ on
  // measure-zero boundaries; tolerance covers share noise only.
  for (std::size_t i = 0; i < plain.size(); ++i) {
    auto* dp = dynamic_cast<Dense*>(&plain.layer(i));
    if (dp == nullptr) continue;
    auto* ds_layer = dynamic_cast<Dense*>(&secure_as_plain.layer(i));
    ASSERT_NE(ds_layer, nullptr);
    expect_near(ds_layer->weights(), dp->weights(), 5e-2,
                ("layer " + std::to_string(i)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(PipelineOnOff, SecureVsPlain, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "pipelined" : "serial";
                         });

TEST(SecureTraining, MlpConvergesOnSeparableData) {
  const std::size_t n = 64;
  const auto ds = data::make_dataset(data::DatasetKind::kMnist,
                                     data::LabelScheme::kOneHot10, n, 80);
  ModelConfig mc;
  mc.kind = ModelKind::kMlp;
  mc.input_dim = ds.geometry.features();
  mc.classes = 10;
  mc.seed = 81;
  auto pair = build_secure_pair(mc);

  constexpr int kEpochs = 20;
  std::vector<mpc::TripletSpec> plan;
  for (int e = 0; e < kEpochs; ++e) {
    pair.m0.plan_batch(plan, n, LossKind::kMse, 10, true);
  }
  auto [st0, st1] = gen_stores(plan, 82);
  auto xs = mpc::share_float(ds.x, 83);
  auto ys = mpc::share_float(ds.y, 84);

  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true, nullptr};
        for (int e = 0; e < kEpochs; ++e) {
          secure_train_batch(env, pair.m0, LossKind::kMse, xs.s0, ys.s0,
                             0.05f);
        }
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true, nullptr};
        for (int e = 0; e < kEpochs; ++e) {
          secure_train_batch(env, pair.m1, LossKind::kMse, xs.s1, ys.s1,
                             0.05f);
        }
      });

  auto trained = reconstruct_plain(mc, pair.m0, pair.m1);
  EXPECT_GT(accuracy(trained.forward(ds.x), ds.y), 0.55);
}

TEST(SecureTraining, SvmHingeLossStep) {
  const std::size_t n = 32;
  const auto ds = data::make_dataset(data::DatasetKind::kMnist,
                                     data::LabelScheme::kBinaryPm1, n, 85);
  ModelConfig mc;
  mc.kind = ModelKind::kSvm;
  mc.input_dim = ds.geometry.features();
  mc.classes = 1;
  mc.seed = 86;

  auto plain = build_plain(mc);
  for (int e = 0; e < 3; ++e) {
    train_batch(plain, LossKind::kHinge, ds.x, ds.y, 0.3f);
  }

  auto pair = build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  for (int e = 0; e < 3; ++e) {
    pair.m0.plan_batch(plan, n, LossKind::kHinge, 1, true);
  }
  auto [st0, st1] = gen_stores(plan, 87);
  auto xs = mpc::share_float(ds.x, 88);
  auto ys = mpc::share_float(ds.y, 89);
  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true, nullptr};
        for (int e = 0; e < 3; ++e) {
          secure_train_batch(env, pair.m0, LossKind::kHinge, xs.s0, ys.s0,
                             0.3f);
        }
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true, nullptr};
        for (int e = 0; e < 3; ++e) {
          secure_train_batch(env, pair.m1, LossKind::kHinge, xs.s1, ys.s1,
                             0.3f);
        }
      });
  auto trained = reconstruct_plain(mc, pair.m0, pair.m1);
  auto* dp = dynamic_cast<Dense*>(&plain.layer(0));
  auto* dsec = dynamic_cast<Dense*>(&trained.layer(0));
  ASSERT_NE(dp, nullptr);
  ASSERT_NE(dsec, nullptr);
  expect_near(dsec->weights(), dp->weights(), 5e-2, "svm weights");
}

TEST(SecureCnn, OneStepMatchesPlain) {
  const std::size_t batch = 4;
  ModelConfig mc;
  mc.kind = ModelKind::kCnn;
  mc.image_h = 10;
  mc.image_w = 10;
  mc.channels = 1;
  mc.input_dim = 100;
  mc.classes = 10;
  mc.seed = 90;

  const MatrixF x = random_matrix(batch, 100, 602, 0.0f, 1.0f);
  MatrixF y(batch, 10, 0.0f);
  for (std::size_t r = 0; r < batch; ++r) y(r, r % 10) = 1.0f;

  auto plain = build_plain(mc);
  train_batch(plain, LossKind::kMse, x, y, 0.2f);

  auto pair = build_secure_pair(mc);
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, batch, LossKind::kMse, 10, true);
  auto [st0, st1] = gen_stores(plan, 91);
  auto xs = mpc::share_float(x, 92);
  auto ys = mpc::share_float(y, 93);
  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, true, nullptr};
        secure_train_batch(env, pair.m0, LossKind::kMse, xs.s0, ys.s0, 0.2f);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, true, nullptr};
        secure_train_batch(env, pair.m1, LossKind::kMse, xs.s1, ys.s1, 0.2f);
      });
  auto trained = reconstruct_plain(mc, pair.m0, pair.m1);
  auto* cp = dynamic_cast<Conv2D*>(&plain.layer(0));
  auto* cs = dynamic_cast<Conv2D*>(&trained.layer(0));
  ASSERT_NE(cp, nullptr);
  ASSERT_NE(cs, nullptr);
  expect_near(cs->weights(), cp->weights(), 5e-2, "conv weights");
}

TEST(SecureRnn, ForwardMatchesPlainRnn) {
  ModelConfig mc;
  mc.kind = ModelKind::kRnn;
  mc.input_dim = 8;
  mc.rnn_hidden = 6;
  mc.classes = 1;
  mc.rnn_steps = 3;
  mc.seed = 94;

  auto plain = build_plain_rnn(mc);
  auto pair = build_secure_rnn_pair(mc);

  const std::size_t batch = 5;
  std::vector<MatrixF> xs_plain;
  for (int t = 0; t < 3; ++t) {
    xs_plain.push_back(random_matrix(batch, 8, 610 + t, -0.4f, 0.4f));
  }
  const MatrixF expected = plain.forward(xs_plain);

  std::vector<MatrixF> xs0, xs1;
  for (const auto& x : xs_plain) {
    auto s = mpc::share_float(x, 95);
    xs0.push_back(std::move(s.s0));
    xs1.push_back(std::move(s.s1));
  }
  std::vector<mpc::TripletSpec> plan;
  pair.m0->plan(plan, batch, 3, /*training=*/false);
  auto [st0, st1] = gen_stores(plan, 96);

  MatrixF o0, o1;
  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        SecureEnv env{&ctx, false, nullptr};
        o0 = pair.m0->forward(env, xs0);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        SecureEnv env{&ctx, false, nullptr};
        o1 = pair.m1->forward(env, xs1);
      });
  expect_near(mpc::reconstruct_float(o0, o1), expected, 5e-2,
              "secure rnn forward");
}

TEST(SecureRnn, TrainingStepMatchesPlain) {
  ModelConfig mc;
  mc.kind = ModelKind::kRnn;
  mc.input_dim = 6;
  mc.rnn_hidden = 4;
  mc.classes = 1;
  mc.rnn_steps = 2;
  mc.seed = 97;

  auto plain = build_plain_rnn(mc);
  auto pair = build_secure_rnn_pair(mc);

  const std::size_t batch = 6;
  std::vector<MatrixF> xs_plain;
  for (int t = 0; t < 2; ++t) {
    xs_plain.push_back(random_matrix(batch, 6, 620 + t, -0.4f, 0.4f));
  }
  const MatrixF y = random_matrix(batch, 1, 630, 0.0f, 1.0f);

  // Plaintext step.
  const MatrixF pred = plain.forward(xs_plain);
  const auto lr_res = compute_loss(LossKind::kMse, pred, y);
  plain.backward(lr_res.grad);
  plain.update(0.3f);

  // Secure step.
  std::vector<MatrixF> xs0, xs1;
  for (const auto& x : xs_plain) {
    auto s = mpc::share_float(x, 98);
    xs0.push_back(std::move(s.s0));
    xs1.push_back(std::move(s.s1));
  }
  auto ys = mpc::share_float(y, 99);
  std::vector<mpc::TripletSpec> plan;
  pair.m0->plan(plan, batch, 2, /*training=*/true);
  auto [st0, st1] = gen_stores(plan, 100);

  auto step = [&](mpc::PartyContext& ctx, SecureRnn& rnn,
                  const std::vector<MatrixF>& xs, const MatrixF& yy) {
    SecureEnv env{&ctx, true, nullptr};
    MatrixF p = rnn.forward(env, xs);
    MatrixF grad(p.rows(), p.cols());
    const float inv_n = 1.0f / static_cast<float>(p.rows());
    for (std::size_t i = 0; i < grad.size(); ++i) {
      grad.data()[i] = (p.data()[i] - yy.data()[i]) * inv_n;
    }
    rnn.backward(env, grad);
    rnn.update(0.3f);
  };
  run_parties(
      cpu_opts(),
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st0));
        step(ctx, *pair.m0, xs0, ys.s0);
      },
      [&](mpc::PartyContext& ctx) {
        ctx.set_triplets(std::move(st1));
        step(ctx, *pair.m1, xs1, ys.s1);
      });

  auto trained = reconstruct_plain_rnn(mc, *pair.m0, *pair.m1);
  expect_near(trained.wx(), plain.wx(), 5e-2, "wx");
  expect_near(trained.wh(), plain.wh(), 5e-2, "wh");
  expect_near(trained.wo(), plain.wo(), 5e-2, "wo");
}

TEST(SecurePlan, InferencePlanSmallerThanTraining) {
  ModelConfig mc;
  mc.kind = ModelKind::kMlp;
  mc.input_dim = 50;
  mc.classes = 10;
  auto pair = build_secure_pair(mc);
  std::vector<mpc::TripletSpec> train_plan, infer_plan;
  pair.m0.plan_batch(train_plan, 8, LossKind::kMse, 10, true);
  pair.m0.plan_batch(infer_plan, 8, LossKind::kMse, 10, false);
  EXPECT_GT(train_plan.size(), infer_plan.size());
  // Inference: one matmul per dense + activations, no backward triplets.
  std::size_t matmuls = 0;
  for (const auto& s : infer_plan) {
    if (s.kind == mpc::TripletKind::kMatMul) ++matmuls;
  }
  EXPECT_EQ(matmuls, 3u);
}


// The first layer's input gradient is the gradient w.r.t. the data, which
// nothing reads: it plans dW but no dX. Later layers keep their dX.
std::size_t planned_matmuls(const SecureLayer& layer, std::size_t batch,
                            bool training) {
  std::vector<mpc::TripletSpec> specs;
  layer.plan(specs, batch, training);
  std::size_t n = 0;
  for (const auto& s : specs) n += s.kind == mpc::TripletKind::kMatMul;
  return n;
}

TEST(SecurePlan, InputDenseLayerPlansNoDxTriplet) {
  ModelConfig mc;
  mc.kind = ModelKind::kMlp;
  mc.input_dim = 50;
  mc.classes = 10;
  auto pair = build_secure_pair(mc);
  ASSERT_EQ(pair.m0.size(), 5u);  // dense, act, dense, act, dense
  EXPECT_TRUE(pair.m0.layer(0).input_layer());
  EXPECT_EQ(planned_matmuls(pair.m0.layer(0), 8, true), 2u);
  EXPECT_EQ(planned_matmuls(pair.m0.layer(2), 8, true), 3u);
  EXPECT_EQ(planned_matmuls(pair.m0.layer(4), 8, true), 3u);
  // Inference plans the forward product only, input layer or not.
  EXPECT_EQ(planned_matmuls(pair.m0.layer(0), 8, false), 1u);
  EXPECT_EQ(planned_matmuls(pair.m0.layer(2), 8, false), 1u);

  // The two input-layer specs are Y = X x W and dW = X^T x dY.
  std::vector<mpc::TripletSpec> specs;
  pair.m0.layer(0).plan(specs, 8, true);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0], (mpc::TripletSpec{mpc::TripletKind::kMatMul, 8, 50,
                                        128}));
  EXPECT_EQ(specs[1], (mpc::TripletSpec{mpc::TripletKind::kMatMul, 50, 8,
                                        128}));
}

TEST(SecurePlan, InputConvLayerPlansNoDPatchesTriplet) {
  ModelConfig mc;
  mc.kind = ModelKind::kCnn;
  mc.image_h = 10;
  mc.image_w = 10;
  mc.channels = 1;
  mc.input_dim = 100;
  mc.classes = 10;
  auto pair = build_secure_pair(mc);
  ASSERT_NE(dynamic_cast<SecureConv2D*>(&pair.m0.layer(0)), nullptr);
  EXPECT_EQ(planned_matmuls(pair.m0.layer(0), 4, true), 2u);
  // The dense layer after the conv still needs dX to reach the conv.
  ASSERT_NE(dynamic_cast<SecureDense*>(&pair.m0.layer(2)), nullptr);
  EXPECT_EQ(planned_matmuls(pair.m0.layer(2), 4, true), 3u);
}

// A standalone SecureDense is not an input layer: its backward returns a dX
// share that reconstructs to dY x W^T, through both the serial and the
// engine-staged open of W^T - V.
TEST(SecureDense, StandaloneBackwardReturnsDx) {
  const std::size_t batch = 6, in = 10, out = 4;
  const MatrixF w = xavier_init(in, out, 640);
  const MatrixF x = random_matrix(batch, in, 641);
  const MatrixF dy = random_matrix(batch, out, 642, -0.2f, 0.2f);
  const MatrixF dx_ref = tensor::matmul(dy, tensor::transpose(w));
  const MatrixF dw_ref = tensor::matmul(tensor::transpose(x), dy);

  for (const bool pipeline : {false, true}) {
    auto ws = mpc::share_float(w, 643);
    auto bs = mpc::share_float(MatrixF(1, out, 0.0f), 644);
    SecureDense l0(ws.s0, bs.s0), l1(ws.s1, bs.s1);
    ASSERT_FALSE(l0.input_layer());
    l0.set_layer_id(1);
    l1.set_layer_id(1);
    std::vector<mpc::TripletSpec> plan;
    l0.plan(plan, batch, /*training=*/true);
    ASSERT_EQ(plan.size(), 3u);
    auto [st0, st1] = gen_stores(plan, 645);
    auto xs = mpc::share_float(x, 646);
    auto dys = mpc::share_float(dy, 647);

    MatrixF dx0, dx1;
    auto party = [&](mpc::PartyContext& ctx, SecureDense& l,
                     mpc::TripletStore& st, const MatrixF& xi,
                     const MatrixF& dyi, MatrixF& dx) {
      ctx.set_triplets(std::move(st));
      SecureEnv env{&ctx, true, pipeline ? &ctx.engine() : nullptr};
      l.forward(env, xi);
      dx = l.backward(env, dyi);
      if (env.engine != nullptr) env.engine->wait_all();
      EXPECT_TRUE(ctx.triplets().empty());
    };
    run_parties(
        cpu_opts(pipeline),
        [&](mpc::PartyContext& ctx) { party(ctx, l0, st0, xs.s0, dys.s0, dx0); },
        [&](mpc::PartyContext& ctx) {
          party(ctx, l1, st1, xs.s1, dys.s1, dx1);
        });
    const char* what = pipeline ? "standalone dX (pipelined)"
                                : "standalone dX (serial)";
    expect_near(mpc::reconstruct_float(dx0, dx1), dx_ref, 1e-2, what);

    // lr = 1 turns the update into W - dW, which reconstructs to check dW.
    l0.update(1.0f);
    l1.update(1.0f);
    MatrixF w_expect;
    tensor::sub(w, dw_ref, w_expect);
    expect_near(mpc::reconstruct_float(l0.weight_share(), l1.weight_share()),
                w_expect, 1e-2, "standalone dW");
  }
}

// Plan/consumption agreement: a consuming (non-recycled) store dealt from
// exactly one epoch's plan is empty after that epoch. A spec planned but not
// consumed is left over; one consumed but not planned exhausts the store or
// mismatches a shape and throws.
struct PlanCase {
  ModelKind kind;
  bool training;
};

void PrintTo(const PlanCase& c, std::ostream* os) {
  *os << to_string(c.kind) << (c.training ? "/train" : "/infer");
}

class PlanConsumption : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanConsumption, OneEpochPlanIsConsumedExactly) {
  const auto [kind, training] = GetParam();
  const std::size_t batch = 4, n_batches = 2, n = batch * n_batches;
  ModelConfig mc;
  mc.kind = kind;
  mc.seed = 650;
  mc.classes = kind == ModelKind::kMlp || kind == ModelKind::kCnn ? 10 : 1;
  if (kind == ModelKind::kCnn) {
    mc.image_h = 10;
    mc.image_w = 10;
    mc.channels = 1;
    mc.input_dim = 100;
  } else if (kind == ModelKind::kRnn) {
    mc.input_dim = 5;
    mc.rnn_hidden = 4;
    mc.rnn_steps = 3;
  } else {
    mc.input_dim = 20;
  }
  const std::size_t width =
      kind == ModelKind::kRnn ? mc.input_dim * mc.rnn_steps : mc.input_dim;
  const MatrixF x = random_matrix(n, width, 651, 0.0f, 1.0f);
  MatrixF y(n, mc.classes, 0.0f);
  for (std::size_t r = 0; r < n; ++r) {
    if (kind == ModelKind::kSvm) {
      y(r, 0) = r % 2 == 0 ? 1.0f : -1.0f;
    } else {
      y(r, r % mc.classes) = 1.0f;
    }
  }
  auto xs = mpc::share_float(x, 652);
  auto ys = mpc::share_float(y, 653);
  const LossKind loss = loss_for(kind);

  SecurePair pair;
  SecureRnnPair rnn_pair;
  std::vector<mpc::TripletSpec> plan;
  if (kind == ModelKind::kRnn) {
    rnn_pair = build_secure_rnn_pair(mc);
    for (std::size_t b = 0; b < n_batches; ++b) {
      rnn_pair.m0->plan(plan, batch, mc.rnn_steps, training);
    }
  } else {
    pair = build_secure_pair(mc);
    plan = epoch_plan(pair.m0, n_batches, batch, loss, mc.classes, training);
  }
  auto [st0, st1] = gen_stores(plan, 654);

  auto party = [&](mpc::PartyContext& ctx, int id, mpc::TripletStore& st) {
    ctx.set_triplets(std::move(st));
    SecureEnv env{&ctx, training, &ctx.engine()};
    const MatrixF& xi = id == 0 ? xs.s0 : xs.s1;
    const MatrixF& yi = id == 0 ? ys.s0 : ys.s1;
    for (std::size_t b = 0; b < n_batches; ++b) {
      ctx.set_stream_salt(b);
      const MatrixF xb = data::slice_rows(xi, b * batch, batch);
      const MatrixF yb = data::slice_rows(yi, b * batch, batch);
      if (kind == ModelKind::kRnn) {
        SecureRnn& rnn = id == 0 ? *rnn_pair.m0 : *rnn_pair.m1;
        const MatrixF pred =
            rnn.forward(env, data::sequence_view(xb, mc.rnn_steps));
        if (training) {
          MatrixF grad;
          tensor::sub(pred, yb, grad);
          rnn.backward(env, grad);
          rnn.update(0.05f);
        }
      } else {
        SecureSequential& model = id == 0 ? pair.m0 : pair.m1;
        if (training) {
          secure_train_batch(env, model, loss, xb, yb, 0.05f);
        } else {
          secure_infer_batch(env, model, xb);
        }
      }
    }
    env.engine->wait_all();
    EXPECT_EQ(ctx.triplets().matmul_size(), 0u) << "party " << id;
    EXPECT_EQ(ctx.triplets().elementwise_size(), 0u) << "party " << id;
    EXPECT_EQ(ctx.triplets().activation_size(), 0u) << "party " << id;
  };
  run_parties(
      cpu_opts(/*pipeline=*/true),
      [&](mpc::PartyContext& ctx) { party(ctx, 0, st0); },
      [&](mpc::PartyContext& ctx) { party(ctx, 1, st1); });
}

INSTANTIATE_TEST_SUITE_P(
    Models, PlanConsumption,
    ::testing::Values(PlanCase{ModelKind::kMlp, true},
                      PlanCase{ModelKind::kMlp, false},
                      PlanCase{ModelKind::kCnn, true},
                      PlanCase{ModelKind::kCnn, false},
                      PlanCase{ModelKind::kLogistic, true},
                      PlanCase{ModelKind::kLogistic, false},
                      PlanCase{ModelKind::kSvm, true},
                      PlanCase{ModelKind::kSvm, false},
                      PlanCase{ModelKind::kRnn, true},
                      PlanCase{ModelKind::kRnn, false}),
    [](const auto& info) {
      return to_string(info.param.kind) +
             (info.param.training ? "_train" : "_infer");
    });

}  // namespace
}  // namespace psml::ml
