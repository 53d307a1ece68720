#include "ml/secure/secure_model.hpp"

#include "common/crash_point.hpp"
#include "mpc/secure_mul.hpp"
#include "tensor/ops.hpp"

namespace psml::ml {

void SecureSequential::add(std::unique_ptr<SecureLayer> layer) {
  layer->set_layer_id(static_cast<std::uint32_t>(layers_.size() + 1));
  layer->input_layer_ = layers_.empty();
  layers_.push_back(std::move(layer));
}

void SecureSequential::plan_batch(std::vector<mpc::TripletSpec>& specs,
                                  std::size_t batch, LossKind loss,
                                  std::size_t out_dim, bool training) const {
  for (const auto& l : layers_) l->plan(specs, batch, training);
  if (training && loss == LossKind::kHinge) {
    // margins m = y .* pred, then the comparison m < 1.
    specs.push_back({mpc::TripletKind::kElementwise, batch, 0, out_dim});
    specs.push_back({mpc::TripletKind::kActivation, batch, 0, out_dim});
  }
}

std::vector<mpc::TripletSpec> epoch_plan(const SecureSequential& model,
                                         std::size_t n_batches,
                                         std::size_t batch, LossKind loss,
                                         std::size_t out_dim, bool training) {
  std::vector<mpc::TripletSpec> plan;
  for (std::size_t i = 0; i < n_batches; ++i) {
    model.plan_batch(plan, batch, loss, out_dim, training);
  }
  return plan;
}

MatrixF SecureSequential::forward(SecureEnv& env, const MatrixF& x_i) {
  MatrixF cur = x_i;
  for (auto& l : layers_) cur = l->forward(env, cur);
  return cur;
}

void SecureSequential::backward(SecureEnv& env, const MatrixF& dy_i) {
  MatrixF cur = dy_i;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(env, cur);
  }
}

void SecureSequential::update(float lr) {
  for (auto& l : layers_) l->update(lr);
}

std::vector<MatrixF*> SecureSequential::collect_state() {
  std::vector<MatrixF*> out;
  for (auto& l : layers_) l->collect_state(out);
  return out;
}

MatrixF secure_loss_grad(SecureEnv& env, LossKind loss, const MatrixF& pred_i,
                         const MatrixF& y_i) {
  auto& ctx = *env.ctx;
  PSML_REQUIRE(pred_i.same_shape(y_i), "secure loss: shape mismatch");
  const float inv_n = 1.0f / static_cast<float>(pred_i.rows());
  MatrixF grad(pred_i.rows(), pred_i.cols());

  switch (loss) {
    case LossKind::kMse: {
      // grad = (pred - y) / n is linear in the shares: purely local.
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad.data()[i] = (pred_i.data()[i] - y_i.data()[i]) * inv_n;
      }
      return grad;
    }
    case LossKind::kHinge: {
      // m = y .* pred (secure); mask = [m < 1] (public); grad = -y .* mask / n
      // (local, since the mask is public).
      const mpc::TripletShare t = ctx.triplets().pop_elementwise();
      MatrixF margin = mpc::secure_mul(ctx, y_i, pred_i, t);
      const mpc::ActivationShare cmp = ctx.triplets().pop_activation();
      MatrixF mask = mpc::secure_less_than(ctx, margin, 1.0f, cmp);
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad.data()[i] = -y_i.data()[i] * mask.data()[i] * inv_n;
      }
      return grad;
    }
  }
  throw InvalidArgument("unknown loss kind");
}

void secure_train_batch(SecureEnv& env, SecureSequential& model,
                        LossKind loss, const MatrixF& x_i, const MatrixF& y_i,
                        float lr) {
  const MatrixF pred = model.forward(env, x_i);
  // Chaos hook: a party dying here has consumed triplets and advanced its
  // sequence counter but not updated parameters — the worst mid-step state
  // for recovery to untangle.
  PSML_CRASH_POINT("train.mid-step");
  const MatrixF grad = secure_loss_grad(env, loss, pred, y_i);
  model.backward(env, grad);
  // Engine barrier at the step boundary: every staged op has completed (and
  // any op failure rethrows typed here) before parameters move, so the
  // snapshot-rewind recovery points stay well-defined.
  if (env.engine != nullptr) env.engine->wait_all();
  model.update(lr);
}

MatrixF secure_infer_batch(SecureEnv& env, SecureSequential& model,
                           const MatrixF& x_i) {
  const bool was_training = env.training;
  env.training = false;
  MatrixF out = model.forward(env, x_i);
  env.training = was_training;
  return out;
}

}  // namespace psml::ml
