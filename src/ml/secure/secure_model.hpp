// Secure sequential model: the server-side container mirroring
// ml::Sequential, plus secure loss gradients and the per-batch training
// step. One instance lives on each of the two servers; both execute the same
// schedule (SPMD) over their respective shares.
#pragma once

#include <memory>
#include <vector>

#include "ml/plain/model.hpp"
#include "ml/secure/secure_layers.hpp"

namespace psml::ml {

class SecureSequential {
 public:
  SecureSequential() = default;

  // The first layer added becomes the input layer (see
  // SecureLayer::input_layer).
  void add(std::unique_ptr<SecureLayer> layer);
  std::size_t size() const { return layers_.size(); }
  SecureLayer& layer(std::size_t i) { return *layers_[i]; }

  // Appends the full per-batch triplet plan (layers in order, then loss).
  void plan_batch(std::vector<mpc::TripletSpec>& specs, std::size_t batch,
                  LossKind loss, std::size_t out_dim,
                  bool training = true) const;

  MatrixF forward(SecureEnv& env, const MatrixF& x_i);
  // Accumulates every layer's parameter gradients; the gradient w.r.t. the
  // input data is never formed.
  void backward(SecureEnv& env, const MatrixF& dy_i);
  void update(float lr);

  // Pointers to every layer's persistent parameter shares, in model order.
  // The share-snapshot checkpoint functions serialize exactly this list.
  std::vector<MatrixF*> collect_state();

 private:
  std::vector<std::unique_ptr<SecureLayer>> layers_;
};

// One epoch's triplet demand: `n_batches` repetitions of the model's
// per-batch plan, in consumption order. This is the unit offline providers
// take — TripletDealer::generate for an inline deal, or
// TripletFactory::reserve / fill_stores for the pooled offline phase.
std::vector<mpc::TripletSpec> epoch_plan(const SecureSequential& model,
                                         std::size_t n_batches,
                                         std::size_t batch, LossKind loss,
                                         std::size_t out_dim,
                                         bool training = true);

// Loss gradient on shares. MSE is local (linear); hinge consumes one
// elementwise triplet and one comparison (see plan_batch).
MatrixF secure_loss_grad(SecureEnv& env, LossKind loss, const MatrixF& pred_i,
                         const MatrixF& y_i);

// One full secure SGD step: forward, loss grad, backward, update.
void secure_train_batch(SecureEnv& env, SecureSequential& model,
                        LossKind loss, const MatrixF& x_i, const MatrixF& y_i,
                        float lr);

// Forward pass only (secure inference).
MatrixF secure_infer_batch(SecureEnv& env, SecureSequential& model,
                           const MatrixF& x_i);

}  // namespace psml::ml
