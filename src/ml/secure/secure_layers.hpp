// Secure layers: each server holds additive shares of the activations and
// parameters and runs the triplet protocols of src/mpc per layer.
//
// Pipeline support (paper Sec. 4.3, Fig. 6): a layer's backward pass needs
// two secure matmuls — dW = X^T x dY and dX = dY x W^T. The operands X^T and
// W^T are known the moment forward() finishes, so their halves of the
// reconstruct step (open X^T - U, open W^T - V) are pushed onto the party's
// dependency engine *during the forward pass*, overlapping with the GPU
// operations of later layers. Only the gradient-dependent halves remain in
// backward(), which waits on the staged ops' result vars.
//
// The model's input layer needs only the first of the two: nothing reads the
// gradient w.r.t. the data, so it plans, deals and computes no dX.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "mpc/activation.hpp"
#include "mpc/party.hpp"
#include "mpc/secure_matmul.hpp"
#include "pipeline/dep_engine.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matrix.hpp"

namespace psml::ml {

// Per-party execution environment handed to every secure layer call.
struct SecureEnv {
  mpc::PartyContext* ctx = nullptr;
  // Inference runs forward-only: backward triplets are neither planned nor
  // consumed when this is false.
  bool training = true;
  // Non-null enables the layer-level pipeline: layers emit staged open ops
  // into this engine (normally the party's own, &ctx->engine()), and the
  // trainer barriers it at step boundaries. Engine channel ops chain
  // through comm_var(), keeping both servers' message sequences aligned.
  pipeline::DepEngine* engine = nullptr;
};

class SecureLayer {
 public:
  virtual ~SecureLayer() = default;

  // Appends this layer's per-batch triplet specs in exact consumption order.
  virtual void plan(std::vector<mpc::TripletSpec>& specs, std::size_t batch,
                    bool training) const = 0;

  virtual MatrixF forward(SecureEnv& env, const MatrixF& x_i) = 0;
  virtual MatrixF backward(SecureEnv& env, const MatrixF& dy_i) = 0;
  virtual void update(float lr) {}

  // Stable id used for compression stream keys; assigned by the container.
  // Virtual so composite layers can propagate derived ids to sub-layers.
  virtual void set_layer_id(std::uint32_t id) { layer_id_ = id; }
  std::uint32_t layer_id() const { return layer_id_; }

  // Appends pointers to this layer's persistent parameter shares (the state
  // an SGD update mutates), in a deterministic order shared by both
  // servers. Used by the checkpoint share-snapshot machinery to roll a
  // model back to the start of a failed training step. Stateless layers
  // contribute nothing.
  virtual void collect_state(std::vector<MatrixF*>& out) {}

  // True for a model's first layer, whose input gradient nothing reads:
  // layers with a dX product then plan and consume no triplet for it, and
  // backward() returns an empty matrix. SecureSequential::add sets it from
  // the layer's position; a standalone or nested layer keeps its dX.
  bool input_layer() const { return input_layer_; }

 protected:
  std::uint32_t layer_id_ = 0;
  bool input_layer_ = false;

 private:
  friend class SecureSequential;
};

// Fully connected layer on weight shares.
class SecureDense : public SecureLayer {
 public:
  // Shares of the (in x out) weight matrix and (1 x out) bias.
  SecureDense(MatrixF w_share, MatrixF b_share);

  void plan(std::vector<mpc::TripletSpec>& specs, std::size_t batch,
            bool training) const override;
  MatrixF forward(SecureEnv& env, const MatrixF& x_i) override;
  MatrixF backward(SecureEnv& env, const MatrixF& dy_i) override;
  void update(float lr) override;

  const MatrixF& weight_share() const { return w_; }
  const MatrixF& bias_share() const { return b_; }

  void collect_state(std::vector<MatrixF*>& out) override {
    out.push_back(&w_);
    out.push_back(&b_);
  }

 private:
  MatrixF w_;   // share of W, in x out
  MatrixF b_;   // share of b, 1 x out
  MatrixF dw_;  // share of dW
  MatrixF db_;

  // Backward-pass state staged by forward().
  MatrixF x_cache_;
  mpc::TripletShare t_dw_, t_dx_;
  MatrixF early_e_dw_;  // opened X^T - U of the dW matmul (engine-staged)
  MatrixF early_f_dx_;  // opened W^T - V of the dX matmul (engine-staged)
  // Result vars of the staged opens; backward() waits on them before
  // reading the matrices above (completion publishes the writes).
  pipeline::VarHandle v_e_dw_, v_f_dx_;
  // Tags reserved at forward (schedule) time for all backward halves (two
  // for the input layer, which has no dX) so both servers' tag sequences
  // agree regardless of pipeline interleaving.
  net::Tag tag_e_dw_ = 0, tag_f_dw_ = 0, tag_e_dx_ = 0, tag_f_dx_ = 0;
};

// Eq. 9 activation via the masked-comparison protocol.
class SecureActivation : public SecureLayer {
 public:
  void plan(std::vector<mpc::TripletSpec>& specs, std::size_t batch,
            bool training) const override;
  MatrixF forward(SecureEnv& env, const MatrixF& x_i) override;
  MatrixF backward(SecureEnv& env, const MatrixF& dy_i) override;

  void set_width(std::size_t width) { width_ = width; }
  std::size_t width() const { return width_; }

 private:
  std::size_t width_ = 0;  // features per row, fixed by the model builder
  MatrixF grad_mask_;      // public region mask cached by forward
};

// Convolution on shares: im2col is linear so each server lowers its own
// share locally; the patch-matrix multiply runs the triplet protocol.
class SecureConv2D : public SecureLayer {
 public:
  SecureConv2D(tensor::ConvShape shape, MatrixF w_share);

  void plan(std::vector<mpc::TripletSpec>& specs, std::size_t batch,
            bool training) const override;
  MatrixF forward(SecureEnv& env, const MatrixF& x_i) override;
  MatrixF backward(SecureEnv& env, const MatrixF& dy_i) override;
  void update(float lr) override;

  const tensor::ConvShape& shape() const { return shape_; }
  const MatrixF& weight_share() const { return w_; }

  void collect_state(std::vector<MatrixF*>& out) override {
    out.push_back(&w_);
  }

 private:
  tensor::ConvShape shape_;
  MatrixF w_;  // share of (patch_cols x out_c)
  MatrixF dw_;
  MatrixF patches_cache_;
  std::size_t batch_cache_ = 0;
  mpc::TripletShare t_dw_, t_dx_;
};

}  // namespace psml::ml
