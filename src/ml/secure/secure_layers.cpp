#include "ml/secure/secure_layers.hpp"

#include "compress/compressed_channel.hpp"
#include "tensor/ops.hpp"

namespace psml::ml {

namespace {

using compress::stream_key;

constexpr std::uint32_t kPhaseForward = 0;
constexpr std::uint32_t kPhaseBackward = 1;

net::Tag seq_tag(mpc::PartyContext& ctx, net::Tag base) {
  return base + (ctx.next_seq() & 0x00ffffffu);
}

// Per-batch-slot compression stream key (see PartyContext::set_stream_salt).
std::uint64_t skey(const mpc::PartyContext& ctx, std::uint32_t layer,
                   std::uint32_t phase, std::uint32_t operand) {
  return stream_key(layer, phase, operand) ^ (ctx.stream_salt() << 48);
}

}  // namespace

// ---- SecureDense ------------------------------------------------------------

SecureDense::SecureDense(MatrixF w_share, MatrixF b_share)
    : w_(std::move(w_share)),
      b_(std::move(b_share)),
      dw_(w_.rows(), w_.cols(), 0.0f),
      db_(1, w_.cols(), 0.0f) {
  PSML_REQUIRE(b_.rows() == 1 && b_.cols() == w_.cols(),
               "SecureDense: bias share shape mismatch");
}

void SecureDense::plan(std::vector<mpc::TripletSpec>& specs,
                       std::size_t batch, bool training) const {
  const std::size_t in = w_.rows(), out = w_.cols();
  // Consumption order in forward(): Y = X x W, then the staged backward
  // triplets for dW = X^T x dY and (not for the input layer) dX = dY x W^T.
  specs.push_back({mpc::TripletKind::kMatMul, batch, in, out});
  if (training) {
    specs.push_back({mpc::TripletKind::kMatMul, in, batch, out});
    if (!input_layer_) {
      specs.push_back({mpc::TripletKind::kMatMul, batch, out, in});
    }
  }
}

MatrixF SecureDense::forward(SecureEnv& env, const MatrixF& x_i) {
  auto& ctx = *env.ctx;
  PSML_REQUIRE(x_i.cols() == w_.rows(), "SecureDense: input width mismatch");

  const mpc::TripletShare t_f = ctx.triplets().pop_matmul();
  MatrixF y = mpc::secure_matmul(ctx, x_i, w_, t_f,
                                 skey(ctx, layer_id_, kPhaseForward, 0));
  // Bias add is linear in the shares: purely local.
  for (std::size_t r = 0; r < y.rows(); ++r) {
    float* row = y.data() + r * y.cols();
    for (std::size_t c = 0; c < y.cols(); ++c) row[c] += b_(0, c);
  }

  if (!env.training) return y;

  // Stage the backward pass.
  x_cache_ = x_i;
  t_dw_ = ctx.triplets().pop_matmul();
  tag_e_dw_ = seq_tag(ctx, mpc::tags::kExchangeE);
  tag_f_dw_ = seq_tag(ctx, mpc::tags::kExchangeF);
  if (!input_layer_) {
    t_dx_ = ctx.triplets().pop_matmul();
    tag_f_dx_ = seq_tag(ctx, mpc::tags::kExchangeF);
    tag_e_dx_ = seq_tag(ctx, mpc::tags::kExchangeE);
  }

  if (env.engine != nullptr) {
    // Fig. 6: the gradient-independent halves of the backward reconstruct
    // become engine ops now, overlapping later layers' GPU operations. Each
    // writes its result var plus the engine's comm var — the comm chain is
    // what serializes all engine channel ops in push order, so both
    // servers' message sequences stay aligned. Tags/keys were reserved
    // above, on this thread, before the ops were pushed.
    auto& eng = *env.engine;
    auto* self = this;
    auto* pctx = &ctx;
    v_e_dw_ = eng.new_var("dense.e_dw");
    eng.push(
        [self, pctx] {
          self->early_e_dw_ = mpc::open_operand(
              *pctx, tensor::transpose(self->x_cache_), self->t_dw_.u,
              self->tag_e_dw_,
              skey(*pctx, self->layer_id_, kPhaseBackward, 0));
        },
        {}, {v_e_dw_, eng.comm_var()}, pipeline::Exec::lane(),
        "dense.open.e_dw");
    if (!input_layer_) {
      v_f_dx_ = eng.new_var("dense.f_dx");
      eng.push(
          [self, pctx] {
            self->early_f_dx_ = mpc::open_operand(
                *pctx, tensor::transpose(self->w_), self->t_dx_.v,
                self->tag_f_dx_,
                skey(*pctx, self->layer_id_, kPhaseBackward, 1));
          },
          {}, {v_f_dx_, eng.comm_var()}, pipeline::Exec::lane(),
          "dense.open.f_dx");
    }
  }
  return y;
}

MatrixF SecureDense::backward(SecureEnv& env, const MatrixF& dy_i) {
  auto& ctx = *env.ctx;
  PSML_REQUIRE(dy_i.cols() == w_.cols(), "SecureDense: grad width mismatch");

  const MatrixF xt = tensor::transpose(x_cache_);

  // dW = X^T x dY.
  MatrixF e_dw;
  if (env.engine != nullptr) {
    env.engine->wait(v_e_dw_);
    e_dw = std::move(early_e_dw_);
  } else {
    e_dw = mpc::open_operand(ctx, xt, t_dw_.u, tag_e_dw_,
                             skey(ctx, layer_id_, kPhaseBackward, 0));
  }
  MatrixF f_dw = mpc::open_operand(ctx, dy_i, t_dw_.v, tag_f_dw_,
                                   skey(ctx, layer_id_, kPhaseBackward, 2));
  dw_ = mpc::compute_ci(ctx, {std::move(e_dw), std::move(f_dw)}, xt, dy_i,
                        t_dw_);
  // Keep weight-share magnitudes at the mask scale (see refresh_share docs).
  dw_ = mpc::refresh_share(ctx, dw_);
  // db = 1^T x dY: linear, local on shares (refreshed like dW — dY shares
  // can carry large magnitudes).
  MatrixF db_batch(1, dy_i.cols(), 0.0f);
  for (std::size_t r = 0; r < dy_i.rows(); ++r) {
    const float* row = dy_i.data() + r * dy_i.cols();
    for (std::size_t c = 0; c < dy_i.cols(); ++c) db_batch(0, c) += row[c];
  }
  db_batch = mpc::refresh_share(ctx, db_batch);
  tensor::add(db_, db_batch, db_);
  if (input_layer_) return MatrixF();

  // dX = dY x W^T.
  const MatrixF wt = tensor::transpose(w_);
  MatrixF e_dx = mpc::open_operand(ctx, dy_i, t_dx_.u, tag_e_dx_,
                                   skey(ctx, layer_id_, kPhaseBackward, 3));
  MatrixF f_dx;
  if (env.engine != nullptr) {
    env.engine->wait(v_f_dx_);
    f_dx = std::move(early_f_dx_);
  } else {
    f_dx = mpc::open_operand(ctx, wt, t_dx_.v, tag_f_dx_,
                             skey(ctx, layer_id_, kPhaseBackward, 1));
  }
  return mpc::compute_ci(ctx, {std::move(e_dx), std::move(f_dx)}, dy_i, wt,
                         t_dx_);
}

void SecureDense::update(float lr) {
  tensor::axpy(-lr, dw_, w_);
  tensor::axpy(-lr, db_, b_);
  dw_.fill(0.0f);
  db_.fill(0.0f);
}

// ---- SecureActivation -------------------------------------------------------

void SecureActivation::plan(std::vector<mpc::TripletSpec>& specs,
                            std::size_t batch, bool training) const {
  PSML_REQUIRE(width_ > 0, "SecureActivation: width not set");
  specs.push_back({mpc::TripletKind::kActivation, batch, 0, width_});
}

MatrixF SecureActivation::forward(SecureEnv& env, const MatrixF& x_i) {
  auto& ctx = *env.ctx;
  PSML_REQUIRE(width_ == 0 || x_i.cols() == width_,
               "SecureActivation: width mismatch");
  auto result = mpc::secure_activation(
      ctx, x_i, skey(ctx, layer_id_, kPhaseForward, 0));
  grad_mask_ = std::move(result.grad_mask);
  return std::move(result.value_share);
}

MatrixF SecureActivation::backward(SecureEnv& env, const MatrixF& dy_i) {
  // The region mask is public; masking the gradient share is local.
  MatrixF dx;
  tensor::hadamard(dy_i, grad_mask_, dx);
  return dx;
}

// ---- SecureConv2D -----------------------------------------------------------

SecureConv2D::SecureConv2D(tensor::ConvShape shape, MatrixF w_share)
    : shape_(shape),
      w_(std::move(w_share)),
      dw_(w_.rows(), w_.cols(), 0.0f) {
  PSML_REQUIRE(w_.rows() == shape_.patch_cols() && w_.cols() == shape_.out_c,
               "SecureConv2D: weight share shape mismatch");
}

void SecureConv2D::plan(std::vector<mpc::TripletSpec>& specs,
                        std::size_t batch, bool training) const {
  const std::size_t pr = shape_.patch_rows(batch);
  const std::size_t pc = shape_.patch_cols();
  const std::size_t oc = shape_.out_c;
  specs.push_back({mpc::TripletKind::kMatMul, pr, pc, oc});  // forward
  if (training) {
    specs.push_back({mpc::TripletKind::kMatMul, pc, pr, oc});  // dW
    if (!input_layer_) {
      specs.push_back({mpc::TripletKind::kMatMul, pr, oc, pc});  // dPatches
    }
  }
}

MatrixF SecureConv2D::forward(SecureEnv& env, const MatrixF& x_i) {
  auto& ctx = *env.ctx;
  batch_cache_ = x_i.rows();
  // im2col is a linear rearrangement: applying it to a share yields a share
  // of the lowered matrix, so each server lowers locally.
  patches_cache_ = tensor::im2col(x_i, shape_);

  const mpc::TripletShare t_f = ctx.triplets().pop_matmul();
  MatrixF flat =
      mpc::secure_matmul(ctx, patches_cache_, w_, t_f,
                         skey(ctx, layer_id_, kPhaseForward, 0));
  if (env.training) {
    t_dw_ = ctx.triplets().pop_matmul();
    if (!input_layer_) t_dx_ = ctx.triplets().pop_matmul();
  }

  // Rearrange (batch*oh*ow) x out_c into channel-major feature maps.
  const std::size_t spatial = shape_.out_h() * shape_.out_w();
  MatrixF y(batch_cache_, shape_.out_c * spatial);
  for (std::size_t b = 0; b < batch_cache_; ++b) {
    for (std::size_t s = 0; s < spatial; ++s) {
      const float* frow = flat.data() + (b * spatial + s) * shape_.out_c;
      for (std::size_t c = 0; c < shape_.out_c; ++c) {
        y(b, c * spatial + s) = frow[c];
      }
    }
  }
  return y;
}

MatrixF SecureConv2D::backward(SecureEnv& env, const MatrixF& dy_i) {
  auto& ctx = *env.ctx;
  const std::size_t spatial = shape_.out_h() * shape_.out_w();
  PSML_REQUIRE(dy_i.cols() == shape_.out_c * spatial,
               "SecureConv2D: grad width mismatch");

  MatrixF flat(batch_cache_ * spatial, shape_.out_c);
  for (std::size_t b = 0; b < batch_cache_; ++b) {
    for (std::size_t s = 0; s < spatial; ++s) {
      float* frow = flat.data() + (b * spatial + s) * shape_.out_c;
      for (std::size_t c = 0; c < shape_.out_c; ++c) {
        frow[c] = dy_i(b, c * spatial + s);
      }
    }
  }

  dw_ = mpc::secure_matmul(ctx, tensor::transpose(patches_cache_), flat,
                           t_dw_, skey(ctx, layer_id_, kPhaseBackward, 0));
  dw_ = mpc::refresh_share(ctx, dw_);
  if (input_layer_) return MatrixF();
  MatrixF dpatches =
      mpc::secure_matmul(ctx, flat, tensor::transpose(w_), t_dx_,
                         skey(ctx, layer_id_, kPhaseBackward, 1));
  return tensor::col2im(dpatches, shape_, batch_cache_);
}

void SecureConv2D::update(float lr) {
  tensor::axpy(-lr, dw_, w_);
  dw_.fill(0.0f);
}

}  // namespace psml::ml
