#include "ml/secure/secure_rnn.hpp"

#include "compress/compressed_channel.hpp"
#include "tensor/ops.hpp"

namespace psml::ml {

namespace {
std::uint64_t skey(const mpc::PartyContext& ctx, std::uint32_t layer,
                   std::uint32_t phase, std::uint32_t operand) {
  return compress::stream_key(layer, phase, operand) ^
         (ctx.stream_salt() << 48);
}
}

SecureRnn::SecureRnn(MatrixF wx_share, MatrixF wh_share, MatrixF wo_share)
    : wx_(std::move(wx_share)),
      wh_(std::move(wh_share)),
      wo_(std::move(wo_share)),
      dwx_(wx_.rows(), wx_.cols(), 0.0f),
      dwh_(wh_.rows(), wh_.cols(), 0.0f),
      dwo_(wo_.rows(), wo_.cols(), 0.0f) {}

void SecureRnn::plan(std::vector<mpc::TripletSpec>& specs, std::size_t batch,
                     std::size_t steps, bool training) const {
  const std::size_t in = wx_.rows();
  const std::size_t hid = wh_.rows();
  const std::size_t out = wo_.cols();
  for (std::size_t t = 0; t < steps; ++t) {
    specs.push_back({mpc::TripletKind::kMatMul, batch, in, hid});   // x Wx
    if (t > 0) {
      specs.push_back({mpc::TripletKind::kMatMul, batch, hid, hid});  // h Wh
    }
    specs.push_back({mpc::TripletKind::kActivation, batch, 0, hid});
  }
  specs.push_back({mpc::TripletKind::kMatMul, batch, hid, out});  // h_T Wo
  if (!training) return;
  specs.push_back({mpc::TripletKind::kMatMul, hid, batch, out});  // dWo
  specs.push_back({mpc::TripletKind::kMatMul, batch, out, hid});  // dh_T
  for (std::size_t t = steps; t-- > 0;) {
    specs.push_back({mpc::TripletKind::kMatMul, in, batch, hid});   // dWx
    if (t > 0) {
      specs.push_back({mpc::TripletKind::kMatMul, hid, batch, hid});  // dWh
      specs.push_back({mpc::TripletKind::kMatMul, batch, hid, hid});  // dh
    }
  }
}

MatrixF SecureRnn::forward(SecureEnv& env, const std::vector<MatrixF>& xs_i) {
  auto& ctx = *env.ctx;
  PSML_REQUIRE(!xs_i.empty(), "SecureRnn: empty sequence");
  const std::size_t batch = xs_i[0].rows();
  const std::size_t hid = wh_.rows();

  xs_cache_ = xs_i;
  h_cache_.assign(1, MatrixF(batch, hid, 0.0f));
  mask_cache_.clear();

  for (std::size_t t = 0; t < xs_i.size(); ++t) {
    const std::uint32_t lt = static_cast<std::uint32_t>(t);
    MatrixF z = mpc::secure_matmul(ctx, xs_i[t], wx_,
                                   skey(ctx, 100 + lt, 0, 0));
    // h_0 is the public zero both parties build locally, so h_0 Wh is known
    // to be zero: the t = 0 product is neither planned nor computed.
    if (t > 0) {
      MatrixF zh = mpc::secure_matmul(ctx, h_cache_.back(), wh_,
                                      skey(ctx, 100 + lt, 0, 1));
      tensor::add(z, zh, z);
    }
    auto act = mpc::secure_activation(ctx, z, skey(ctx, 100 + lt, 0, 2));
    h_cache_.push_back(std::move(act.value_share));
    mask_cache_.push_back(std::move(act.grad_mask));
  }
  return mpc::secure_matmul(ctx, h_cache_.back(), wo_, skey(ctx, 99, 0, 0));
}

void SecureRnn::backward(SecureEnv& env, const MatrixF& dout_i) {
  auto& ctx = *env.ctx;
  const std::size_t steps = xs_cache_.size();

  // dWo += h_T^T x dout ; dh = dout x Wo^T
  MatrixF g = mpc::secure_matmul(ctx, tensor::transpose(h_cache_.back()),
                                 dout_i, skey(ctx, 99, 1, 0));
  tensor::add(dwo_, g, dwo_);
  MatrixF dh = mpc::secure_matmul(ctx, dout_i, tensor::transpose(wo_),
                                  skey(ctx, 99, 1, 1));

  for (std::size_t t = steps; t-- > 0;) {
    const std::uint32_t lt = static_cast<std::uint32_t>(t);
    MatrixF dz;
    tensor::hadamard(dh, mask_cache_[t], dz);  // public mask: local
    MatrixF gx = mpc::secure_matmul(ctx, tensor::transpose(xs_cache_[t]), dz,
                                    skey(ctx, 100 + lt, 1, 0));
    tensor::add(dwx_, gx, dwx_);
    // At t = 0 the dWh term h_0^T dz is zero (h_0 is the public zero) and dh
    // would be the gradient w.r.t. that constant, which nothing reads:
    // neither product is planned or computed.
    if (t > 0) {
      MatrixF gh = mpc::secure_matmul(ctx, tensor::transpose(h_cache_[t]), dz,
                                      skey(ctx, 100 + lt, 1, 1));
      tensor::add(dwh_, gh, dwh_);
      dh = mpc::secure_matmul(ctx, dz, tensor::transpose(wh_),
                              skey(ctx, 100 + lt, 1, 2));
    }
  }
  refresh_grads(env);
}

void SecureRnn::refresh_grads(SecureEnv& env) {
  dwx_ = mpc::refresh_share(*env.ctx, dwx_);
  dwh_ = mpc::refresh_share(*env.ctx, dwh_);
  dwo_ = mpc::refresh_share(*env.ctx, dwo_);
}

void SecureRnn::update(float lr) {
  tensor::axpy(-lr, dwx_, wx_);
  tensor::axpy(-lr, dwh_, wh_);
  tensor::axpy(-lr, dwo_, wo_);
  dwx_.fill(0.0f);
  dwh_.fill(0.0f);
  dwo_.fill(0.0f);
}

}  // namespace psml::ml
