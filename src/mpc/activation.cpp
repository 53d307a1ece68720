#include "mpc/activation.hpp"

#include "mpc/secure_matmul.hpp"
#include "mpc/secure_mul.hpp"
#include "net/serialize.hpp"
#include "profile/profiler.hpp"
#include "tensor/ops.hpp"

namespace psml::mpc {

namespace {

// Opens a shared matrix between the two servers (both learn the value).
MatrixF open_shares(PartyContext& ctx, const MatrixF& mine, net::Tag tag) {
  // Opened values are fresh random-looking masks every epoch; delta
  // compression cannot help, so bypass it with a raw dense send.
  MatrixF theirs;
  exchange(
      ctx, [&] { net::send_matrix(ctx.peer(), tag, mine); },
      [&] { theirs = net::recv_matrix_f32(ctx.peer(), tag); });
  MatrixF out;
  tensor::add(mine, theirs, out);
  return out;
}

}  // namespace

ActivationResult secure_activation(PartyContext& ctx, const MatrixF& x_i,
                                   const ActivationShare& material,
                                   std::uint64_t comm_key) {
  PSML_REQUIRE(x_i.same_shape(material.s_lo),
               "secure_activation: material shape mismatch");
  auto& prof = profile::Profiler::global();
  const float i = static_cast<float>(ctx.id());

  // Shares of Y_lo = X + 1/2 and Y_hi = X - 1/2 (constants go to party 1).
  MatrixF y_lo = x_i, y_hi = x_i;
  if (ctx.id() == 1) {
    for (std::size_t idx = 0; idx < y_lo.size(); ++idx) {
      y_lo.data()[idx] += 0.5f;
      y_hi.data()[idx] -= 0.5f;
    }
  }

  // Masked products, securely computed then opened. sign(Y .* S) = sign(Y).
  MatrixF m_lo =
      secure_mul(ctx, y_lo, material.s_lo, material.t_lo, comm_key);
  MatrixF m_hi =
      secure_mul(ctx, y_hi, material.s_hi, material.t_hi, comm_key);

  const std::uint32_t seq = ctx.next_seq();
  MatrixF open_lo, open_hi;
  {
    profile::ScopedPhase sp(prof, "online.communicate");
    open_lo = open_shares(ctx, m_lo, tags::kOpenMasked + (seq & 0xffffffu));
    open_hi =
        open_shares(ctx, m_hi, tags::kOpenMasked + 0x800000u + (seq & 0x7fffffu));
  }

  profile::ScopedPhase sp(prof, "online.compute2");
  ActivationResult out;
  out.value_share.resize(x_i.rows(), x_i.cols());
  out.grad_mask.resize(x_i.rows(), x_i.cols());
  for (std::size_t idx = 0; idx < x_i.size(); ++idx) {
    const bool below = open_lo.data()[idx] < 0.0f;   // X < -1/2
    const bool above = open_hi.data()[idx] > 0.0f;   // X > 1/2
    if (below) {
      out.value_share.data()[idx] = 0.0f;
      out.grad_mask.data()[idx] = 0.0f;
    } else if (above) {
      out.value_share.data()[idx] = i;  // shares (0, 1) reconstruct to 1
      out.grad_mask.data()[idx] = 0.0f;
    } else {
      out.value_share.data()[idx] = x_i.data()[idx] + i * 0.5f;
      out.grad_mask.data()[idx] = 1.0f;
    }
  }
  return out;
}

ActivationResult secure_activation(PartyContext& ctx, const MatrixF& x_i,
                                   std::uint64_t comm_key) {
  const ActivationShare material = ctx.triplets().pop_activation();
  return secure_activation(ctx, x_i, material, comm_key);
}

MatrixF secure_less_than(PartyContext& ctx, const MatrixF& x_i, float c,
                         const ActivationShare& material,
                         std::uint64_t comm_key) {
  PSML_REQUIRE(x_i.same_shape(material.s_lo),
               "secure_less_than: material shape mismatch");
  auto& prof = profile::Profiler::global();

  // Shares of Y = X - c (constant to party 1); sign(Y .* S) = sign(Y).
  MatrixF y = x_i;
  if (ctx.id() == 1) {
    for (std::size_t idx = 0; idx < y.size(); ++idx) y.data()[idx] -= c;
  }
  MatrixF masked = secure_mul(ctx, y, material.s_lo, material.t_lo, comm_key);

  const std::uint32_t seq = ctx.next_seq();
  MatrixF opened;
  {
    profile::ScopedPhase sp(prof, "online.communicate");
    opened = open_shares(ctx, masked, tags::kOpenMasked + (seq & 0xffffffu));
  }
  MatrixF mask(x_i.rows(), x_i.cols());
  for (std::size_t idx = 0; idx < mask.size(); ++idx) {
    mask.data()[idx] = opened.data()[idx] < 0.0f ? 1.0f : 0.0f;
  }
  return mask;
}

MatrixF activation_ref(const MatrixF& x) {
  MatrixF out(x.rows(), x.cols());
  for (std::size_t idx = 0; idx < x.size(); ++idx) {
    const float v = x.data()[idx];
    out.data()[idx] = v < -0.5f ? 0.0f : (v > 0.5f ? 1.0f : v + 0.5f);
  }
  return out;
}

MatrixF activation_grad_ref(const MatrixF& x) {
  MatrixF out(x.rows(), x.cols());
  for (std::size_t idx = 0; idx < x.size(); ++idx) {
    const float v = x.data()[idx];
    out.data()[idx] = (v > -0.5f && v < 0.5f) ? 1.0f : 0.0f;
  }
  return out;
}

}  // namespace psml::mpc
