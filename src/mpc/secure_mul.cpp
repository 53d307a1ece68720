#include "mpc/secure_mul.hpp"

#include "mpc/secure_matmul.hpp"
#include "profile/profiler.hpp"

namespace psml::mpc {

MatrixF secure_mul(PartyContext& ctx, const MatrixF& x_i, const MatrixF& y_i,
                   const TripletShare& triplet, std::uint64_t comm_key) {
  PSML_REQUIRE(x_i.same_shape(y_i), "secure_mul: operand shape mismatch");
  const Reconstructed ef = reconstruct_ef(ctx, x_i, y_i, triplet, comm_key,
                                          /*key_space=*/0xE100);

  profile::ScopedPhase sp(profile::Profiler::global(), "online.compute2");
  // C_i = (-i) E.*F + X_i.*F + E.*Y_i + Z_i — elementwise, always CPU: the
  // arithmetic intensity (1 flop per 3 loads) never amortizes a PCIe round
  // trip, matching the paper's choice to keep light steps off the GPU.
  MatrixF c(x_i.rows(), x_i.cols());
  const float neg_i = -static_cast<float>(ctx.id());
  const float* pe = ef.e.data();
  const float* pf = ef.f.data();
  const float* px = x_i.data();
  const float* py = y_i.data();
  const float* pz = triplet.z.data();
  float* pc = c.data();
  for (std::size_t idx = 0; idx < c.size(); ++idx) {
    pc[idx] = neg_i * pe[idx] * pf[idx] + px[idx] * pf[idx] +
              pe[idx] * py[idx] + pz[idx];
  }
  return c;
}

MatrixF secure_mul(PartyContext& ctx, const MatrixF& x_i, const MatrixF& y_i,
                   std::uint64_t comm_key) {
  const TripletShare t = ctx.triplets().pop_elementwise();
  return secure_mul(ctx, x_i, y_i, t, comm_key);
}

}  // namespace psml::mpc
