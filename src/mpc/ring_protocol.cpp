#include "mpc/ring_protocol.hpp"

#include "mpc/secure_matmul.hpp"
#include "net/serialize.hpp"
#include "profile/profiler.hpp"

namespace psml::mpc {

std::pair<RingTripletShare, RingTripletShare> make_ring_matmul_triplet(
    std::size_t m, std::size_t k, std::size_t n, std::uint64_t seed) {
  // U, V are uniform over the full ring (information-theoretic masking of
  // the opened E = A - U, F = B - V); the Beaver identity and the final
  // truncation are scale-agnostic, so no fixed-point structure is needed.
  MatrixU64 u(m, k), v(k, n);
  rng::fill_uniform_u64_par(u, seed ^ 0xA);
  rng::fill_uniform_u64_par(v, seed ^ 0xB);
  MatrixU64 z = ring_matmul(u, v);

  auto su = share_ring(u, seed ^ 0x1);
  auto sv = share_ring(v, seed ^ 0x2);
  auto sz = share_ring(z, seed ^ 0x3);
  return {RingTripletShare{std::move(su.s0), std::move(sv.s0), std::move(sz.s0)},
          RingTripletShare{std::move(su.s1), std::move(sv.s1), std::move(sz.s1)}};
}

MatrixU64 secure_matmul_ring(PartyContext& ctx, const MatrixU64& a_i,
                             const MatrixU64& b_i,
                             const RingTripletShare& triplet, bool truncate) {
  PSML_REQUIRE(a_i.same_shape(triplet.u) && b_i.same_shape(triplet.v),
               "secure_matmul_ring: triplet shape mismatch");
  auto& prof = profile::Profiler::global();
  const std::uint32_t seq = ctx.next_seq();

  MatrixU64 e_i, f_i;
  {
    profile::ScopedPhase sp(prof, "online.compute1");
    e_i = ring_sub(a_i, triplet.u);
    f_i = ring_sub(b_i, triplet.v);
  }

  MatrixU64 e, f;
  {
    profile::ScopedPhase sp(prof, "online.communicate");
    // Two raw u64 frames, E then F, on their own tag families.
    const net::Tag te = tags::kExchangeE + (seq & 0x00ffffffu);
    const net::Tag tf = tags::kExchangeF + (seq & 0x00ffffffu);
    MatrixU64 e_peer, f_peer;
    exchange(
        ctx,
        [&] {
          net::send_matrix(ctx.peer(), te, e_i);
          net::send_matrix(ctx.peer(), tf, f_i);
        },
        [&] {
          e_peer = net::recv_matrix_u64(ctx.peer(), te);
          f_peer = net::recv_matrix_u64(ctx.peer(), tf);
        });
    e = reconstruct_ring(e_i, e_peer);
    f = reconstruct_ring(f_i, f_peer);
  }

  profile::ScopedPhase sp(prof, "online.compute2");
  // C_i = (-i) E x F + A_i x F + E x B_i + Z_i over Z_2^64.
  MatrixU64 c = ring_matmul(a_i, f);
  c = ring_add(c, ring_matmul(e, b_i));
  c = ring_add(c, triplet.z);
  if (ctx.id() == 1) {
    c = ring_sub(c, ring_matmul(e, f));
  }
  if (truncate) {
    c = truncate_share(c, ctx.id());
  }
  return c;
}

}  // namespace psml::mpc
