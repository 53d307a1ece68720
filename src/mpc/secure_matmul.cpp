#include "mpc/secure_matmul.hpp"

#include <future>
#include <utility>

#include "mpc/share.hpp"
#include "net/serialize.hpp"
#include "rng/rng.hpp"

#include "pipeline/dep_engine.hpp"
#include "profile/adaptive.hpp"
#include "profile/profiler.hpp"
#include "sgpu/ops.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace psml::mpc {

namespace {

// Elementwise kernels picked once by cpu_parallel. Each serial/parallel
// pair computes every element the same way, so the pick moves no result.
struct Elementwise {
  void (*add)(const MatrixF&, const MatrixF&, MatrixF&);
  void (*sub)(const MatrixF&, const MatrixF&, MatrixF&);
  void (*scale)(const MatrixF&, float, MatrixF&);
};

Elementwise elementwise(const PartyOptions& o) {
  if (o.cpu_parallel) {
    return {tensor::add_par, tensor::sub_par, tensor::scale_par};
  }
  return {tensor::add<float>, tensor::sub<float>, tensor::scale<float>};
}

// CPU evaluation of the online combination (Eq. 6 or fused Eq. 8).
MatrixF compute_ci_cpu(PartyContext& ctx, const MatrixF& e, const MatrixF& f,
                       const MatrixF& a_i, const MatrixF& b_i,
                       const MatrixF& z_i) {
  const auto& o = ctx.options();
  const Elementwise ew = elementwise(o);
  MatrixF c(a_i.rows(), b_i.cols());

  if (o.fuse_eq8) {
    // D = (-i) * E + A_i;  C = D x F + E x B_i + Z_i   (two GEMMs).
    // gemm_blocked and gemm_parallel are bit-identical (tensor/gemm.hpp).
    auto gemm = o.cpu_parallel ? tensor::gemm_parallel : tensor::gemm_blocked;
    MatrixF d;
    ew.scale(e, -static_cast<float>(ctx.id()), d);
    ew.add(d, a_i, d);
    gemm(1.0f, d, tensor::Trans::kNo, f, tensor::Trans::kNo, 0.0f, c);
    gemm(1.0f, e, tensor::Trans::kNo, b_i, tensor::Trans::kNo, 1.0f, c);
  } else {
    // Literal Eq. 6: C = (-i) ExF + A_i x F + E x B_i + Z_i (three GEMMs).
    // Baseline mode uses the naive kernel throughout (single-thread SecureML).
    auto gemm = o.cpu_parallel ? tensor::gemm_parallel : tensor::gemm_naive;
    if (ctx.id() == 1) {
      gemm(-1.0f, e, tensor::Trans::kNo, f, tensor::Trans::kNo, 0.0f, c);
    } else {
      c.fill(0.0f);
    }
    gemm(1.0f, a_i, tensor::Trans::kNo, f, tensor::Trans::kNo, 1.0f, c);
    gemm(1.0f, e, tensor::Trans::kNo, b_i, tensor::Trans::kNo, 1.0f, c);
  }
  ew.add(c, z_i, c);
  return c;
}

// Device evaluation of fused Eq. 8. The Fig. 5 transfer/compute overlap is
// no longer hand-sequenced with recorded Events: every transfer and kernel
// is an engine op declaring its read/write set over the device buffers, and
// the schedule —
//   copy stream:    E | A_i | F        | B_i       | Z_i
//   compute stream:         D=-iE+A_i  | C = D x F | C += E x B_i | C += Z_i
// — emerges from the graph (uploads race ahead on the copy stream; each
// kernel dispatches the moment its operands have landed). With use_pipeline
// off both stream vars point at the compute stream and the same graph
// degenerates to the serial schedule.
MatrixF compute_ci_gpu(PartyContext& ctx, const MatrixF& e, const MatrixF& f,
                       const MatrixF& a_i, const MatrixF& b_i,
                       const MatrixF& z_i) {
  auto& dev = ctx.device();
  const auto& o = ctx.options();
  const float neg_i = -static_cast<float>(ctx.id());

  sgpu::Stream& copy = o.use_pipeline ? ctx.copy_stream() : ctx.compute_stream();
  sgpu::Stream& comp = ctx.compute_stream();

  sgpu::DeviceMatrix de(dev, e.rows(), e.cols());
  sgpu::DeviceMatrix da(dev, a_i.rows(), a_i.cols());
  sgpu::DeviceMatrix df(dev, f.rows(), f.cols());
  sgpu::DeviceMatrix db(dev, b_i.rows(), b_i.cols());
  sgpu::DeviceMatrix dz(dev, z_i.rows(), z_i.cols());
  sgpu::DeviceMatrix dd(dev, e.rows(), e.cols());
  sgpu::DeviceMatrix dc(dev, a_i.rows(), b_i.cols());
  MatrixF c(a_i.rows(), b_i.cols());

  pipeline::DepEngine& eng = ctx.engine();
  using pipeline::Exec;
  const auto ve = eng.new_var("ci.E");
  const auto va = eng.new_var("ci.A");
  const auto vf = eng.new_var("ci.F");
  const auto vb = eng.new_var("ci.B");
  const auto vz = eng.new_var("ci.Z");
  const auto vd = eng.new_var("ci.D");
  const auto vc = eng.new_var("ci.C");
  const auto vhost = eng.new_var("ci.host");

  // Every captured local outlives the graph: wait(vhost) below only returns
  // once the download — the sink every op precedes through the vc chain —
  // has completed (or the whole graph cancel-drained).
  eng.push([&] { sgpu::upload_async(dev, copy, de, e); }, {}, {ve},
           Exec::on_stream(copy), "ci.up.E");
  eng.push([&] { sgpu::upload_async(dev, copy, da, a_i); }, {}, {va},
           Exec::on_stream(copy), "ci.up.A");
  eng.push([&] { sgpu::upload_async(dev, copy, df, f); }, {}, {vf},
           Exec::on_stream(copy), "ci.up.F");
  eng.push([&] { sgpu::upload_async(dev, copy, db, b_i); }, {}, {vb},
           Exec::on_stream(copy), "ci.up.B");
  eng.push([&] { sgpu::upload_async(dev, copy, dz, z_i); }, {}, {vz},
           Exec::on_stream(copy), "ci.up.Z");
  // D = (-i) E + A_i
  eng.push([&, neg_i] { sgpu::axpby_async(dev, comp, neg_i, de, da, dd); },
           {ve, va}, {vd}, Exec::on_stream(comp), "ci.axpby");
  // C = D x F
  eng.push([&] { sgpu::gemm_async(dev, comp, dd, df, dc, 1.0f, 0.0f); },
           {vd, vf}, {vc}, Exec::on_stream(comp), "ci.gemm1");
  // C += E x B_i
  eng.push([&] { sgpu::gemm_async(dev, comp, de, db, dc, 1.0f, 1.0f); },
           {ve, vb}, {vc}, Exec::on_stream(comp), "ci.gemm2");
  // C += Z_i
  eng.push([&] { sgpu::add_inplace_async(dev, comp, dz, dc); }, {vz}, {vc},
           Exec::on_stream(comp), "ci.addz");
  eng.push([&] { sgpu::download_async(dev, comp, c, dc); }, {vc}, {vhost},
           Exec::on_stream(comp), "ci.down");

  eng.wait(vhost);
  return c;
}

}  // namespace

void exchange(PartyContext& ctx, const std::function<void()>& send,
              const std::function<void()>& recv) {
  if (!ctx.peer().send_may_block()) {
    send();
    recv();
    return;
  }
  auto sent = std::async(std::launch::async, [&send] { send(); });
  recv();
  sent.get();
}

Reconstructed reconstruct_ef(PartyContext& ctx, const MatrixF& a_i,
                             const MatrixF& b_i, const TripletShare& triplet,
                             std::uint64_t comm_key, std::uint32_t key_space) {
  PSML_REQUIRE(a_i.same_shape(triplet.u) && b_i.same_shape(triplet.v),
               "reconstruct_ef: triplet shape does not match operands");
  auto& prof = profile::Profiler::global();
  const Elementwise ew = elementwise(ctx.options());
  const std::uint32_t seq = ctx.next_seq();
  const std::uint64_t key =
      comm_key != 0 ? comm_key : (std::uint64_t{key_space} << 32) | seq;

  // compute1: E_i = A_i - U_i, F_i = B_i - V_i
  MatrixF e_i, f_i;
  {
    profile::ScopedPhase sp(prof, "online.compute1");
    ew.sub(a_i, triplet.u, e_i);
    ew.sub(b_i, triplet.v, f_i);
  }

  // communicate: exchange E_i / F_i, sum to E / F.
  Reconstructed ef;
  {
    profile::ScopedPhase sp(prof, "online.communicate");
    // E and F travel coalesced in one frame per direction (halving the
    // per-step round-trip count). The tag stays on the kExchangeE sequence so
    // the Fig. 6 pipeline and resilient-training resync keep their numbering;
    // each half keeps its own compression stream key (key^1 / key^2) exactly
    // as the former split sends did.
    const net::Tag te = tags::kExchangeE + (seq & 0x00ffffffu);
    std::pair<MatrixF, MatrixF> peer;
    exchange(
        ctx,
        [&] { ctx.compressed().send_pair(te, key ^ 0x1, e_i, key ^ 0x2, f_i); },
        [&] { peer = ctx.compressed().recv_pair(te, key ^ 0x1, key ^ 0x2); });
    ew.add(e_i, peer.first, ef.e);
    ew.add(f_i, peer.second, ef.f);
  }
  return ef;
}

MatrixF compute_ci(PartyContext& ctx, const Reconstructed& ef,
                   const MatrixF& a_i, const MatrixF& b_i,
                   const TripletShare& triplet) {
  auto& prof = profile::Profiler::global();
  profile::ScopedPhase sp(prof, "online.compute2");
  const auto& o = ctx.options();

  bool on_gpu = o.use_gpu;
  if (on_gpu && o.adaptive) {
    // The fused form costs ~2 GEMMs of (m,n,k); fold that into one decision
    // with doubled k (same flop count).
    const auto d = profile::AdaptiveDispatch::global().decide(
        a_i.rows(), b_i.cols(), 2 * a_i.cols());
    on_gpu = d.use_gpu;
  }
  if (on_gpu) {
    return compute_ci_gpu(ctx, ef.e, ef.f, a_i, b_i, triplet.z);
  }
  return compute_ci_cpu(ctx, ef.e, ef.f, a_i, b_i, triplet.z);
}

MatrixF open_operand(PartyContext& ctx, const MatrixF& share,
                     const MatrixF& mask_share, net::Tag tag,
                     std::uint64_t comm_key) {
  PSML_REQUIRE(share.same_shape(mask_share),
               "open_operand: mask shape mismatch");
  auto& prof = profile::Profiler::global();
  const Elementwise ew = elementwise(ctx.options());
  MatrixF diff;
  {
    profile::ScopedPhase sp(prof, "online.compute1");
    ew.sub(share, mask_share, diff);
  }
  profile::ScopedPhase sp(prof, "online.communicate");
  MatrixF peer;
  exchange(
      ctx, [&] { ctx.compressed().send(tag, comm_key, diff); },
      [&] { peer = ctx.compressed().recv(tag, comm_key); });
  MatrixF out;
  ew.add(diff, peer, out);
  return out;
}

MatrixF secure_matmul(PartyContext& ctx, const MatrixF& a_i,
                      const MatrixF& b_i, const TripletShare& triplet,
                      std::uint64_t comm_key) {
  const Reconstructed ef = reconstruct_ef(ctx, a_i, b_i, triplet, comm_key);
  return compute_ci(ctx, ef, a_i, b_i, triplet);
}

namespace {
// splitmix64 finalizer for deriving per-op mask seeds in deterministic mode.
std::uint64_t mask_mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

MatrixF refresh_share(PartyContext& ctx, const MatrixF& x_i) {
  auto& prof = profile::Profiler::global();
  profile::ScopedPhase sp(prof, "online.communicate");
  const std::uint32_t seq = ctx.next_seq();
  const net::Tag tag = tags::kControl + 0x200000u + (seq & 0x000fffffu);
  const Elementwise ew = elementwise(ctx.options());
  if (ctx.id() == 0) {
    // Fresh entropy per refresh in production; with PartyOptions::mask_seed
    // set, a stream keyed by the op sequence number — the counter is
    // checkpointed and resynced on recovery, so a restarted run re-derives
    // identical masks and replays to bit-identical shares.
    const std::uint64_t ms = ctx.options().mask_seed;
    const std::uint64_t seed =
        ms != 0 ? mask_mix(ms ^ (0x9e3779b97f4a7c15ull +
                                 static_cast<std::uint64_t>(seq)))
                : rng::random_seed();
    MatrixF fresh(x_i.rows(), x_i.cols());
    rng::fill_uniform_par(fresh, -kFloatMaskRadius, kFloatMaskRadius, seed);
    MatrixF masked;
    ew.sub(x_i, fresh, masked);
    net::send_matrix(ctx.peer(), tag, masked);
    return fresh;
  }
  MatrixF masked = net::recv_matrix_f32(ctx.peer(), tag);
  MatrixF out;
  ew.add(x_i, masked, out);
  return out;
}

MatrixF secure_matmul(PartyContext& ctx, const MatrixF& a_i,
                      const MatrixF& b_i, std::uint64_t comm_key) {
  const TripletShare t = ctx.triplets().pop_matmul();
  return secure_matmul(ctx, a_i, b_i, t, comm_key);
}

}  // namespace psml::mpc
