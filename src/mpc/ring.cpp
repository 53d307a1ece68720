#include "mpc/ring.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "tensor/gemm_kernel.hpp"

namespace psml::mpc {

MatrixU64 encode_fixed(const MatrixF& x) {
  MatrixU64 out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out.data()[i] = encode_fixed(static_cast<double>(x.data()[i]));
  }
  return out;
}

MatrixF decode_fixed(const MatrixU64& v) {
  MatrixF out(v.rows(), v.cols());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out.data()[i] = static_cast<float>(decode_fixed(v.data()[i]));
  }
  return out;
}

MatrixU64 ring_add(const MatrixU64& a, const MatrixU64& b) {
  PSML_REQUIRE(a.same_shape(b), "ring_add: shape mismatch");
  MatrixU64 out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.data()[i] = a.data()[i] + b.data()[i];
  }
  return out;
}

MatrixU64 ring_sub(const MatrixU64& a, const MatrixU64& b) {
  PSML_REQUIRE(a.same_shape(b), "ring_sub: shape mismatch");
  MatrixU64 out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.data()[i] = a.data()[i] - b.data()[i];
  }
  return out;
}

MatrixU64 ring_matmul(const MatrixU64& a, const MatrixU64& b) {
  PSML_REQUIRE(a.cols() == b.rows(), "ring_matmul: inner dims disagree");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  MatrixU64 c(m, n, 0);
  // Packed-panel engine shared with the f32 GEMM path (branch-free: the seed
  // kernel's `av == 0` skip is gone). Ring arithmetic is exact mod 2^64, so
  // the 2-D tile parallelism cannot change results; the cutoff only avoids
  // pool overhead on the small online-step multiplies.
  tensor::detail::GemmArgsU64 g;
  g.m = m;
  g.n = n;
  g.k = k;
  g.alpha = 1;
  g.beta = 0;
  g.a = a.data();
  g.a_rs = k;
  g.a_cs = 1;
  g.b = b.data();
  g.b_rs = n;
  g.b_cs = 1;
  g.c = c.data();
  g.ldc = n;
  g.pool = tensor::detail::partition_pool(ThreadPool::global(), m, n, k);
  tensor::detail::gemm_u64_auto(g);
  return c;
}

MatrixU64 ring_scale_share(const MatrixU64& share, double c, int party) {
  const std::uint64_t enc = encode_fixed(c);
  MatrixU64 scaled(share.rows(), share.cols());
  for (std::size_t i = 0; i < share.size(); ++i) {
    scaled.data()[i] = share.data()[i] * enc;
  }
  return truncate_share(scaled, party);
}

MatrixU64 truncate_share(const MatrixU64& share, int party) {
  PSML_REQUIRE(party == 0 || party == 1, "truncate_share: party must be 0/1");
  MatrixU64 out(share.rows(), share.cols());
  for (std::size_t i = 0; i < share.size(); ++i) {
    const std::uint64_t v = share.data()[i];
    if (party == 0) {
      out.data()[i] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(v) >> kFracBits);
    } else {
      // Party 1 truncates the negation so that t0 + t1 ~ trunc(v0 + v1).
      out.data()[i] = static_cast<std::uint64_t>(
          -(static_cast<std::int64_t>(-v) >> kFracBits));
    }
  }
  return out;
}

}  // namespace psml::mpc
