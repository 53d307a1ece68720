// Secure elementwise (Hadamard) multiplication via Beaver triplets.
//
// Same protocol as secure_matmul with the products replaced by elementwise
// ones: E and F come from the same reconstruct_ef, and only the combine
// C_i = (-i) E.*F + X_i.*F + E.*Y_i + Z_i is its own. Used by the CNN
// point-to-point multiplications (Sec. 7.2) and by the masked comparison in
// the activation protocol.
#pragma once

#include <cstdint>

#include "mpc/party.hpp"
#include "tensor/matrix.hpp"

namespace psml::mpc {

MatrixF secure_mul(PartyContext& ctx, const MatrixF& x_i, const MatrixF& y_i,
                   const TripletShare& triplet, std::uint64_t comm_key = 0);

// Pops the next elementwise triplet from the party's offline store.
MatrixF secure_mul(PartyContext& ctx, const MatrixF& x_i, const MatrixF& y_i,
                   std::uint64_t comm_key = 0);

}  // namespace psml::mpc
