// Matrix (de)serialization over channels.
//
// Wire format of a dense matrix message:
//   u8 kind (0 = dense f32, 1 = csr f32, 2 = dense u64) | u32 rows | u32 cols
//   | data
// The kind byte is what lets the compressed-transmission layer switch
// between dense and CSR payloads per message without a side channel.
#pragma once

#include <cstdint>

#include "net/channel.hpp"
#include "sparse/csr.hpp"
#include "tensor/matrix.hpp"

namespace psml::net {

enum class PayloadKind : std::uint8_t {
  kDenseF32 = 0,
  kCsrF32 = 1,
  kDenseU64 = 2,
};

std::vector<std::uint8_t> encode_matrix(const MatrixF& m);
std::vector<std::uint8_t> encode_matrix(const MatrixU64& m);
std::vector<std::uint8_t> encode_csr(const psml::sparse::Csr& m);

// View-based encoders: append the wire encoding onto a WireBuf without
// materializing a byte vector — the 12-byte header is copied, the matrix
// storage rides as a borrowed view (valid through the synchronous send; a
// backend that must retain it consolidates via WireBuf::make_owned). This is
// what makes a large-matrix send zero-copy end to end.
void encode_matrix_into(const MatrixF& m, WireBuf& out);
void encode_matrix_into(const MatrixU64& m, WireBuf& out);

// Exact encode_matrix / encode_csr output sizes without materializing the
// buffer, derived from the same wire-header struct the encoders use. The
// compression layer's dense-vs-CSR accounting uses these so its ratios can't
// drift if the header layout changes.
std::size_t encoded_matrix_bytes(const MatrixF& m);
std::size_t encoded_matrix_bytes(const MatrixU64& m);
std::size_t encoded_csr_bytes(const psml::sparse::Csr& m);

// Dense decoders: rows x cols is checked against the body size before the
// matrix is allocated. A CSR payload is not accepted here, because its
// header's dims do not bound its size; decode it with decode_csr.
MatrixF decode_matrix_f32(const std::uint8_t* data, std::size_t size);
MatrixU64 decode_matrix_u64(const std::uint8_t* data, std::size_t size);
// Decodes a CSR payload. Its storage is sized by the payload bytes, never by
// rows x cols, so the caller checks the dims before it densifies anything.
psml::sparse::Csr decode_csr(const std::uint8_t* data, std::size_t size);
// Returns the payload kind without decoding.
PayloadKind peek_kind(const std::uint8_t* data, std::size_t size);

// Channel helpers.
void send_matrix(Channel& ch, Tag tag, const MatrixF& m);
void send_matrix(Channel& ch, Tag tag, const MatrixU64& m);
MatrixF recv_matrix_f32(Channel& ch, Tag tag);
MatrixU64 recv_matrix_u64(Channel& ch, Tag tag);

}  // namespace psml::net
