#include "net/serialize.hpp"

#include <cstring>

#include "net/buffer_pool.hpp"

namespace psml::net {

namespace {

struct MatrixHeader {
  std::uint8_t kind;
  std::uint8_t pad[3] = {0, 0, 0};
  std::uint32_t rows;
  std::uint32_t cols;
};
static_assert(sizeof(MatrixHeader) == 12);

template <typename T>
std::vector<std::uint8_t> encode_dense(const Matrix<T>& m, PayloadKind kind) {
  std::vector<std::uint8_t> buf(sizeof(MatrixHeader) + m.bytes());
  const MatrixHeader h{static_cast<std::uint8_t>(kind),
                       {0, 0, 0},
                       static_cast<std::uint32_t>(m.rows()),
                       static_cast<std::uint32_t>(m.cols())};
  std::memcpy(buf.data(), &h, sizeof(h));
  std::memcpy(buf.data() + sizeof(h), m.data(), m.bytes());
  return buf;
}

MatrixHeader read_header(const std::uint8_t* data, std::size_t size) {
  if (size < sizeof(MatrixHeader)) {
    throw ProtocolError("matrix decode: buffer shorter than header");
  }
  MatrixHeader h;
  std::memcpy(&h, data, sizeof(h));
  return h;
}

// Checks a dense body against the header's rows x cols before anything is
// allocated, so a forged header cannot size an allocation. Overflow-safe:
// rows x cols of two u32 fields fits in u64, and the body is divided by the
// element size rather than the count multiplied by it.
template <typename T>
void check_dense_body(const MatrixHeader& h, std::size_t body_size,
                      const char* what) {
  const std::uint64_t elems = std::uint64_t{h.rows} * h.cols;
  if (body_size % sizeof(T) != 0 || body_size / sizeof(T) != elems) {
    throw ProtocolError(what);
  }
}

}  // namespace

namespace {

template <typename T>
void encode_dense_into(const Matrix<T>& m, PayloadKind kind, WireBuf& out) {
  const MatrixHeader h{static_cast<std::uint8_t>(kind),
                       {0, 0, 0},
                       static_cast<std::uint32_t>(m.rows()),
                       static_cast<std::uint32_t>(m.cols())};
  out.append_copy(&h, sizeof(h));
  out.append_view(m.data(), m.bytes());
}

}  // namespace

void encode_matrix_into(const MatrixF& m, WireBuf& out) {
  encode_dense_into(m, PayloadKind::kDenseF32, out);
}

void encode_matrix_into(const MatrixU64& m, WireBuf& out) {
  encode_dense_into(m, PayloadKind::kDenseU64, out);
}

std::vector<std::uint8_t> encode_matrix(const MatrixF& m) {
  return encode_dense(m, PayloadKind::kDenseF32);
}

std::vector<std::uint8_t> encode_matrix(const MatrixU64& m) {
  return encode_dense(m, PayloadKind::kDenseU64);
}

std::size_t encoded_matrix_bytes(const MatrixF& m) {
  return sizeof(MatrixHeader) + m.bytes();
}

std::size_t encoded_matrix_bytes(const MatrixU64& m) {
  return sizeof(MatrixHeader) + m.bytes();
}

std::size_t encoded_csr_bytes(const psml::sparse::Csr& m) {
  return sizeof(MatrixHeader) + m.wire_bytes();
}

std::vector<std::uint8_t> encode_csr(const psml::sparse::Csr& m) {
  auto body = m.serialize();
  std::vector<std::uint8_t> buf(sizeof(MatrixHeader) + body.size());
  const MatrixHeader h{static_cast<std::uint8_t>(PayloadKind::kCsrF32),
                       {0, 0, 0},
                       static_cast<std::uint32_t>(m.rows()),
                       static_cast<std::uint32_t>(m.cols())};
  std::memcpy(buf.data(), &h, sizeof(h));
  std::memcpy(buf.data() + sizeof(h), body.data(), body.size());
  return buf;
}

PayloadKind peek_kind(const std::uint8_t* data, std::size_t size) {
  return static_cast<PayloadKind>(read_header(data, size).kind);
}

MatrixF decode_matrix_f32(const std::uint8_t* data, std::size_t size) {
  const MatrixHeader h = read_header(data, size);
  if (static_cast<PayloadKind>(h.kind) != PayloadKind::kDenseF32) {
    throw ProtocolError("matrix decode: expected dense f32 payload");
  }
  check_dense_body<float>(h, size - sizeof(MatrixHeader),
                          "matrix decode: dense payload size mismatch");
  MatrixF m(h.rows, h.cols);
  std::memcpy(m.data(), data + sizeof(MatrixHeader), m.bytes());
  return m;
}

psml::sparse::Csr decode_csr(const std::uint8_t* data, std::size_t size) {
  const MatrixHeader h = read_header(data, size);
  if (static_cast<PayloadKind>(h.kind) != PayloadKind::kCsrF32) {
    throw ProtocolError("matrix decode: expected CSR payload");
  }
  auto csr = psml::sparse::Csr::deserialize(data + sizeof(MatrixHeader),
                                            size - sizeof(MatrixHeader));
  if (csr.rows() != h.rows || csr.cols() != h.cols) {
    throw ProtocolError("matrix decode: CSR header/dims mismatch");
  }
  return csr;
}

MatrixU64 decode_matrix_u64(const std::uint8_t* data, std::size_t size) {
  const MatrixHeader h = read_header(data, size);
  if (static_cast<PayloadKind>(h.kind) != PayloadKind::kDenseU64) {
    throw ProtocolError("matrix decode: expected u64 payload");
  }
  check_dense_body<std::uint64_t>(h, size - sizeof(MatrixHeader),
                                  "matrix decode: u64 payload size mismatch");
  MatrixU64 m(h.rows, h.cols);
  std::memcpy(m.data(), data + sizeof(MatrixHeader), m.bytes());
  return m;
}

void send_matrix(Channel& ch, Tag tag, const MatrixF& m) {
  WireBuf buf;
  encode_matrix_into(m, buf);
  ch.send(tag, std::move(buf));
}

void send_matrix(Channel& ch, Tag tag, const MatrixU64& m) {
  WireBuf buf;
  encode_matrix_into(m, buf);
  ch.send(tag, std::move(buf));
}

MatrixF recv_matrix_f32(Channel& ch, Tag tag) {
  Message m = ch.recv(tag);
  MatrixF out = decode_matrix_f32(m.payload.data(), m.payload.size());
  BufferPool::global().release(std::move(m.payload));
  return out;
}

MatrixU64 recv_matrix_u64(Channel& ch, Tag tag) {
  Message m = ch.recv(tag);
  MatrixU64 out = decode_matrix_u64(m.payload.data(), m.payload.size());
  BufferPool::global().release(std::move(m.payload));
  return out;
}

}  // namespace psml::net
