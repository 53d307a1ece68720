// Compressed transmission for inter-node communication (paper Sec. 4.4).
//
// Across training epochs the reconstruct-phase matrices evolve as
//   E_{j+1} = E_j + dA_j,   F_{j+1} = F_j + dB_j        (Eqs. 11-12)
// and the deltas dA/dB (gradient steps) are usually sparse. Each logical
// tensor stream — identified by a caller-chosen 64-bit key such as
// (layer, direction, operand) — keeps the previously transmitted matrix as a
// baseline on both sides. A send computes delta = current - baseline; if the
// delta is at least `sparsity_threshold` zeros (default 75 %, the paper's
// setting) it goes out CSR-encoded, otherwise the dense matrix goes out and
// both sides reset their baseline.
//
// Wire format: 1 subkind byte (kDense | kCsrDelta) + the net:: payload.
// A coalesced pair frame (send_pair/recv_pair — the E and F halves of a
// reconstruct step in ONE message per direction) is
//   1 byte kPair | u32 len_a (little-endian) | body_a | body_b
// where each body is exactly the single-stream encoding above, so baselines
// and compression decisions per logical stream are identical whether a
// matrix travelled alone or paired.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/sync_annot.hpp"
#include "net/channel.hpp"
#include "net/serialize.hpp"
#include "tensor/matrix.hpp"

namespace psml::compress {

struct Config {
  bool enabled = true;
  // Minimum fraction of zero entries in the delta for CSR to be used.
  double sparsity_threshold = 0.75;
};

struct Stats {
  std::uint64_t messages = 0;
  std::uint64_t compressed_messages = 0;
  std::uint64_t dense_bytes = 0;  // bytes a dense-only scheme would have sent
  std::uint64_t sent_bytes = 0;   // bytes actually sent

  double savings() const {
    return dense_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(sent_bytes) / dense_bytes;
  }
};

// One endpoint of a compressed tensor stream. A protocol party owns one
// Endpoint per channel; it serves both directions (send and recv keep
// independent baseline maps).
class Endpoint {
 public:
  explicit Endpoint(net::Channel& channel, Config cfg = Config());

  // Sends `m` on `tag` for logical stream `key`.
  void send(net::Tag tag, std::uint64_t key, const MatrixF& m) PSML_BLOCKING;

  // Receives the matrix for logical stream `key`. Throws ProtocolError if a
  // delta arrives for an unknown baseline or shapes drift.
  MatrixF recv(net::Tag tag, std::uint64_t key) PSML_BLOCKING;

  // Coalesced pair: both matrices go out in ONE channel message (halving
  // the per-step frame count of the E/F reconstruct exchange). Each half
  // keeps its own stream key, so delta baselines behave exactly as two
  // single sends would.
  void send_pair(net::Tag tag, std::uint64_t key_a, const MatrixF& a,
                 std::uint64_t key_b, const MatrixF& b) PSML_BLOCKING;
  std::pair<MatrixF, MatrixF> recv_pair(net::Tag tag, std::uint64_t key_a,
                                        std::uint64_t key_b) PSML_BLOCKING;

  // Returns a snapshot: stats_ is written under send_mutex_ by the planners,
  // so readers take the lock too instead of racing a half-updated struct.
  Stats stats() const {
    sync::MutexLock lock(send_mutex_);
    return stats_;
  }
  void reset_stats() {
    sync::MutexLock lock(send_mutex_);
    stats_ = Stats{};
  }

  // Drops all baselines (e.g. between training runs).
  void reset_baselines();

 private:
  // Appends one stream body ([subkind][payload]) to `out` and advances the
  // stream's baseline; returns the bytes appended.
  std::size_t plan_body(std::uint64_t key, const MatrixF& m,
                        net::WireBuf& out) PSML_REQUIRES(send_mutex_);
  // Decodes one stream body and advances the recv baseline.
  MatrixF decode_body(std::uint64_t key, const std::uint8_t* data,
                      std::size_t size) PSML_REQUIRES(recv_mutex_);

  net::Channel& channel_;
  Config cfg_;
  // The double pipeline sends/receives from two threads (main + comm lane);
  // each direction keeps its own lock so full-duplex traffic does not
  // serialize. send_mutex_ is held across the blocking channel send — that
  // is its purpose (plan + transmit must be atomic per stream so baselines
  // advance in wire order), hence the PSML_BLOCKING lock marker.
  mutable sync::Mutex send_mutex_ PSML_BLOCKING;
  sync::Mutex recv_mutex_;
  Stats stats_ PSML_GUARDED_BY(send_mutex_);
  // Per-key send baselines. Each advances by same-shape copy-assign, which
  // reuses its allocation.
  std::unordered_map<std::uint64_t, MatrixF> send_baseline_
      PSML_GUARDED_BY(send_mutex_);
  // Delta scratch, one per distinct (rows, cols) rather than per key: a
  // training run has far fewer shapes than streams. Keying by shape means
  // streams of different shapes (E and F alternating) never resize it, so
  // the steady state does no per-send allocation or zero-fill here.
  std::map<std::pair<std::size_t, std::size_t>, MatrixF> delta_scratch_
      PSML_GUARDED_BY(send_mutex_);
  std::unordered_map<std::uint64_t, MatrixF> recv_baseline_
      PSML_GUARDED_BY(recv_mutex_);
};

// Stream-key helper: pack (layer, phase, operand) into the 64-bit key space.
constexpr std::uint64_t stream_key(std::uint32_t layer, std::uint32_t phase,
                                   std::uint32_t operand) {
  return (static_cast<std::uint64_t>(layer) << 32) |
         (static_cast<std::uint64_t>(phase & 0xffffu) << 16) |
         (operand & 0xffffu);
}

}  // namespace psml::compress
