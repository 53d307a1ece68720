// Server-side party context for the online phase.
//
// A PartyContext bundles everything one of the two computation servers needs
// to run secure operations: its party id, the channel to the peer server
// (optionally wrapped in compressed transmission), its offline triplet
// store, the simulated GPU device with a pair of streams for the
// transfer/compute pipeline, and the execution-mode toggles that define the
// evaluation matrix (SecureML baseline vs ParSecureML, each optimization
// individually switchable).
#pragma once

#include <cstdint>
#include <memory>

#include "common/sync_annot.hpp"
#include "compress/compressed_channel.hpp"
#include "mpc/triplet.hpp"
#include "net/channel.hpp"
#include "sgpu/device.hpp"

namespace psml::pipeline {
class DepEngine;
}

namespace psml::mpc {

// Execution-mode toggles. Defaults are full ParSecureML; SecureML baseline
// is `secureml_baseline()`.
struct PartyOptions {
  bool use_gpu = true;          // online Eq. 8 on the device
  bool use_pipeline = true;     // overlap H2D transfers with kernels (Fig. 5)
  bool use_compression = true;  // delta-CSR E/F exchange (Sec. 4.4)
  double compression_threshold = 0.75;  // min zero fraction for CSR deltas
  bool fuse_eq8 = true;         // Eq. 8 fused form vs Eq. 6 three-product form
  bool cpu_parallel = true;     // parallel CPU add/sub + rng (Sec. 5.1)
  bool adaptive = true;         // profiling-guided CPU/GPU dispatch (Sec. 4.2)
  // Share-refresh mask stream. 0 (production) draws fresh entropy per
  // refresh. Nonzero derives each mask deterministically from
  // (mask_seed, op sequence number) — the op counter is checkpointed and
  // resynced on recovery, so a restarted run re-derives the same masks and
  // replays to bit-identical shares (the crash-recovery tests depend on
  // this). Secrecy is unchanged either way: the peer never learns the seed,
  // and the mask still never leaves the generating party unmasked.
  std::uint64_t mask_seed = 0;

  static PartyOptions secureml_baseline() {
    PartyOptions o;
    o.use_gpu = false;
    o.use_pipeline = false;
    o.use_compression = false;
    o.fuse_eq8 = false;
    o.cpu_parallel = false;
    o.adaptive = false;
    return o;
  }

  static PartyOptions parsecureml() { return PartyOptions{}; }
};

class PartyContext {
 public:
  // `device` may be null when opts.use_gpu is false.
  PartyContext(int party_id, std::shared_ptr<net::Channel> peer,
               sgpu::Device* device, PartyOptions opts);
  ~PartyContext();

  int id() const { return party_id_; }
  const PartyOptions& options() const { return opts_; }
  PartyOptions& options() { return opts_; }

  net::Channel& peer() { return *peer_; }
  compress::Endpoint& compressed() { return *compressed_; }

  sgpu::Device& device() {
    PSML_CHECK_MSG(device_ != nullptr, "party has no device");
    return *device_;
  }
  bool has_device() const { return device_ != nullptr; }
  sgpu::Stream& copy_stream() { return *copy_stream_; }
  sgpu::Stream& compute_stream() { return *compute_stream_; }

  TripletStore& triplets() { return triplets_; }
  void set_triplets(TripletStore store) { triplets_ = std::move(store); }

  // This party's dependency engine (pipeline/dep_engine.hpp), created on
  // first use. The online phase pushes its op graphs here — device
  // transfers/kernels onto the party's streams, staged opens onto the
  // engine's comm lane — and barriers with wait_all()/drain() at step
  // boundaries. One engine per party; its comm_var() chain is what keeps
  // the two servers' message sequences aligned (see docs/ANALYSIS.md §12).
  pipeline::DepEngine& engine();

  // Per-op monotonically increasing sequence; both servers run the same op
  // sequence (SPMD), so their counters agree and form matching tags/keys.
  std::uint32_t next_seq() { return seq_++; }

  // Fault-recovery support: after an aborted step the two servers'
  // counters can diverge (one consumed more ops before failing). peek_seq
  // exposes the current value and resync_seq jumps the counter forward to
  // the exchanged maximum, so a retried step draws fresh tags that cannot
  // collide with any in-flight stale message (every stale tag is below the
  // maximum). Never moves the counter backwards.
  std::uint32_t peek_seq() const { return seq_; }
  void resync_seq(std::uint32_t seq) { seq_ = std::max(seq_, seq); }

  // Compression stream salt, set by the training loop to the batch index so
  // each (layer, operand, batch-slot) keeps its own delta baseline across
  // epochs. Both servers set it identically.
  void set_stream_salt(std::uint64_t salt) { stream_salt_ = salt; }
  std::uint64_t stream_salt() const { return stream_salt_; }

 private:
  int party_id_;
  std::shared_ptr<net::Channel> peer_;
  std::unique_ptr<compress::Endpoint> compressed_;
  sgpu::Device* device_;
  std::shared_ptr<sgpu::Stream> copy_stream_;
  std::shared_ptr<sgpu::Stream> compute_stream_;
  TripletStore triplets_;
  sync::Mutex engine_mutex_;
  std::unique_ptr<pipeline::DepEngine> engine_ PSML_GUARDED_BY(engine_mutex_);
  PartyOptions opts_;
  std::uint32_t seq_ = 0;
  std::uint64_t stream_salt_ = 0;
};

// Tag bases for the protocol message families.
namespace tags {
inline constexpr net::Tag kExchangeE = 0x01000000;  // + seq
inline constexpr net::Tag kExchangeF = 0x02000000;  // + seq
inline constexpr net::Tag kOpenMasked = 0x03000000; // + seq (activation)
inline constexpr net::Tag kClientData = 0x04000000; // client -> server
inline constexpr net::Tag kResult = 0x05000000;     // server -> client
inline constexpr net::Tag kControl = 0x06000000;
}  // namespace tags

}  // namespace psml::mpc
