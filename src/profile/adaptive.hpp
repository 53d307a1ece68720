// Profiling-guided adaptive GPU utilization (paper Sec. 4.2).
//
// The dispatcher answers one question per GEMM: run it on the CPU or ship it
// to the (simulated) GPU? Both sides run the same packed f32 engine and
// return bit-identical results, so the choice changes only where (and how
// fast) a product is computed, never its value. The dispatcher calibrates
// both sides with a short profiling run — small/medium probe multiplies on
// each — and fits simple cost models:
//   t_cpu(flops) = a_cpu * flops
//   t_gpu(flops, bytes) = overhead + a_gpu * flops + bytes / pcie_bw
// The GPU model carries a fixed launch/transfer overhead term, which is what
// produces the paper's small-workload-on-CPU / large-workload-on-GPU
// crossover (Fig. 17, Sec. 7.7 "Limitation").
//
// Thread safety: decide() may run concurrently with calibrate()/set_model()
// (the online phase dispatches from worker threads while tests or the
// framework refit the model). The model is published as a snapshot under a
// mutex — readers copy it, writers install a fully-built replacement, so no
// torn model is ever observed.
//
// Kernel staleness: the CPU slope is only meaningful for the kernel it was
// measured against. calibrate()/set_model() stamp the current
// tensor::gemm_kernel_revision(); if the kernel selection changes afterwards
// (tensor::set_gemm_isa), decide() treats the model as stale and falls back
// to the static threshold until recalibrate() is run.
#pragma once

#include <cstddef>
#include <mutex>

#include "common/sync_annot.hpp"
#include "sgpu/device.hpp"

namespace psml::profile {

struct DispatchDecision {
  bool use_gpu = false;
  double est_cpu_sec = 0.0;
  double est_gpu_sec = 0.0;
};

class AdaptiveDispatch {
 public:
  struct Model {
    double cpu_sec_per_flop = 0.0;
    double gpu_sec_per_flop = 0.0;
    double gpu_overhead_sec = 0.0;       // launch + sync latency
    double gpu_sec_per_byte = 0.0;       // effective PCIe cost
    bool calibrated = false;
    // tensor::gemm_kernel_revision() at fit time; a mismatch at decide()
    // time means the CPU kernel changed under us and the fit is stale.
    std::size_t kernel_revision = 0;
  };

  AdaptiveDispatch() = default;

  // Runs probe GEMMs on both engines and fits the model. Takes tens of
  // milliseconds at the default probe sizes; call once per process (the
  // framework does this lazily). Probe sizes are parameters so tests can
  // hammer calibrate() cheaply. Safe to call concurrently with decide();
  // concurrent calibrations race benignly (last fit wins).
  void calibrate(sgpu::Device& dev, std::size_t small_n = 96,
                 std::size_t large_n = 384);

  // Refit hook for kernel-selection changes (tensor::set_gemm_isa): identical
  // to calibrate(), named for the call sites that re-run it so CPU/GPU
  // crossover decisions stay honest against the newly selected kernel.
  void recalibrate(sgpu::Device& dev) { calibrate(dev); }

  // Decision for C(m,n) = A(m,k) x B(k,n), counting the H2D/D2H bytes the
  // GPU path would move. Uses the static flop threshold when the model is
  // uncalibrated or stale (fit against a different kernel revision).
  DispatchDecision decide(std::size_t m, std::size_t n, std::size_t k) const;

  // Snapshot of the current model (by value: the model can be republished
  // concurrently).
  Model model() const;
  // Installs a caller-built model, stamped with the current kernel revision.
  void set_model(const Model& m);

  // Lazily calibrated process-wide dispatcher on the global device.
  static AdaptiveDispatch& global();

 private:
  mutable sync::Mutex mutex_;
  Model model_ PSML_GUARDED_BY(mutex_);
};

}  // namespace psml::profile
