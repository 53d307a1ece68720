// Fig. 5 mechanism bench: the transfer/compute pipeline inside Eq. 8.
// The overlap only matters when transfers are slow relative to compute, so
// this sweeps the simulated PCIe bandwidth: at V100-era bandwidths (~12
// GB/s) with big matrices the pipeline hides most of the H2D cost; with
// unthrottled memcpy (this machine's default) it is nearly free but also
// nearly unnecessary — which is exactly why Fig. 5 exists for real PCIe.
//
// Three schedules per bandwidth:
//   serial — use_pipeline=false: one stream, uploads and compute in line
//   hand   — the retired event-chained double-pipeline schedule (kept here,
//            verbatim, as the baseline the dependency engine must match)
//   engine — use_pipeline=true: the DepEngine op graph inside secure_matmul
//
//   bench_fig5_pipeline --emit-pipeline-baseline[=PATH] [--smoke]
// writes schema psml-pipeline-baseline-v1 with a gate object recording the
// minimum engine-vs-hand speedup over the throttled rows: the graph-derived
// schedule must not lose to the hand-rolled one it replaced.
#include <cstring>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "mpc/secure_matmul.hpp"
#include "mpc/share.hpp"
#include "net/local_channel.hpp"
#include "rng/rng.hpp"
#include "sgpu/ops.hpp"

using namespace psml;
using namespace psml::bench;

namespace {

// The pre-engine schedule of compute_ci_gpu, preserved as the comparison
// baseline: explicit per-upload events with the compute stream waiting on
// each right before the kernel that consumes it.
MatrixF hand_compute_ci_gpu(mpc::PartyContext& ctx, const MatrixF& e,
                            const MatrixF& f, const MatrixF& a_i,
                            const MatrixF& b_i, const MatrixF& z_i) {
  auto& dev = ctx.device();
  const float neg_i = -static_cast<float>(ctx.id());

  sgpu::Stream& copy = ctx.copy_stream();
  sgpu::Stream& comp = ctx.compute_stream();

  sgpu::DeviceMatrix de(dev, e.rows(), e.cols());
  sgpu::DeviceMatrix da(dev, a_i.rows(), a_i.cols());
  sgpu::DeviceMatrix df(dev, f.rows(), f.cols());
  sgpu::DeviceMatrix db(dev, b_i.rows(), b_i.cols());
  sgpu::DeviceMatrix dz(dev, z_i.rows(), z_i.cols());
  sgpu::DeviceMatrix dd(dev, e.rows(), e.cols());
  sgpu::DeviceMatrix dc(dev, a_i.rows(), b_i.cols());

  sgpu::upload_async(dev, copy, de, e);
  sgpu::upload_async(dev, copy, da, a_i);
  const sgpu::Event e_ea = copy.record_event();
  sgpu::upload_async(dev, copy, df, f);
  const sgpu::Event e_f = copy.record_event();
  sgpu::upload_async(dev, copy, db, b_i);
  const sgpu::Event e_b = copy.record_event();
  sgpu::upload_async(dev, copy, dz, z_i);
  const sgpu::Event e_z = copy.record_event();

  comp.wait_event(e_ea);
  sgpu::axpby_async(dev, comp, neg_i, de, da, dd);  // D = (-i) E + A_i
  comp.wait_event(e_f);
  sgpu::gemm_async(dev, comp, dd, df, dc, 1.0f, 0.0f);  // C = D x F
  comp.wait_event(e_b);
  sgpu::gemm_async(dev, comp, de, db, dc, 1.0f, 1.0f);  // C += E x B_i
  comp.wait_event(e_z);
  sgpu::add_inplace_async(dev, comp, dz, dc);  // C += Z_i

  MatrixF c(a_i.rows(), b_i.cols());
  sgpu::download_async(dev, comp, c, dc);
  comp.synchronize();
  return c;
}

enum class Mode { kSerial, kHand, kEngine };

mpc::PartyOptions mode_opts(Mode mode) {
  mpc::PartyOptions opts = mpc::PartyOptions::parsecureml();
  opts.adaptive = false;  // always on the device
  opts.use_pipeline = mode != Mode::kSerial;
  opts.use_compression = false;
  return opts;
}

struct Row {
  double pcie_gbps = 0.0;  // 0 = unthrottled memcpy
  std::string label;
  std::size_t n = 0;
  int reps = 0;
  double serial_s = 0.0;
  double hand_s = 0.0;
  double engine_s = 0.0;

  double overlap_eff_hand() const { return (serial_s - hand_s) / serial_s; }
  double overlap_eff_engine() const {
    return (serial_s - engine_s) / serial_s;
  }
  double speedup_engine_vs_hand() const { return hand_s / engine_s; }
};

// One mode's persistent state: triplets, shares, channels, contexts. Kept
// alive across reps so a rep measures the matmul, not the setup.
struct ModeRunner {
  Mode mode;
  mpc::TripletShare t0, t1;
  mpc::SharePair<float> sa, sb;
  net::ChannelPair chans;
  mpc::PartyContext ctx0, ctx1;

  ModeRunner(sgpu::Device& dev, Mode m, std::size_t n,
             mpc::TripletDealer& dealer, const MatrixF& a, const MatrixF& b)
      : mode(m),
        sa(mpc::share_float(a, 3)),
        sb(mpc::share_float(b, 4)),
        chans(net::LocalChannel::make_pair()),
        ctx0(0, chans.a, &dev, mode_opts(m)),
        ctx1(1, chans.b, &dev, mode_opts(m)) {
    std::tie(t0, t1) = dealer.make_matmul(n, n, n);
  }

  MatrixF party(mpc::PartyContext& ctx, const MatrixF& a_i, const MatrixF& b_i,
                const mpc::TripletShare& t) {
    if (mode == Mode::kHand) {
      const auto ef = mpc::reconstruct_ef(ctx, a_i, b_i, t, 0);
      return hand_compute_ci_gpu(ctx, ef.e, ef.f, a_i, b_i, t.z);
    }
    return mpc::secure_matmul(ctx, a_i, b_i, t);
  }

  double run_once() {
    Timer t;
    MatrixF c1;
    std::thread peer([&] { c1 = party(ctx1, sa.s1, sb.s1, t1); });
    MatrixF c0 = party(ctx0, sa.s0, sb.s0, t0);
    peer.join();
    return t.seconds();
  }
};

// Reps are interleaved across the three schedules (serial, hand, engine in
// the same rep, best-of per schedule) so slow machine-state drift — CPU
// frequency, page cache, background load — cancels out of the ratios
// instead of landing on whichever mode ran last.
void run_row(sgpu::Device& dev, std::size_t n, int reps, Row& r) {
  mpc::TripletDealer dealer(&dev, {true, false, 3141});
  MatrixF a(n, n), b(n, n);
  rng::fill_uniform_par(a, -1.0f, 1.0f, 1);
  rng::fill_uniform_par(b, -1.0f, 1.0f, 2);

  ModeRunner serial(dev, Mode::kSerial, n, dealer, a, b);
  ModeRunner hand(dev, Mode::kHand, n, dealer, a, b);
  ModeRunner engine(dev, Mode::kEngine, n, dealer, a, b);

  r.serial_s = r.hand_s = r.engine_s = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    r.serial_s = std::min(r.serial_s, serial.run_once());
    r.hand_s = std::min(r.hand_s, hand.run_once());
    r.engine_s = std::min(r.engine_s, engine.run_once());
  }
}

int emit_pipeline_baseline(const std::string& path, bool smoke,
                           const std::vector<Row>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"psml-pipeline-baseline-v1\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"rows\": [\n");
  double min_speedup = 1e100;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (r.pcie_gbps > 0.0) {
      min_speedup = std::min(min_speedup, r.speedup_engine_vs_hand());
    }
    std::fprintf(
        out,
        "    {\"pcie_gbps\": %.1f, \"label\": \"%s\", \"n\": %zu, "
        "\"reps\": %d,\n"
        "     \"serial_s\": %.6f, \"hand_s\": %.6f, \"engine_s\": %.6f,\n"
        "     \"overlap_eff_hand\": %.4f, \"overlap_eff_engine\": %.4f,\n"
        "     \"speedup_engine_vs_hand\": %.4f}%s\n",
        r.pcie_gbps, r.label.c_str(), r.n, r.reps, r.serial_s, r.hand_s,
        r.engine_s, r.overlap_eff_hand(), r.overlap_eff_engine(),
        r.speedup_engine_vs_hand(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // Gate: over the PCIe-throttled rows (the regime the pipeline exists for)
  // the engine schedule must stay within noise of the hand schedule it
  // replaced. The memcpy row is excluded — unthrottled, both schedules
  // measure scheduling jitter, not overlap.
  std::fprintf(out, "  \"gate\": {\n");
  std::fprintf(out, "    \"metric\": \"speedup_engine_vs_hand\",\n");
  std::fprintf(out, "    \"scope\": \"rows with pcie_gbps > 0\",\n");
  std::fprintf(out, "    \"min\": 0.95,\n");
  std::fprintf(out, "    \"observed_min\": %.4f,\n", min_speedup);
  std::fprintf(out, "    \"pass\": %s\n", min_speedup >= 0.95 ? "true" : "false");
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return min_speedup >= 0.95 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool emit = false, smoke = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--emit-pipeline-baseline") == 0) {
      emit = true;
      baseline_path = "BENCH_pipeline.json";
    } else if (std::strncmp(arg, "--emit-pipeline-baseline=", 25) == 0) {
      emit = true;
      baseline_path = arg + 25;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_fig5_pipeline "
                   "[--emit-pipeline-baseline[=PATH]] [--smoke]\n");
      return 2;
    }
  }

  header("Fig. 5", "transfer/compute pipeline benefit vs PCIe bandwidth");
  std::printf("%-12s %-6s %12s %12s %12s %9s %9s %8s\n", "pcie(GB/s)", "n",
              "serial(s)", "hand(s)", "engine(s)", "eff-hand", "eff-eng",
              "eng/hand");

  // Best-of-reps; the full run uses enough reps to beat scheduler noise on
  // small core counts (the three schedules differ by a few percent at most).
  const std::size_t n = smoke ? scaled(256) : scaled(512);
  const int reps = smoke ? 2 : 31;
  std::vector<Row> rows;
  for (const double gbps : {1.0, 4.0, 12.0, 0.0 /* unthrottled */}) {
    sgpu::Device::Config cfg;
    cfg.compute_threads = 0;
    cfg.pcie_gbps = gbps;
    cfg.memory_bytes = std::size_t{2} << 30;
    sgpu::Device dev(cfg);
    Row r;
    r.pcie_gbps = gbps;
    r.label = gbps == 0.0 ? "memcpy" : std::to_string(int(gbps));
    r.n = n;
    r.reps = reps;
    run_row(dev, n, reps, r);
    std::printf("%-12s %-6zu %12.4f %12.4f %12.4f %8.1f%% %8.1f%% %7.2fx\n",
                r.label.c_str(), r.n, r.serial_s, r.hand_s, r.engine_s,
                r.overlap_eff_hand() * 100.0, r.overlap_eff_engine() * 100.0,
                r.speedup_engine_vs_hand());
    rows.push_back(std::move(r));
  }
  std::printf("\npaper shape: the slower the interconnect relative to "
              "compute, the more the Fig. 5 overlap saves (at high "
              "bandwidth the benefit shrinks toward scheduling noise). The "
              "engine column derives the same overlap from the op graph "
              "that the hand column spells out with events.\n");
  if (emit) return emit_pipeline_baseline(baseline_path, smoke, rows);
  return 0;
}
