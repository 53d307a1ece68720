#include "traced_job.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/taint.hpp"
#include "common/timer.hpp"
#include "data/datasets.hpp"
#include "ml/models.hpp"
#include "mpc/share.hpp"
#include "mpc/triplet_factory.hpp"
#include "net/local_channel.hpp"
#include "net/serialize.hpp"
#include "parsecureml/store_transfer.hpp"
#include "pipeline/dep_engine.hpp"
#include "profile/adaptive.hpp"
#include "profile/profiler.hpp"
#include "sgpu/device.hpp"
#include "tensor/gemm.hpp"

namespace psml::perfbench {

namespace {

using parsecureml::Mode;
using parsecureml::RunConfig;

// Server-to-server channel that counts and times every call into the
// wrapped transport. Traffic counters live in the Channel base class, so
// stats() reads exactly what the plain LocalChannel would have counted.
class TimedChannel final : public net::Channel {
 public:
  explicit TimedChannel(std::shared_ptr<net::Channel> inner)
      : inner_(std::move(inner)) {}

  void close() override { inner_->close(); }
  bool send_may_block() const override { return inner_->send_may_block(); }

  double send_s() const { return send_ns_.load() * 1e-9; }
  double recv_wait_s() const { return recv_ns_.load() * 1e-9; }

 protected:
  void send_impl(net::Tag tag, net::WireBuf&& payload) override {
    Timer t;
    inner_->send(tag, std::move(payload));
    send_ns_ += t.nanos();
  }
  net::Message recv_impl(net::Deadline deadline) override {
    Timer t;
    net::Message m = inner_->recv_any(deadline);
    recv_ns_ += t.nanos();
    return m;
  }

 private:
  std::shared_ptr<net::Channel> inner_;
  std::atomic<std::int64_t> send_ns_{0};
  std::atomic<std::int64_t> recv_ns_{0};
};

// Same as run_secure's helper: f0/f1 on two threads, first error rethrown.
void run_two_parties(const std::function<void()>& f0,
                     const std::function<void()>& f1) {
  std::exception_ptr err0, err1;
  std::thread t0([&] {
    try {
      f0();
    } catch (...) {
      err0 = std::current_exception();
    }
  });
  std::thread t1([&] {
    try {
      f1();
    } catch (...) {
      err1 = std::current_exception();
    }
  });
  t0.join();
  t1.join();
  if (err0) std::rethrow_exception(err0);
  if (err1) std::rethrow_exception(err1);
}

// Per-party time inside the ml and pipeline calls of the online phase.
struct PartyTimes {
  double fwd[kMaxLayers] = {};
  double bwd[kMaxLayers] = {};
  double loss_grad = 0.0;
  double update = 0.0;
  double barrier = 0.0;
};

// Floating-point work of generating the plan's triplets: Z = U x V per
// matmul, U .* V per elementwise, two elementwise products per activation.
double dealer_flops(const std::vector<mpc::TripletSpec>& plan) {
  double flops = 0.0;
  for (const auto& s : plan) {
    switch (s.kind) {
      case mpc::TripletKind::kMatMul:
        flops += 2.0 * s.m * s.k * s.n;
        break;
      case mpc::TripletKind::kElementwise:
        flops += static_cast<double>(s.m) * s.n;
        break;
      case mpc::TripletKind::kActivation:
        flops += 2.0 * s.m * s.n;
        break;
    }
  }
  return flops;
}

// Replays the job's online Eq. 8 products on the packed CPU engine: two
// m x k x n GEMMs per secure matmul per epoch. Returns {seconds, flops}.
std::pair<double, double> replay_eq8_gemms(
    const std::vector<mpc::TripletSpec>& plan, std::size_t epochs) {
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>,
           std::tuple<MatrixF, MatrixF, MatrixF>>
      operands;
  double seconds = 0.0, flops = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    for (const auto& s : plan) {
      if (s.kind != mpc::TripletKind::kMatMul) continue;
      auto [it, fresh] = operands.try_emplace({s.m, s.k, s.n});
      auto& [a, b, c] = it->second;
      if (fresh) {
        a = MatrixF(s.m, s.k, 0.5f);
        b = MatrixF(s.k, s.n, 0.25f);
        c = MatrixF(s.m, s.n, 0.0f);
      }
      Timer t;
      tensor::gemm_parallel(1.0f, a, tensor::Trans::kNo, b,
                            tensor::Trans::kNo, 0.0f, c);
      tensor::gemm_parallel(1.0f, a, tensor::Trans::kNo, b,
                            tensor::Trans::kNo, 1.0f, c);
      seconds += t.seconds();
      flops += 4.0 * s.m * s.k * s.n;
    }
  }
  return {seconds, flops};
}

struct DeviceTotals {
  double h2d_s = 0.0, kernel_s = 0.0;
  double h2d_bytes = 0.0, kernels = 0.0;
};

DeviceTotals device_totals() {
  DeviceTotals t;
  for (const auto& [key, s] : sgpu::Device::global().trace().summary()) {
    if (key == "memcpy_h2d") {
      t.h2d_s += s.total_sec;
      t.h2d_bytes += static_cast<double>(s.bytes);
    } else if (key.rfind("kernel", 0) == 0) {
      t.kernel_s += s.total_sec;
      t.kernels += static_cast<double>(s.count);
    }
  }
  return t;
}

}  // namespace

TracedResult run_traced(const RunConfig& cfg, bool training) {
  TracedResult out;
  auto& L = out.layers;
  parsecureml::RunResult& result = out.run;
  const DeviceTotals dev_before = device_totals();
  Timer wall;

  // ---- set-up, as run_secure does it ----
  const mpc::PartyOptions opts = cfg.mode == Mode::kCustom
                                     ? cfg.custom_opts
                                     : parsecureml::options_for_mode(cfg.mode);
  sgpu::Device* device = opts.use_gpu ? &sgpu::Device::global() : nullptr;
  if (opts.adaptive) (void)profile::AdaptiveDispatch::global();

  const auto scheme = parsecureml::scheme_for_model(cfg.model);
  Timer t_data;
  auto ds = data::make_dataset(cfg.dataset, scheme, cfg.samples, cfg.seed);
  L["data.make_dataset_s"] = t_data.seconds();
  const auto mc = parsecureml::model_config_for(cfg, ds.geometry);
  const std::size_t batch = std::min(cfg.batch, cfg.samples);
  const std::size_t n_batches = std::max<std::size_t>(1, cfg.samples / batch);
  const auto loss_kind = ml::loss_for(cfg.model);

  Timer total;
  profile::Profiler::global().reset();

  // ---- offline phase ----
  mpc::DealerOptions dopts;
  dopts.use_gpu = opts.use_gpu;
  dopts.naive_cpu = !opts.use_gpu && !opts.cpu_parallel;
  dopts.seed = cfg.seed ^ 0xD5A1;

  PSML_REQUIRE(cfg.model != ml::ModelKind::kRnn,
               "perfbench: traced run covers sequential models only");
  ml::SecurePair pair = ml::build_secure_pair(mc);
  const std::vector<mpc::TripletSpec> plan = ml::epoch_plan(
      pair.m0, n_batches, batch, loss_kind, mc.output_dim(), training);

  mpc::TripletStore st0, st1;
  Timer gen_timer;
  L["mpc.dealer_s"] = 0.0;
  L["mpc.dealer_gflops"] = 0.0;
  L["mpc.factory_fill_s"] = 0.0;
  if (cfg.use_triplet_factory) {
    mpc::TripletFactory& factory = mpc::TripletFactory::global();
    Timer t;
    factory.reserve(plan);
    factory.fill_stores(plan, st0, st1);
    L["mpc.factory_fill_s"] = t.seconds();
  } else {
    mpc::TripletDealer dealer(device, dopts);
    Timer t;
    std::tie(st0, st1) = dealer.generate(plan);
    const double s = t.seconds();
    L["mpc.dealer_s"] = s;
    L["mpc.dealer_gflops"] = dealer_flops(plan) / s * 1e-9;
  }
  Timer t_share;
  auto x_shares = mpc::share_float(ds.x, cfg.seed ^ 0x11);
  auto y_shares = mpc::share_float(ds.y, cfg.seed ^ 0x22);
  L["rng.share_s"] = t_share.seconds();
  result.offline_generate_sec = gen_timer.seconds();
  result.offline_bytes = st0.bytes() + x_shares.s0.bytes() + y_shares.s0.bytes();

  // ---- offline transmit: client -> servers ----
  net::ChannelPair s0s1 = net::LocalChannel::make_pair();
  auto chan0 = std::make_shared<TimedChannel>(s0s1.a);
  auto chan1 = std::make_shared<TimedChannel>(s0s1.b);
  net::ChannelPair cs0 = net::LocalChannel::make_pair();
  net::ChannelPair cs1 = net::LocalChannel::make_pair();
  mpc::TripletStore recv_st0, recv_st1;
  MatrixF x0, x1, y0, y1;
  Timer tx_timer;
  {
    std::thread c([&] {
      // declassify(): each server receives its own additive share, as in
      // run_secure's client.
      parsecureml::send_store(*cs0.a, st0);
      net::send_matrix(*cs0.a, mpc::tags::kClientData,
                       psml::declassify(x_shares.s0));
      net::send_matrix(*cs0.a, mpc::tags::kClientData + 1,
                       psml::declassify(y_shares.s0));
      parsecureml::send_store(*cs1.a, st1);
      net::send_matrix(*cs1.a, mpc::tags::kClientData,
                       psml::declassify(x_shares.s1));
      net::send_matrix(*cs1.a, mpc::tags::kClientData + 1,
                       psml::declassify(y_shares.s1));
    });
    run_two_parties(
        [&] {
          recv_st0 = parsecureml::recv_store(*cs0.b);
          x0 = net::recv_matrix_f32(*cs0.b, mpc::tags::kClientData);
          y0 = net::recv_matrix_f32(*cs0.b, mpc::tags::kClientData + 1);
        },
        [&] {
          recv_st1 = parsecureml::recv_store(*cs1.b);
          x1 = net::recv_matrix_f32(*cs1.b, mpc::tags::kClientData);
          y1 = net::recv_matrix_f32(*cs1.b, mpc::tags::kClientData + 1);
        });
    c.join();
  }
  result.offline_transmit_sec = tx_timer.seconds();
  L["parsecureml.store_transfer_s"] = result.offline_transmit_sec;

  // ---- online phase, with each layer call timed ----
  mpc::PartyContext ctx0(0, chan0, device, opts);
  mpc::PartyContext ctx1(1, chan1, device, opts);
  recv_st0.set_recycle(true);
  recv_st1.set_recycle(true);
  ctx0.set_triplets(std::move(recv_st0));
  ctx1.set_triplets(std::move(recv_st1));

  std::vector<MatrixF> preds0, preds1;
  PartyTimes times[2];

  auto server_loop = [&](int id) {
    mpc::PartyContext& ctx = id == 0 ? ctx0 : ctx1;
    const MatrixF& x = id == 0 ? x0 : x1;
    const MatrixF& y = id == 0 ? y0 : y1;
    ml::SecureSequential& model = id == 0 ? pair.m0 : pair.m1;
    auto& preds = id == 0 ? preds0 : preds1;
    PartyTimes& pt = times[id];
    ml::SecureEnv env{&ctx, training,
                      opts.use_pipeline ? &ctx.engine() : nullptr};
    const std::size_t n_layers = model.size();
    PSML_REQUIRE(n_layers <= kMaxLayers, "perfbench: too many layers");

    for (std::size_t e = 0; e < cfg.epochs; ++e) {
      for (std::size_t b = 0; b < n_batches; ++b) {
        ctx.set_stream_salt(b);
        const MatrixF xb = data::slice_rows(x, b * batch, batch);
        const MatrixF yb = data::slice_rows(y, b * batch, batch);
        // SecureSequential::forward, one layer call at a time.
        MatrixF cur = xb;
        for (std::size_t i = 0; i < n_layers; ++i) {
          Timer t;
          cur = model.layer(i).forward(env, cur);
          pt.fwd[i] += t.seconds();
        }
        if (!training) {
          preds.push_back(std::move(cur));
          continue;
        }
        // The rest of ml::secure_train_batch.
        Timer t_loss;
        MatrixF grad = ml::secure_loss_grad(env, loss_kind, cur, yb);
        pt.loss_grad += t_loss.seconds();
        for (std::size_t i = n_layers; i-- > 0;) {
          Timer t;
          grad = model.layer(i).backward(env, grad);
          pt.bwd[i] += t.seconds();
        }
        if (env.engine != nullptr) {
          Timer t;
          env.engine->wait_all();
          pt.barrier += t.seconds();
        }
        Timer t_update;
        model.update(cfg.lr);
        pt.update += t_update.seconds();
      }
    }
    if (env.engine != nullptr) {
      Timer t;
      env.engine->wait_all();
      pt.barrier += t.seconds();
    }
  };

  Timer online;
  run_two_parties([&] { server_loop(0); }, [&] { server_loop(1); });
  result.online_sec = online.seconds();

  // ---- wrap-up: traffic, compression, client-side evaluation ----
  result.server_to_server_bytes =
      chan0->stats().bytes_sent.load() + chan1->stats().bytes_sent.load();
  const auto& c0 = ctx0.compressed().stats();
  const auto& c1 = ctx1.compressed().stats();
  result.compression.messages = c0.messages + c1.messages;
  result.compression.compressed_messages =
      c0.compressed_messages + c1.compressed_messages;
  result.compression.dense_bytes = c0.dense_bytes + c1.dense_bytes;
  result.compression.sent_bytes = c0.sent_bytes + c1.sent_bytes;

  if (cfg.evaluate) {
    if (training) {
      auto plain = ml::reconstruct_plain(mc, pair.m0, pair.m1);
      result.accuracy = ml::accuracy(plain.forward(ds.x), ds.y);
    } else {
      // Inference leaves the weights untouched, so the plaintext model
      // rebuilt from them is the row-by-row reference for every batch.
      auto plain = ml::reconstruct_plain(mc, pair.m0, pair.m1);
      std::size_t correct_rows = 0, agreeing_rows = 0, total_rows = 0;
      float max_error = 0.0f, max_output = 0.0f;
      auto rows_of = [](double share, const MatrixF& m) {
        return static_cast<std::size_t>(
            share * static_cast<double>(m.rows()) + 0.5);
      };
      for (std::size_t b = 0; b < preds0.size(); ++b) {
        const MatrixF pred = mpc::reconstruct_float(preds0[b], preds1[b]);
        const std::size_t first = (b % n_batches) * batch;
        const MatrixF yb = data::slice_rows(ds.y, first, batch);
        const MatrixF plain_pred =
            plain.forward(data::slice_rows(ds.x, first, batch));
        correct_rows += rows_of(ml::accuracy(pred, yb), pred);
        agreeing_rows += rows_of(ml::accuracy(pred, plain_pred), pred);
        for (std::size_t r = 0; r < pred.rows(); ++r) {
          for (std::size_t c = 0; c < pred.cols(); ++c) {
            max_error = std::max(max_error,
                                 std::fabs(pred(r, c) - plain_pred(r, c)));
            max_output = std::max(max_output, std::fabs(plain_pred(r, c)));
          }
        }
        total_rows += pred.rows();
      }
      result.accuracy = total_rows == 0
                            ? 0.0
                            : static_cast<double>(correct_rows) / total_rows;
      out.logit_error = max_output > 0.0f ? max_error / max_output : 1.0;
      out.row_mismatch_share =
          total_rows == 0 ? 1.0
                          : 1.0 - static_cast<double>(agreeing_rows) /
                                      static_cast<double>(total_rows);
    }
  }
  result.total_sec = total.seconds();
  out.wall_s = wall.seconds();

  // ---- per-layer rows ----
  TimedChannel* chans[2] = {chan0.get(), chan1.get()};
  for (int p = 0; p < 2; ++p) {
    const std::string pre = "net.p" + std::to_string(p) + ".";
    L[pre + "messages"] =
        static_cast<double>(chans[p]->stats().messages_sent.load());
    L[pre + "bytes"] = static_cast<double>(chans[p]->stats().bytes_sent.load());
    L[pre + "send_s"] = chans[p]->send_s();
    L[pre + "recv_wait_s"] = chans[p]->recv_wait_s();
  }
  const auto& comp = result.compression;
  L["compress.compressed_share"] =
      comp.messages == 0 ? 0.0
                         : static_cast<double>(comp.compressed_messages) /
                               static_cast<double>(comp.messages);
  L["compress.sent_over_dense"] =
      comp.dense_bytes == 0 ? 0.0
                            : static_cast<double>(comp.sent_bytes) /
                                  static_cast<double>(comp.dense_bytes);
  // Party 0's view; both servers run the same SPMD schedule.
  const PartyTimes& pt = times[0];
  for (std::size_t i = 0; i < kMaxLayers; ++i) {
    const std::string pre = "ml.layer" + std::to_string(i) + ".";
    L[pre + "fwd_s"] = pt.fwd[i];
    L[pre + "bwd_s"] = pt.bwd[i];
  }
  L["ml.loss_grad_s"] = pt.loss_grad;
  L["ml.update_s"] = pt.update;
  L["pipeline.step_barrier_s"] = pt.barrier;

  const DeviceTotals dev_after = device_totals();
  L["sgpu.h2d_s"] = dev_after.h2d_s - dev_before.h2d_s;
  L["sgpu.h2d_bytes"] = dev_after.h2d_bytes - dev_before.h2d_bytes;
  L["sgpu.kernel_s"] = dev_after.kernel_s - dev_before.kernel_s;
  L["sgpu.kernels"] = dev_after.kernels - dev_before.kernels;

  const auto [gemm_s, gemm_flops] = replay_eq8_gemms(plan, cfg.epochs);
  L["tensor.gemm_s"] = gemm_s;
  L["tensor.gemm_gflops"] = gemm_s > 0.0 ? gemm_flops / gemm_s * 1e-9 : 0.0;
  return out;
}

}  // namespace psml::perfbench
